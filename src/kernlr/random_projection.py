"""Randomized low-rank approximation via Gaussian random projections.

Given a PSD matrix M = X X^T, the sketch ``M_d = (X R)(X R)^T`` with R an
n x d matrix of i.i.d. N(0, 1/d) entries is an unbiased rank-<=d
approximation whose max-entry error scales like ``sqrt(log(n) / d)``. This
module builds the symmetric square root X, draws seeded sketches, and
compares them against the optimal spectral truncation.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import EigenDecomposition, eigendecompose, error_sweep, _mirror_upper, _readonly


@_readonly
class PsdFactor:
    """Symmetric square root of a PSD matrix, negative round-off clipped to 0.

    ``clip_mass`` is the total absolute mass of clipped eigenvalues, so
    ``root @ root.T`` reproduces the input up to round-off plus that mass.
    """

    root: np.ndarray
    clip_mass: float

    @property
    def n(self) -> int:
        return self.root.shape[0]


def factor_psd(gram) -> PsdFactor:
    """Symmetric eigen square root of a symmetric (nominally PSD) matrix."""
    return factor_from_eigendecomposition(eigendecompose(gram))


def factor_from_eigendecomposition(eig: EigenDecomposition) -> PsdFactor:
    w, U = eig.eigenvalues, eig.eigenvectors
    clipped = np.minimum(w, 0.0)
    s = np.sqrt(np.maximum(w, 0.0))
    X = _mirror_upper((U * s) @ U.T)
    return PsdFactor(root=X, clip_mass=float(-clipped.sum()))


def jl_approximation(factor: PsdFactor, d: int, seed) -> np.ndarray:
    """One seeded random-projection approximation of rank <= d.

    Deterministic given (factor, d, seed): the same seed reproduces the
    sketch bit for bit. ``seed`` may be anything ``numpy.random.default_rng``
    accepts (an integer, a SeedSequence, or a Generator).
    """
    n = factor.n
    if not 1 <= d <= n or d != int(d):
        raise ValueError(f"rank must be an integer in [1, {n}], got {d!r}")
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, int(d))) / math.sqrt(d)
    S = factor.root @ R
    return _mirror_upper(S @ S.T)


def jl_error_bound(n: int, d: int) -> float:
    """Rate shape ``sqrt(log(n) / d)`` of the sketch's max-entry error.

    The constant is set to 1 by convention; treat this as a scaling shape,
    not a certified bound.
    """
    if n < 2 or n != int(n):
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    if d < 1 or d != int(d):
        raise ValueError(f"d must be an integer >= 1, got {d!r}")
    return math.sqrt(math.log(n) / d)


@_readonly
class MethodComparison:
    """Per-rank max-entry errors: spectral truncation vs the sketch median."""

    ranks: np.ndarray
    spectral_max_error: np.ndarray
    jl_median_max_error: np.ndarray
    jl_rate_shape: np.ndarray
    trials: int


def compare_methods(gram, ranks, trials: int, seed) -> MethodComparison:
    """Spectral-truncation vs random-projection max-entry error on a rank grid.

    For each rank the sketch error is the median over ``trials`` independent
    draws; per-trial seeds are derived from ``seed`` by counter, so the result
    is deterministic and independent of evaluation order.
    """
    if trials < 1 or trials != int(trials):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    K = np.asarray(gram, dtype=float)
    eig = eigendecompose(gram)
    ranks = [int(d) for d in ranks]
    sweep = error_sweep(gram, eig, sorted(set(ranks)))
    spectral = dict(zip(sweep.ranks.tolist(), sweep.max_entry_error.tolist()))
    factor = factor_from_eigendecomposition(eig)

    n = factor.n
    jl_median = []
    for j, d in enumerate(ranks):
        errs = np.empty(trials)
        for t in range(trials):
            trial_seed = np.random.SeedSequence(entropy=seed, spawn_key=(j, t))
            errs[t] = np.abs(jl_approximation(factor, d, trial_seed) - K).max()
        jl_median.append(float(np.median(errs)))

    return MethodComparison(
        ranks=np.array(ranks, dtype=int),
        spectral_max_error=np.array([spectral[d] for d in ranks]),
        jl_median_max_error=np.array(jl_median),
        jl_rate_shape=np.array([jl_error_bound(n, d) for d in ranks]),
        trials=int(trials),
    )
