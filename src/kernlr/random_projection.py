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

from .spectral import (EigenDecomposition, eigendecompose, error_sweep, _check_int, _median,
                       _PANEL_ROWS, _readonly, _require_full)


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


def factor_from_eigendecomposition(eig: EigenDecomposition) -> PsdFactor:
    """Symmetric square root ``U sqrt(max(w, 0)) U^T`` of a decomposed symmetric matrix.

    Formed as ``B @ B.T`` with ``B = U max(w, 0)^(1/4)``: one SYRK, so the
    root is symmetric bit for bit. Refuses a leading-k decomposition with
    ``CapabilityError``.
    """
    _require_full(eig)
    w, U = eig.eigenvalues, eig.eigenvectors
    B = U * np.maximum(w, 0.0) ** 0.25
    return PsdFactor(root=B @ B.T, clip_mass=float(-np.minimum(w, 0.0).sum()))


def _sketch_factor(factor: PsdFactor, d: int, seed) -> np.ndarray:
    """The n x d factor ``S = root @ R`` of one sketch, R with i.i.d. N(0, 1/d) entries.

    This is the one place a seed becomes a sketch: R is the first n x d
    standard normals of ``numpy.random.default_rng(seed)``, divided by sqrt(d).
    """
    d = _check_int(d, "rank", 1, factor.n)
    R = np.random.default_rng(seed).standard_normal((factor.n, d))
    R /= math.sqrt(d)
    return factor.root @ R


def _max_entry_error(S: np.ndarray, K: np.ndarray) -> float:
    """``max |S @ S.T - K|`` for a symmetric K, without forming an n x n array.

    Walks the upper triangle in row panels: ``S[i:i+P] @ S[i:].T`` minus
    ``K[i:i+P, i:]``, keeping a running max and min. That is n^2 d flops, as
    for the SYRK ``S @ S.T``, and each panel stays in cache.
    """
    hi, lo = -math.inf, math.inf
    for i in range(0, S.shape[0], _PANEL_ROWS):
        B = S[i:i + _PANEL_ROWS] @ S[i:].T
        B -= K[i:i + _PANEL_ROWS, i:]
        hi, lo = max(hi, B.max()), min(lo, B.min())
    return float(max(hi, -lo))


def jl_approximation(factor: PsdFactor, d: int, seed) -> np.ndarray:
    """One seeded random-projection approximation of rank <= d.

    Deterministic given (factor, d, seed): the same seed reproduces the
    sketch bit for bit. ``seed`` may be anything ``numpy.random.default_rng``
    accepts (an integer, a SeedSequence, or a Generator). The sketch is
    symmetric bit for bit: ``S @ S.T`` of the one C-contiguous array ``S``
    goes through SYRK, which computes one triangle and copies it.
    """
    S = _sketch_factor(factor, d, seed)
    return S @ S.T


def jl_error_bound(n: int, d: int) -> float:
    """Rate shape ``sqrt(log(n) / d)`` of the sketch's max-entry error.

    The constant is set to 1 by convention; treat this as a scaling shape,
    not a certified bound.
    """
    n, d = _check_int(n, "n", 2), _check_int(d, "d", 1)
    return math.sqrt(math.log(n) / d)


@_readonly
class MethodComparison:
    """Per-rank max-entry errors: spectral truncation vs the sketch median."""

    ranks: np.ndarray
    spectral_max_error: np.ndarray
    jl_median_max_error: np.ndarray
    jl_rate_shape: np.ndarray


def compare_methods(gram, ranks, trials: int, seed) -> MethodComparison:
    """Spectral-truncation vs random-projection max-entry error on a rank grid.

    For each rank the sketch error is the median over ``trials`` independent
    draws; per-trial seeds are derived from ``seed`` by counter, so the result
    is deterministic and independent of evaluation order. Trial t at the j-th
    rank d draws the sketch ``jl_approximation(factor, d, SeedSequence(entropy=seed,
    spawn_key=(j, t)))``, but only its n x d factor is formed: the error is read
    from that factor in row panels, so no n x n sketch or error matrix exists.
    A panel GEMM may sum an entry of ``S @ S.T`` in another order than SYRK,
    so an error can differ from the one read off that sketch in the last bit.
    The RSS peak above the input is four n x n arrays, inside ``eigh``: numpy's
    copy of the input, the eigenvectors and the 2 n^2 LAPACK workspace.
    ``tracemalloc`` sees numpy's arrays only and reads three (the eigenvectors,
    their scaled copy and the PSD root, while the root is formed).
    """
    trials = _check_int(trials, "trials", 1)
    K = np.asarray(gram, dtype=float)
    eig = eigendecompose(gram)
    ranks = [_check_int(d, "rank", 1, eig.n) for d in ranks]
    sweep = error_sweep(gram, eig, sorted(set(ranks)))
    spectral = dict(zip(sweep.ranks.tolist(), sweep.max_entry_error.tolist()))
    factor = factor_from_eigendecomposition(eig)
    del eig  # the root is all the sketches read

    n = factor.n
    jl_median = []
    for j, d in enumerate(ranks):
        errs = np.empty(trials)
        for t in range(trials):
            trial_seed = np.random.SeedSequence(entropy=seed, spawn_key=(j, t))
            errs[t] = _max_entry_error(_sketch_factor(factor, d, trial_seed), K)
        jl_median.append(float(_median(errs)))

    return MethodComparison(
        ranks=np.array(ranks, dtype=int),
        spectral_max_error=np.array([spectral[d] for d in ranks]),
        jl_median_max_error=np.array(jl_median),
        jl_rate_shape=np.array([jl_error_bound(n, d) for d in ranks]),
    )
