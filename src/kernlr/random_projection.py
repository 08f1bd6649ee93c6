"""Randomized low-rank approximation via Gaussian random projections.

Given a PSD matrix M = X X^T, the sketch ``M_d = (X R)(X R)^T`` with R an
n x d matrix of i.i.d. N(0, 1/d) entries is an unbiased rank-<=d
approximation whose max-entry error scales like ``sqrt(log(n) / d)``. This
module builds the symmetric square root X, draws seeded sketch factors
``X R``, and compares them against the optimal spectral truncation.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import (EigenDecomposition, eigendecompose, error_sweep, _as_symmetric,
                       _check_int, _max_entry_error, _median, _readonly, _require_full)


def factor_from_eigendecomposition(eig: EigenDecomposition) -> np.ndarray:
    """Read-only symmetric square root ``U sqrt(max(w, 0)) U^T`` of a decomposed symmetric matrix.

    Negative round-off eigenvalues are clipped to 0, so ``root @ root.T``
    reproduces the input up to round-off plus ``-np.minimum(w, 0).sum()``.
    Formed as ``B @ B.T`` with ``B = U max(w, 0)^(1/4)``: one SYRK, so the
    root is symmetric bit for bit. Refuses a leading-k decomposition with
    ``ValueError``.
    """
    _require_full(eig)
    B = eig.eigenvectors * np.maximum(eig.eigenvalues, 0.0) ** 0.25
    root = B @ B.T
    root.setflags(write=False)
    return root


def _sketch_factor(root: np.ndarray, d: int, seed) -> np.ndarray:
    """The n x d factor ``S = root @ R`` of one sketch, R with i.i.d. N(0, 1/d) entries.

    This is the one place a seed becomes a sketch: R is the first n x d
    standard normals of ``numpy.random.default_rng(seed)``, divided by sqrt(d).
    ``seed`` may be anything ``default_rng`` accepts (an integer, a
    SeedSequence or a Generator), and the same seed gives the same S bit for bit.
    """
    n = root.shape[0]
    d = _check_int(d, "rank", 1, n)
    R = np.random.default_rng(seed).standard_normal((n, d))
    R /= math.sqrt(d)
    return root @ R


def jl_error_bound(n: int, d: int) -> float:
    """Rate shape ``sqrt(log(n) / d)`` of the sketch's max-entry error.

    The constant is set to 1 by convention; treat this as a scaling shape,
    not a certified bound.
    """
    n, d = _check_int(n, "n", 2), _check_int(d, "d", 1)
    return math.sqrt(math.log(n) / d)


@_readonly
class MethodComparison:
    """Max-entry errors per requested rank, in order: spectral truncation vs the sketch median."""

    spectral_max_error: np.ndarray
    jl_median_max_error: np.ndarray


def compare_methods(gram, ranks, trials: int, seed: int) -> MethodComparison:
    """Spectral-truncation vs random-projection max-entry error on a rank grid.

    For each rank the sketch error is the median over ``trials`` independent
    draws; per-trial seeds are derived from ``seed`` by counter, so the result
    is deterministic and independent of evaluation order. Trial t at the j-th
    rank d draws ``R = default_rng(SeedSequence(entropy=seed, spawn_key=(j, t)))
    .standard_normal((n, d)) / sqrt(d)`` and forms ``S = root @ R``. Its error
    ``max |S @ S.T - K|`` is walked from the pair (S, S) by ``spectral._max_entry_error``,
    so no n x n sketch or error matrix exists.
    The RSS peak above the input is four n x n arrays, inside ``eigh``: numpy's
    copy of the input, the eigenvectors and the 2 n^2 LAPACK workspace.
    ``tracemalloc`` sees numpy's arrays only and reads three (the eigenvectors,
    their scaled copy and the PSD root, while the root is formed).
    """
    trials, seed = _check_int(trials, "trials", 1), _check_int(seed, "seed", 0)
    K = _as_symmetric(gram)
    ranks = [_check_int(d, "rank", 1, K.shape[0]) for d in ranks]
    eig = eigendecompose(K)
    grid = sorted(set(ranks))
    spectral = dict(zip(grid, error_sweep(K, eig, grid).max_entry_error.tolist()))
    root = factor_from_eigendecomposition(eig)
    del eig  # the root is all the sketches read

    jl_median = []
    for j, d in enumerate(ranks):
        errs = np.empty(trials)
        for t in range(trials):
            S = _sketch_factor(root, d, np.random.SeedSequence(entropy=seed, spawn_key=(j, t)))
            errs[t] = _max_entry_error(S, S, K, [d])[0]
            del S  # so the next trial's draw does not sit beside this sketch
        jl_median.append(float(_median(errs)))

    return MethodComparison(spectral_max_error=np.array([spectral[d] for d in ranks]),
                            jl_median_max_error=np.array(jl_median))
