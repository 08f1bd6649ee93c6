"""Dense symmetric eigendecomposition, rank-d truncation and error sweeps.

Eigenvalues are ordered by descending *algebraic* value and the truncation
keeps the first d of them. For positive semi-definite kernel matrices this
coincides with magnitude ordering except for round-off-level negative
eigenvalues; for genuinely indefinite matrices the two orderings differ and
the algebraic convention is followed deliberately.

Eigenvectors carry a deterministic sign: the largest-magnitude coordinate of
each vector is positive (ties broken by the lowest index), so repeated runs
and golden files agree. Invariants on degenerate (repeated) eigenvalues are
meaningful only at the subspace level (orthonormality, reconstruction), never
for individual vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import EigensolverError


def _mirror_upper(M: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one: exact symmetry."""
    return np.triu(M) + np.triu(M, 1).T


def _readonly(cls):
    """Frozen dataclass whose array fields are made read-only on construction.

    This is the one place the "result arrays are read-only" rule is written.
    ``__post_init__`` is set before ``dataclass()`` runs, because the generated
    ``__init__`` calls it only if the class has it at that point.
    """
    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    cls.__post_init__ = __post_init__
    return dataclass(frozen=True, eq=False)(cls)


@_readonly
class EigenDecomposition:
    """Descending eigenvalues with orthonormal eigenvectors, column l <-> value l."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@_readonly
class RankSweepResult:
    """Per-rank error metrics of the spectral truncation.

    ``frobenius_error`` and ``tail_abs_sum`` are non-increasing in the rank;
    ``max_entry_error`` need not be monotone. At rank n all errors are zero
    (nothing is discarded) and ``sup_norm_tail`` is reported as 0 for the
    empty tail.
    """

    ranks: np.ndarray
    max_entry_error: np.ndarray
    frobenius_error: np.ndarray
    spectral_error: np.ndarray
    tail_abs_sum: np.ndarray
    sup_norm_tail: np.ndarray


def _as_symmetric(gram) -> np.ndarray:
    K = np.asarray(gram, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    if not np.all(np.isfinite(K)):
        raise ValueError("matrix contains non-finite entries")
    if not np.array_equal(K, K.T):
        raise ValueError("matrix is not exactly symmetric; symmetrize it first")
    return K


def eigendecompose(gram) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix, descending order.

    Accepts any exactly symmetric square array, such as the result of
    :func:`~kernlr.kernels.gram_matrix`.
    Raises :class:`EigensolverError` if the underlying solver fails to
    converge within its iteration cap.
    """
    K = _as_symmetric(gram)
    try:
        w, U = np.linalg.eigh(K)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"symmetric eigensolver did not converge: {exc}") from exc
    w = w[::-1].copy()
    U = U[:, ::-1].copy()
    # Sign convention: largest-magnitude coordinate positive, first index wins ties.
    lead = np.argmax(np.abs(U), axis=0)
    flip = U[lead, np.arange(U.shape[1])] < 0
    U[:, flip] *= -1.0
    return EigenDecomposition(eigenvalues=w, eigenvectors=U)


def truncate(eig: EigenDecomposition, d: int) -> np.ndarray:
    """Rank-d reconstruction: the sum of the first d eigenvalue/vector terms."""
    d = _check_rank(d, eig.n)
    U = eig.eigenvectors[:, :d]
    return _mirror_upper((U * eig.eigenvalues[:d]) @ U.T)


def _check_rank(d, n) -> int:
    if d != int(d) or not 0 <= int(d) <= n:
        raise ValueError(f"rank must be an integer in [0, {n}], got {d!r}")
    return int(d)


def _tail_abs_sums(w: np.ndarray) -> np.ndarray:
    # Entry d is the sum of |w[d:]|, added from the smallest end; entry n is 0.
    return np.append(np.cumsum(np.abs(w[::-1]))[::-1], 0.0)


def tail_abs_sum(eig: EigenDecomposition, d: int) -> float:
    """Sum of absolute eigenvalues discarded by a rank-d truncation."""
    d = _check_rank(d, eig.n)
    return float(_tail_abs_sums(eig.eigenvalues)[d])


def sup_norm_tail(eig: EigenDecomposition, d: int) -> float:
    """Largest absolute eigenvector coordinate over the discarded tail."""
    if not 0 <= d < eig.n:
        raise ValueError(f"need 0 <= d < n={eig.n} (the tail must be non-empty), got {d!r}")
    return float(np.abs(eig.eigenvectors[:, int(d):]).max())


def error_sweep(gram, eig: EigenDecomposition, ranks) -> RankSweepResult:
    """Residual error metrics of the rank-d truncation on a grid of ranks.

    The residual ``R = K - truncate(eig, d)`` is updated once per interval
    ``[a, b)`` between requested ranks, by one matrix product over the block of
    eigenpairs it adds, ``R -= (U[:, a:b] * w[a:b]) @ U[:, a:b].T``, and measured:

    * ``max_entry_error``: largest absolute entry of the residual,
    * ``frobenius_error``: Frobenius norm of the residual,
    * ``spectral_error``: largest-magnitude discarded eigenvalue,
    * ``tail_abs_sum`` and ``sup_norm_tail`` of the discarded eigenpairs, read
      from suffix sums of ``|w|`` and suffix maxima of the column maxima of
      ``|U|``, computed once for all ranks.

    ``ranks`` must be sorted ascending, all within [0, n]; repeats are allowed.
    """
    K = _as_symmetric(gram)
    n = eig.n
    if K.shape[0] != n:
        raise ValueError(f"matrix size {K.shape[0]} does not match decomposition size {n}")
    ranks = [_check_rank(d, n) for d in ranks]
    if ranks != sorted(ranks):
        raise ValueError("ranks must be sorted ascending")

    w, U = eig.eigenvalues, eig.eigenvectors
    abs_sums = _tail_abs_sums(w)
    sup_norms = np.maximum.accumulate(np.abs(U).max(axis=0)[::-1])[::-1]
    rows = []
    R = K.copy()
    done = 0
    for d in ranks:
        if d == n:  # nothing discarded: errors are zero by definition
            rows.append((0.0, 0.0, 0.0, 0.0, 0.0))
            continue
        if d > done:
            V = U[:, done:d]
            R -= (V * w[done:d]) @ V.T
            done = d
        # w is descending, so the extreme magnitudes of w[d:] sit at its ends.
        rows.append((max(R.max(), -R.min()), np.linalg.norm(R), max(abs(w[d]), abs(w[-1])),
                     abs_sums[d], sup_norms[d]))
    columns = np.array(rows, dtype=float).reshape(len(ranks), 5).T.copy()
    return RankSweepResult(np.array(ranks, dtype=int), *columns)
