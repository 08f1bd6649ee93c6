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

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import EigensolverError

_SIGN_PANEL_COLS = 32  # eigenvector columns per panel in the sign-convention pass


def _check_int(value, name: str, lo, hi=math.inf) -> int:
    """``value`` as an ``int``, if it is an integer in ``[lo, hi]``.

    This is the one place the rule for integer arguments is written. Python
    and numpy integers and integral floats pass; ``bool``/``np.bool_``,
    fractions, nan, infinities, non-numbers and values out of range raise
    ``ValueError``.
    """
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value))
    if isinstance(value, (bool, np.bool_)) or not integral or not lo <= value <= hi:
        span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def _check_real(value, name: str, interval: str) -> float:
    """``value`` as a ``float``, if it is a finite real number in ``interval``.

    This is the one place the rule for real arguments is written. ``interval``
    reads as the message prints it, such as ``"(0, inf)"`` or ``"(0, 1]"``;
    ``bool``/``np.bool_``, nan, infinities and non-numbers never pass.
    """
    lo, hi = (float(end) for end in interval[1:-1].split(", "))
    real = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an integer too large for a float
        x = math.inf
    above = lo <= x if interval[0] == "[" else lo < x
    below = x <= hi if interval[-1] == "]" else x < hi
    if not (math.isfinite(x) and above and below):
        raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")
    return x


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
    # Sign convention: largest-magnitude coordinate positive, first index wins
    # ties. Taken over column panels, so no n x n temporary sits beside U.
    for j in range(0, U.shape[1], _SIGN_PANEL_COLS):
        P = U[:, j:j + _SIGN_PANEL_COLS]
        lead = np.argmax(np.abs(P), axis=0)
        P *= np.where(P[lead, np.arange(P.shape[1])] < 0, -1.0, 1.0)
    return EigenDecomposition(eigenvalues=w, eigenvectors=U)


def truncate(eig: EigenDecomposition, d: int) -> np.ndarray:
    """Rank-d reconstruction: the sum of the first d eigenvalue/vector terms.

    Formed as ``P @ P.T - N @ N.T``, where P and N are the kept eigenvectors
    scaled by ``sqrt(max(w, 0))`` and ``sqrt(max(-w, 0))``; the second term is
    computed only if a kept eigenvalue is negative. Each product of one array
    with its own transpose goes through SYRK, which computes one triangle and
    copies it, so the result is symmetric bit for bit.
    """
    d = _check_int(d, "rank", 0, eig.n)
    w, U = eig.eigenvalues[:d], eig.eigenvectors[:, :d]
    B = U * np.sqrt(np.maximum(w, 0.0))
    T = B @ B.T
    if d and w[-1] < 0.0:  # w is descending, so a negative kept value sits at the end
        B = U * np.sqrt(np.maximum(-w, 0.0))
        T -= B @ B.T
    return T


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    # Entry d is the sum of x[d:], added from the end; entry n is 0.
    return np.append(np.cumsum(x[::-1])[::-1], 0.0)


def tail_abs_sum(eig: EigenDecomposition, d: int) -> float:
    """Sum of absolute eigenvalues discarded by a rank-d truncation."""
    d = _check_int(d, "rank", 0, eig.n)
    return float(_suffix_sums(np.abs(eig.eigenvalues))[d])


def sup_norm_tail(eig: EigenDecomposition, d: int) -> float:
    """Largest absolute eigenvector coordinate over the discarded tail."""
    if _check_int(d, "rank", 0, eig.n) == eig.n:
        raise ValueError(f"need 0 <= d < n={eig.n} (the tail must be non-empty), got {d!r}")
    T = eig.eigenvectors[:, int(d):]
    return float(max(T.max(), -T.min()))


def error_sweep(gram, eig: EigenDecomposition, ranks) -> RankSweepResult:
    """Residual error metrics of the rank-d truncation on a grid of ranks.

    * ``max_entry_error``: largest absolute entry of the residual
      ``R = K - truncate(eig, d) = sum_{l>=d} w_l u_l u_l^T``. If R is PSD, its 2x2
      principal minors are >= 0, so ``R_ij**2 <= R_ii R_jj``: the answer is the
      largest ``R_ii = sum_{l>=d} w_l u_l(i)**2``, the paper's quantity. The
      diagonal starts at ``diag(K)`` and loses ``sum_l w_l u_l(i)**2`` over each
      interval ``[a, b)`` between requested ranks, O(n * max rank) in all.
    * ``frobenius_error``: square roots of suffix sums of ``w**2``;
    * ``spectral_error``: largest-magnitude discarded eigenvalue;
    * ``tail_abs_sum`` and ``sup_norm_tail``: suffix sums of ``|w|`` and suffix
      maxima of the column maxima of ``|U|``.

    Fallback: if ``max_i sum_{w_l<0} |w_l| u_l(i)**2 > n * eps * max|w|``
    (judged at rank 0; later tails hold fewer negative values), the largest
    entry may lie off the diagonal, and the n x n residual is kept instead,
    updated by ``R -= (U[:, a:b] * w[a:b]) @ U[:, a:b].T``. Kernel Gram matrices
    are PSD up to round-off and never take it; indefinite matrices do.

    ``ranks`` must be sorted ascending, all within [0, n]; repeats are allowed.
    """
    K = _as_symmetric(gram)
    n = eig.n
    if K.shape[0] != n:
        raise ValueError(f"matrix size {K.shape[0]} does not match decomposition size {n}")
    ranks = [_check_int(d, "rank", 0, n) for d in ranks]
    if ranks != sorted(ranks):
        raise ValueError("ranks must be sorted ascending")

    w, U = eig.eigenvalues, eig.eigenvectors
    abs_sums, frobenius = _suffix_sums(np.abs(w)), np.sqrt(_suffix_sums(w * w))
    sup_norms = np.maximum.accumulate(np.maximum(U.max(axis=0), -U.min(axis=0))[::-1])[::-1]
    k = np.count_nonzero(w >= 0.0)  # w is descending, so w[k:] holds its negative values
    negative = np.einsum("ij,ij,j->i", U[:, k:], U[:, k:], -w[k:])
    dense = negative.max(initial=0.0) > n * np.finfo(float).eps * np.abs(w).max(initial=0.0)
    R = K.copy() if dense else np.diag(K).copy()
    rows = []
    done = 0
    for d in ranks:
        if d == n:  # nothing discarded: errors are zero by definition
            rows.append((0.0, 0.0, 0.0, 0.0, 0.0))
            continue
        if d > done:
            V = U[:, done:d]
            R -= (V * w[done:d]) @ V.T if dense else np.einsum("ij,ij,j->i", V, V, w[done:d])
            done = d
        # w is descending, so the extreme magnitudes of w[d:] sit at its ends.
        rows.append((max(R.max(), -R.min()), frobenius[d], max(abs(w[d]), abs(w[-1])),
                     abs_sums[d], sup_norms[d]))
    columns = np.array(rows, dtype=float).reshape(len(ranks), 5).T.copy()
    return RankSweepResult(np.array(ranks, dtype=int), *columns)
