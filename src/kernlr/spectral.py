"""Symmetric eigendecomposition (full or leading-k), rank-d truncation and error sweeps.

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

_PANEL_ROWS = 32  # rows (or columns) per panel wherever an n x n array is walked in panels
LEADING_K_TOLERANCE = 1e-12  # stop when every kept residual is below this times |lambda_1|


class EigensolverError(RuntimeError):
    """The symmetric eigensolver, dense or leading-k, failed to converge."""


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


def _median(x: np.ndarray, axis=None):
    """``numpy.median(x, axis)`` bit for bit, partitioning the float array ``x`` in place.

    A nan on the axis gives nan. ``numpy.median``'s own nan check imports
    ``numpy.ma``, 9-15 ms and about 1 MB of peak RSS that no CLI run otherwise pays.
    """
    x = x.reshape(-1) if axis is None else np.moveaxis(x, axis, 0)
    half, odd = divmod(x.shape[0], 2)
    x.partition([half, -1] if odd else [half - 1, half, -1], axis=0)  # numpy.median's kth
    mid = x[half - 1 + odd:half + 1].mean(axis=0)  # and its mean of the centre
    return np.where(np.isnan(x[-1]), x[-1], mid)[()]


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
    """Descending eigenvalues with orthonormal eigenvectors, column l <-> value l.

    ``n`` is the order of the matrix. A leading-k decomposition holds k < n
    pairs; see :func:`_require_full` for what refuses it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]


def _require_full(eig: EigenDecomposition) -> None:
    """Raise ``ValueError`` unless ``eig`` holds all n pairs.

    The discarded tail of a leading-k decomposition is unknown, so nothing
    that reads it (the tail statistics, the error sweep, the PSD root) may
    run on one.
    """
    if eig.eigenvalues.shape[0] < eig.n:
        raise ValueError(f"needs the full decomposition, got the leading "
                         f"{eig.eigenvalues.shape[0]} of {eig.n} pairs")


@_readonly
class RankSweepResult:
    """Error metrics of the spectral truncation, one entry per requested rank, in order.

    ``frobenius_error`` and ``tail_abs_sum`` are non-increasing in the rank;
    ``max_entry_error`` need not be monotone. At rank n all errors are zero
    (nothing is discarded) and ``sup_norm_tail`` is reported as 0 for the
    empty tail.
    """

    max_entry_error: np.ndarray
    frobenius_error: np.ndarray
    spectral_error: np.ndarray
    tail_abs_sum: np.ndarray
    sup_norm_tail: np.ndarray


def _as_symmetric(gram) -> np.ndarray:
    K = np.asarray(gram, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    # max and min propagate nan and +-inf, and form no n x n temporary.
    if not (math.isfinite(K.max(initial=0.0)) and math.isfinite(K.min(initial=0.0))):
        raise ValueError("matrix contains non-finite entries")
    # One row panel against the matching column panel, so each pair is compared once.
    for i in range(0, K.shape[0], _PANEL_ROWS):
        if not np.array_equal(K[i:i + _PANEL_ROWS, i:], K[i:, i:i + _PANEL_ROWS].T):
            raise ValueError("matrix is not exactly symmetric; symmetrize it first")
    return K


def _leading_eigh(K: np.ndarray, k: int):
    """The k algebraically largest pairs of K by block Krylov iteration (Musco & Musco 2015).

    The basis Q starts as the QR of a seeded n x (k + 10) Gaussian block and grows a block
    each step, up to n columns, where Rayleigh-Ritz on ``T = Q.T K Q`` is exact. T grows by
    the newest image's column, so no image is kept; the image's part W outside the basis
    gives the residuals (``K Q = Q T + W E.T``) and, by QR, Gram-Schmidt and QR, the next block.
    """
    n = K.shape[0]
    try:  # the start block comes from a fixed seed, so repeated calls agree bit for bit
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal((n, k + 10)))[0]
        T = np.empty((0, 0))
        while True:
            m = T.shape[0]  # Q[:, m:] is the newest block
            W = K @ Q[:, m:]
            C = Q.T @ W
            T = np.block([[T, C[:m]], [C[:m].T, C[m:]]])
            ritz, V = np.linalg.eigh(T)  # eigh reads one triangle of T
            tol = LEADING_K_TOLERANCE * max(ritz[-1], -ritz[0])  # |lambda_1| as the basis sees it
            if -ritz[0] > ritz[-k] + tol:
                raise ValueError("the leading-k eigensolver needs the k largest eigenvalues "
                                 "to dominate in magnitude; a negative eigenvalue competes")
            theta, V = ritz[:-k - 1:-1], V[:, :-k - 1:-1]  # the k largest, descending
            W -= Q @ C
            residual = np.linalg.norm(W @ V[m:], axis=0).max()  # of K u - theta u, u = Q v
            if residual <= tol:
                return theta, Q @ V
            if Q.shape[1] == n:
                raise EigensolverError(f"leading {k} eigenpairs not converged on all {n} columns: "
                                       f"residual {residual:.3g} above the stop {tol:.3g}")
            W = np.linalg.qr(W[:, :n - Q.shape[1]])[0]
            W = np.linalg.qr(W - Q @ (Q.T @ W))[0]  # the second Gram-Schmidt pass
            Q = np.hstack([Q, W])
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"leading-k eigensolver failed: {exc}") from exc


def eigendecompose(gram, k=None) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, descending order.

    Accepts any exactly symmetric square array, such as the result of
    :func:`~kernlr.kernels.gram_matrix`. With ``k=None`` all n pairs come
    from a dense ``eigh``. With an integer k in [1, n] only the leading k
    pairs are returned, a partial decomposition that :func:`_require_full`
    refuses: the first k of the dense path if k + 10 >= n, else those of
    :func:`_leading_eigh`, stopped once every kept pair has
    ``||K u - lambda u|| <= LEADING_K_TOLERANCE * |lambda_1|``. The leading-k
    mode raises ``ValueError`` when a negative eigenvalue outweighs the k-th.

    Raises :class:`EigensolverError` if a LAPACK call fails, or if the leading
    pairs have not converged on a basis of all n columns.
    """
    K = _as_symmetric(gram)
    if k is not None:
        k = _check_int(k, "k", 1, K.shape[0])
    if k is None or k + 10 >= K.shape[0]:
        try:
            w, U = np.linalg.eigh(K)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"symmetric eigensolver did not converge: {exc}") from exc
        w, U = w[::-1], U[:, ::-1]  # descending order as views of eigh's arrays
        if k is not None:  # copies, so the n x n eigenvectors are not kept alive
            w, U = w[:k].copy(), U[:, :k].copy()
    else:
        w, U = _leading_eigh(K, k)
    # Sign convention: largest-magnitude coordinate positive, first index wins
    # ties. Taken in place over column panels, so no n x n temporary sits beside U.
    for j in range(0, U.shape[1], _PANEL_ROWS):
        P = U[:, j:j + _PANEL_ROWS]
        lead = np.argmax(np.abs(P), axis=0)
        P *= np.where(P[lead, np.arange(P.shape[1])] < 0, -1.0, 1.0)
    return EigenDecomposition(eigenvalues=w, eigenvectors=U)


def truncate(eig: EigenDecomposition, d: int) -> np.ndarray:
    """Rank-d reconstruction: the sum of the first d eigenvalue/vector terms.

    d may not exceed the number of pairs held. Formed as ``P @ P.T - N @ N.T``,
    where P and N are the kept eigenvectors scaled by ``sqrt(max(w, 0))`` and
    ``sqrt(max(-w, 0))``; the second term is computed only if a kept
    eigenvalue is negative. Each product of one array
    with its own transpose goes through SYRK, which computes one triangle and
    copies it, so the result is symmetric bit for bit.
    """
    d = _check_int(d, "rank", 0, eig.eigenvalues.shape[0])
    w, U = eig.eigenvalues[:d], eig.eigenvectors[:, :d]
    B = U * np.sqrt(np.maximum(w, 0.0))
    T = B @ B.T
    if d and w[-1] < 0.0:  # w is descending, so a negative kept value sits at the end
        B = U * np.sqrt(np.maximum(-w, 0.0))
        T -= B @ B.T
    return T


def _max_entry_error(A: np.ndarray, B: np.ndarray, K: np.ndarray, ranks) -> np.ndarray:
    """``max |A[:, :d] @ B[:, :d].T - K|`` for each d of the sorted, non-empty ``ranks``.

    The one place a residual that need not be PSD is read (K and the products symmetric). It
    walks the upper triangle once in row panels, each started as the first rank's ``A[i:i+P, :d]
    @ B[i:, :d].T - K[i:i+P, i:]`` and updated by the product of each later rank interval, with
    a running max of |entry| per rank: n^2 max(ranks) flops and one panel alive at a time."""
    worst = np.zeros(len(ranks))
    for i in range(0, K.shape[0], _PANEL_ROWS):
        E = A[i:i + _PANEL_ROWS, :ranks[0]] @ B[i:, :ranks[0]].T
        E -= K[i:i + _PANEL_ROWS, i:]
        for j, (a, d) in enumerate(zip(ranks[:1] + ranks[:-1], ranks)):
            if d > a:
                E += A[i:i + _PANEL_ROWS, a:d] @ B[i:, a:d].T
            worst[j] = max(worst[j], E.max(), -E.min())
        del E  # so the next panel is not formed beside this one
    return worst


def _psd_max_entry_error(K: np.ndarray, eig: EigenDecomposition, ranks) -> np.ndarray:
    """``max_i |K_ii - sum_{l<d} w_l u_l(i)**2|`` at each sorted rank d, 0 at d = n: the paper's
    quantity, the largest |entry| of ``R = K - truncate(eig, d)`` if R is PSD (``R_ij**2 <= R_ii
    R_jj``). It reads diag(K) and the pairs held, full or leading-k, in O(n * max rank); a d above
    them raises ``ValueError``. PSD is the caller's premise: a ``gram_matrix`` result meets it up
    to round-off, and :func:`error_sweep` checks it for any other input."""
    ranks = [_check_int(d, "rank", 0, eig.eigenvalues.shape[0]) for d in ranks]
    w, U = eig.eigenvalues, eig.eigenvectors
    worst = np.zeros(len(ranks))  # rank n discards nothing, so its error is zero
    diagonal, done = np.diag(K).copy(), 0
    for i, d in enumerate(d for d in ranks if d < eig.n):  # ranks are sorted: a prefix
        V = U[:, done:d]
        diagonal -= np.einsum("ij,ij,j->i", V, V, w[done:d])
        worst[i], done = max(diagonal.max(), -diagonal.min()), d
    return worst


def _tails(eig: EigenDecomposition):
    """Statistics of the pairs ``w[d:]``, ``U[:, d:]`` discarded at each rank d = 0..n.

    This is the one place the discarded tail is read. It returns four arrays
    of length n + 1, each a suffix reduction added or maximised from the end,
    with entry n = 0 for the empty tail: the sum of ``w**2``, the max of
    ``|w|``, the sum of ``|w|`` and the max over columns of ``|u|``.
    """
    _require_full(eig)
    w, U = eig.eigenvalues, eig.eigenvectors

    def suffix(ufunc, x):
        return np.append(ufunc.accumulate(x[::-1])[::-1], 0.0)

    abs_w = np.abs(w)
    return (suffix(np.add, w * w), suffix(np.maximum, abs_w), suffix(np.add, abs_w),
            suffix(np.maximum, np.maximum(U.max(axis=0), -U.min(axis=0))))


def error_sweep(gram, eig: EigenDecomposition, ranks) -> RankSweepResult:
    """Residual error metrics of the rank-d truncation on a grid of ranks.

    * ``max_entry_error``: largest |entry| of the residual ``R = K - truncate(eig, d) =
      sum_{l>=d} w_l u_l u_l^T``; if R is PSD, its largest diagonal entry, read by
      :func:`_psd_max_entry_error`.
    * ``frobenius_error``, ``spectral_error``, ``tail_abs_sum`` and ``sup_norm_tail``: read at
      the requested ranks from :func:`_tails` (square root of the sum of ``w**2``, max of ``|w|``,
      sum of ``|w|``, max of ``|u|`` over the discarded pairs).

    Fallback: if ``max_i sum_{w_l<0} |w_l| u_l(i)**2 > n * eps * max|w|`` (judged at rank 0;
    later tails hold fewer negative values), the largest entry may lie off the diagonal, and one
    :func:`_max_entry_error` walk reads every rank's residual from ``(U[:, :d] * w[:d], U)``.
    Kernel Gram matrices are PSD up to round-off and never take it; indefinite ones do.

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
    squares, spectral, abs_sums, sup_norms = _tails(eig)
    k = np.count_nonzero(w >= 0.0)  # w is descending, so w[k:] holds its negative values
    negative = np.einsum("ij,ij,j->i", U[:, k:], U[:, k:], -w[k:])
    indefinite = negative.max(initial=0.0) > n * np.finfo(float).eps * np.abs(w).max(initial=0.0)
    kept = [d for d in ranks if d < n]  # ranks are sorted: a prefix
    if indefinite and kept:
        max_entry = np.zeros(len(ranks))  # rank n discards nothing, so its error is zero
        max_entry[:len(kept)] = _max_entry_error(U[:, :kept[-1]] * w[:kept[-1]], U, K, kept)
    else:
        max_entry = _psd_max_entry_error(K, eig, ranks)
    return RankSweepResult(max_entry, np.sqrt(squares[ranks]), spectral[ranks],
                           abs_sums[ranks], sup_norms[ranks])
