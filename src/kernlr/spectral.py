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

from .errors import CapabilityError, EigensolverError

_PANEL_ROWS = 32  # rows (or columns) per panel wherever an n x n array is walked in panels
LEADING_K_ITERATION_CAP = 50  # subspace iterations before the leading-k mode gives up
LEADING_K_TOLERANCE = 1e-12  # stop when every kept residual is below this times |lambda_1|


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
    """Raise ``CapabilityError`` unless ``eig`` holds all n pairs.

    The discarded tail of a leading-k decomposition is unknown, so nothing
    that reads it (the tail statistics, the error sweep, the PSD root) may
    run on one.
    """
    if eig.eigenvalues.shape[0] < eig.n:
        raise CapabilityError(f"needs the full decomposition, got the leading "
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
    """The k algebraically largest pairs of K by randomized subspace iteration.

    Halko, Martinsson & Tropp (2011), Alg. 4.4, with a Rayleigh-Ritz step:
    from the Householder QR of a seeded n x b Gaussian block Q, b = 2k + 5,
    each iteration forms ``Y = K Q``, takes the Ritz pairs from the ``eigh``
    of ``Q.T Y`` and moves on to ``Q = qr(Y)``. KQ is ill-conditioned by
    design, so Q comes from Householder QR and never from a Cholesky factor.
    """
    try:  # the start block comes from a fixed seed, so repeated calls agree bit for bit
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal((K.shape[0], 2 * k + 5)))[0]
        for _ in range(LEADING_K_ITERATION_CAP):
            Y = K @ Q
            ritz, V = np.linalg.eigh(Q.T @ Y)  # eigh reads one triangle of Q.T K Q
            scale = max(ritz[-1], -ritz[0])  # |lambda_1| as the block sees it
            tol = LEADING_K_TOLERANCE * scale
            if -ritz[0] > ritz[-k] + tol:
                raise CapabilityError("the leading-k eigensolver needs the k largest eigenvalues "
                                      "to dominate in magnitude; a negative eigenvalue competes")
            theta, V = ritz[:-k - 1:-1], V[:, :-k - 1:-1]  # the k largest, descending
            U = Q @ V
            R = Y @ V  # K u - theta u for each kept pair, as Y V - U theta
            R -= U * theta
            residual = np.sqrt(np.einsum("ij,ij->j", R, R)).max()
            if residual <= tol:
                return theta, U
            Q = np.linalg.qr(Y)[0]
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"leading-k eigensolver failed: {exc}") from exc
    # Each iteration shrinks the residual by about |lambda_{b+1}| / lambda_k,
    # which the block's smallest-magnitude Ritz value over theta_k estimates.
    raise EigensolverError(f"leading {k} eigenpairs not converged in {LEADING_K_ITERATION_CAP} "
                           f"subspace iterations: largest residual {residual / scale:.3g} x |lambda_1|"
                           f" (stop at {LEADING_K_TOLERANCE:g}), convergence factor "
                           f"{np.abs(ritz).min() / theta[-1]:.4f}; k=None gives the full "
                           "decomposition, which does not iterate")


def eigendecompose(gram, k=None) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, descending order.

    Accepts any exactly symmetric square array, such as the result of
    :func:`~kernlr.kernels.gram_matrix`. With ``k=None`` all n pairs come
    from a dense ``eigh``. With an integer k in [1, n] only the leading k
    pairs are returned, a partial decomposition that :func:`_require_full`
    refuses. They come from :func:`_leading_eigh` with a block of
    b = min(n, 2k + 5) columns, stopped once every kept pair has
    ``||K u - lambda u|| <= LEADING_K_TOLERANCE * |lambda_1|``; when b = n
    they are the first k pairs of the dense path. The block converges onto
    the eigenvalues of largest magnitude, so the leading-k mode raises
    :class:`CapabilityError` when a negative eigenvalue outweighs the k-th.

    Raises :class:`EigensolverError` if ``eigh`` fails, or if the leading
    pairs have not converged after ``LEADING_K_ITERATION_CAP`` iterations.
    """
    K = _as_symmetric(gram)
    if k is not None:
        k = _check_int(k, "k", 1, K.shape[0])
    if k is None or 2 * k + 5 >= K.shape[0]:
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

    * ``max_entry_error``: largest absolute entry of the residual
      ``R = K - truncate(eig, d) = sum_{l>=d} w_l u_l u_l^T``. If R is PSD, its 2x2
      principal minors are >= 0, so ``R_ij**2 <= R_ii R_jj``: the answer is the
      largest ``R_ii = sum_{l>=d} w_l u_l(i)**2``, the paper's quantity. The
      diagonal starts at ``diag(K)`` and loses ``sum_l w_l u_l(i)**2`` over each
      interval ``[a, b)`` between requested ranks, O(n * max rank) in all.
    * ``frobenius_error``, ``spectral_error``, ``tail_abs_sum`` and
      ``sup_norm_tail``: read at the requested ranks from the suffix tables
      of :func:`_tails` (the square root of the sum of ``w**2``, the max of
      ``|w|``, the sum of ``|w|``, the max of ``|u|`` over the discarded pairs).

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
    squares, spectral, abs_sums, sup_norms = _tails(eig)
    k = np.count_nonzero(w >= 0.0)  # w is descending, so w[k:] holds its negative values
    negative = np.einsum("ij,ij,j->i", U[:, k:], U[:, k:], -w[k:])
    dense = negative.max(initial=0.0) > n * np.finfo(float).eps * np.abs(w).max(initial=0.0)
    R = K.copy() if dense else np.diag(K).copy()
    max_entry = np.zeros(len(ranks))  # rank n discards nothing, so its error is zero
    done = 0
    for i, d in enumerate(d for d in ranks if d < n):  # ranks are sorted: a prefix
        if d > done:
            V = U[:, done:d]
            R -= (V * w[done:d]) @ V.T if dense else np.einsum("ij,ij,j->i", V, V, w[done:d])
            done = d
        max_entry[i] = max(R.max(), -R.min())
    return RankSweepResult(max_entry, np.sqrt(squares[ranks]), spectral[ranks],
                           abs_sums[ranks], sup_norms[ranks])
