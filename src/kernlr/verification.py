"""Numerical checks of the spectral identities behind the error analysis.

Each check turns an exact statement about symmetric matrices or random
vectors into a measurable quantity:

* the principal-minor identity relating a squared eigenvector coordinate to
  the minor's spectrum,
* Cauchy interlacing between a matrix and its trailing principal minor,
* the ``sqrt(n) * sup-norm`` delocalisation statistic of tail eigenvectors,
* deviations of sample eigenvalues from an analytic spectrum, and
* a Monte Carlo tally of the concentration of the distance between a random
  vector and a subspace against its ``4 exp(-t^2 / 32)`` tail bound.

``CHECKS`` holds the experiments of ``kernlr verify`` and the acceptance suite:
each maps (seed, quick) to (statistic, threshold, detail) and passes when
statistic <= threshold. ``run_check`` runs one under the re-run rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import GaussianRbfSpectrum, exponential_decay, required_rank, tensor_spectrum
from .datasets import gaussian_synthetic
from .kernels import gram_matrix, rbf
from .spectral import (EigenDecomposition, _check_int, _check_real, _median, _tails,
                       eigendecompose)

MINOR_GAP_GUARD = 1e-6  # gaps below this times mean(|eigenvalue|) make the minor identity degenerate
TAIL_THRESHOLDS = (8.0, 10.0, 12.0, 16.0)  # the 4 exp(-t^2 / 32) bound means something for t >= 8
TAIL_BOUNDS = 4.0 * np.exp(-(np.array(TAIL_THRESHOLDS) ** 2) / 32.0)  # the bound at each threshold
TAIL_BOUNDS.setflags(write=False)
TRIALS_PER_SUBSPACE = 100


def _matrix_and_minor(gram):
    """K with the eigendecompositions of K and of its trailing principal minor ``K[1:, 1:]``."""
    K = np.asarray(gram, dtype=float)
    if K.shape[0] < 2:
        raise ValueError(f"the minor checks need n >= 2, got n = {K.shape[0]}")
    return K, eigendecompose(K), eigendecompose(K[1:, 1:])


@dataclass(frozen=True)
class MinorIdentityReport:
    """Worst relative discrepancy of the minor identity, with skipped indices."""

    max_discrepancy: float
    skipped: tuple[int, ...]


def minor_identity_check(gram) -> MinorIdentityReport:
    """Verify the identity tying u_l(1)^2 to the minor's spectrum.

    For each eigenvalue of K that stays at least ``MINOR_GAP_GUARD * mean(|eval|)``
    away from every minor eigenvalue, compare the first squared eigenvector
    coordinate with ``1 / (1 + sum_j (minor_eval_j - eval_l)^-2 (minor_evec_j . y)^2)``.
    The identity degenerates when eigenvalues of the matrix and its minor
    coincide, so such indices are skipped and reported, never silently
    dropped; the other n - len(skipped) are checked. The guard scales with
    the spectrum, so ``c * K`` with c > 0 skips what K skips, and a matrix
    with no index left to check raises ``ValueError``.
    """
    K, eig, minor = _matrix_and_minor(gram)
    proj = minor.eigenvectors.T @ K[1:, 0]  # (minor_evec_j . y), y the coupling column
    gaps = minor.eigenvalues - eig.eigenvalues[:, None]  # row l: minor spectrum minus eval_l
    skip = np.abs(gaps).min(axis=1) <= MINOR_GAP_GUARD * np.abs(eig.eigenvalues).mean()
    if skip.all():
        raise ValueError("the minor identity is degenerate at every index: no eigenvalue "
                         "gap exceeds MINOR_GAP_GUARD * mean(|eigenvalue|)")
    with np.errstate(divide="ignore", invalid="ignore"):  # only skipped rows divide by 0
        rhs = 1.0 / (1.0 + ((proj / gaps) ** 2).sum(axis=1))
    lhs = eig.eigenvectors[0] ** 2
    disc = np.abs(lhs - rhs) / np.maximum(lhs, 1e-12)
    return MinorIdentityReport(max_discrepancy=float(disc[~skip].max(initial=0.0)),
                               skipped=tuple(np.flatnonzero(skip).tolist()))


def interlacing_check(gram) -> float:
    """Largest violation of interlacing between K and its trailing minor, 0 when it holds.

    With both spectra descending, each minor eigenvalue must sit between the
    matrix eigenvalues of the same and the next position.
    """
    _, eig, minor = _matrix_and_minor(gram)
    w, v = eig.eigenvalues, minor.eigenvalues
    above = np.max(v - w[:-1], initial=0.0)   # minor exceeding lambda_i
    below = np.max(w[1:] - v, initial=0.0)    # minor below lambda_{i+1}
    return float(max(above, below, 0.0))


def delocalisation_report(eig: EigenDecomposition, d: int) -> float:
    """Scaled sup-norm ``sqrt(n) * max_{l > d} ||u_l||_inf`` of tail eigenvectors.

    Order one for delocalised tails; exactly ``sqrt(n)`` when some tail
    eigenvector is a coordinate vector (full localisation). The tail must be
    non-empty, 0 <= d < n, and ``eig`` must hold all n pairs.
    """
    d = _check_int(d, "rank", 0, eig.n - 1)
    return math.sqrt(eig.n) * float(_tails(eig)[3][d])


def eigenvalue_deviation_report(eig: EigenDecomposition, analytic) -> np.ndarray:
    """Relative deviations of the leading eigenvalues over n from the ``analytic`` ones.

    The read-only array holds ``|lambda_i / n - mu_i| / mu_i`` for the
    positive analytic values ``mu_i``, largest first, such as those of
    :func:`tensor_spectrum`. ``eig`` may be a leading-k decomposition holding
    at least ``len(analytic)`` pairs; n is the order of the matrix, ``eig.n``.
    The deviations carry no pass/fail judgement.
    """
    mu = np.asarray(analytic, dtype=float)
    count = _check_int(mu.size, "analytic length", 1, eig.eigenvalues.shape[0])
    if mu.ndim != 1 or not np.all((mu > 0.0) & (mu < np.inf)):
        raise ValueError("analytic must be a 1-D array of positive finite eigenvalues")
    deviation = np.abs(eig.eigenvalues[:count] / eig.n - mu) / mu
    deviation.setflags(write=False)
    return deviation


def _projection_norms(G: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Column norms ``||Q.T y||`` for an orthonormal basis Q of range(G), G of full column rank.

    With ``G.T @ G = L L.T``, ``Q = G L^-T`` is such a basis, so ``Q.T y = L^-1 G.T y``.
    """
    Z = np.linalg.solve(np.linalg.cholesky(G.T @ G), G.T @ Y)
    return np.sqrt((Z**2).sum(axis=0))


def subspace_distance_experiment(n: int, q: int, p0: float, trials: int, seed: int) -> np.ndarray:
    """Monte Carlo tail frequencies of ``| ||proj_H(y)|| - sigma sqrt(q) |``, read-only.

    ``y`` has i.i.d. Bernoulli(p0) entries, 1 with probability p0 and else 0,
    so sigma^2 = p0 (1 - p0). H is a random q-dimensional subspace orthogonal
    to the all-ones direction, so the projection of the mean vector is zero
    by construction and the concentration bound's alignment condition holds
    with room to spare. The q >= 64 / sigma^2 requirement is enforced. Each
    subspace serves a batch of ``TRIALS_PER_SUBSPACE`` trials: the tail bound
    holds conditionally on every admissible subspace, so batching leaves the
    per-trial guarantee intact and draws one n x q Gaussian matrix G per batch.

    The projection goes through the Cholesky factor L of the q x q matrix
    ``G.T @ G`` (one SYRK), ``||Q.T y|| = ||L^-1 G.T y||``; no orthonormal
    basis is formed. This squares the condition number, so the relative
    error of the norms is bounded by about ``eps * kappa(G)^2``, and a
    centered Gaussian G keeps kappa(G) small. Against a Householder QR, over
    20 seeds, the norms agree to 1e-15 relative at (n, q) = (1024, 256),
    where kappa(G) is about 3, and to 2e-10 even at q = n - 1, where
    kappa(G) reaches 2e4 (n = 257) and 7e4 (n = 1024).

    The frequencies are those at the thresholds ``TAIL_THRESHOLDS``, to be
    read against ``TAIL_BOUNDS``, the bound ``4 exp(-t^2 / 32)`` at each.
    """
    p0 = _check_real(p0, "p0", "(0, 1)")
    n = _check_int(n, "n", 2)
    q = _check_int(q, "q", 1, n - 1)
    trials, seed = _check_int(trials, "trials", 1), _check_int(seed, "seed", 0)
    variance = p0 * (1.0 - p0)
    q_min = 64.0 / variance
    if q < q_min:
        raise ValueError(
            f"subspace dimension q = {q} is below the required minimum "
            f"64 / sigma^2 = {q_min:g} for bernoulli({p0:g})"
        )

    t_grid = np.array(TAIL_THRESHOLDS)
    target = variance**0.5 * math.sqrt(q)

    counts = np.zeros(t_grid.shape[0])
    for batch_index, start in enumerate(range(0, trials, TRIALS_PER_SUBSPACE)):
        batch = min(TRIALS_PER_SUBSPACE, trials - start)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
        G = rng.standard_normal((n, q))
        G -= G.mean(axis=0)  # kill the mean direction
        Y = (rng.random((n, batch)) < p0).astype(float)
        dev = np.abs(_projection_norms(G, Y) - target)
        counts += (dev[None, :] >= t_grid[:, None]).sum(axis=1)

    frequencies = counts / trials
    frequencies.setflags(write=False)
    return frequencies


_SPEC1 = GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0)  # rbf(1) on 1-D N(0, 1) data


def _gauss1d_gram(n, seed):
    return gram_matrix(rbf(1.0), gaussian_synthetic(n, 1, sigma=1.0, seed=seed))


def _check_identity(seed, quick):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (10, 50):
        for _ in range(5 if quick else 10):
            G = rng.standard_normal((2 * n, n))
            K = G.T @ G / (2 * n)  # SYRK: symmetric bit for bit
            worst = max(worst, minor_identity_check(K).max_discrepancy)
    return worst, 1e-6, "PSD instances, n in (10, 50)"


def _check_interlacing(seed, quick):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (10, 100):
        for _ in range(5 if quick else 10):
            A = rng.standard_normal((n, n))
            K = (A + A.T) / 2.0
            worst = max(worst, interlacing_check(K))
    return worst, 1e-10, "symmetric instances, n in (10, 100)"


def _check_delocalisation(seed, quick):
    n = 500 if quick else 2000
    d = required_rank(n, exponential_decay(_SPEC1.beta))
    stat = delocalisation_report(eigendecompose(_gauss1d_gram(n, seed)), d)
    return stat, 10.0, f"rbf Gram, n={n}, d={d}"


def _check_subspace(seed, quick):
    trials = 2000 if quick else 10000
    frequencies = subspace_distance_experiment(n=1024, q=256, p0=0.5, trials=trials, seed=seed)
    excess = float(np.max(frequencies - TAIL_BOUNDS))
    detail = "freq vs bound at t=" + ",".join(f"{t:g}" for t in TAIL_THRESHOLDS)
    return excess, 0.0, detail


def _check_eigdev(seed, quick):
    n = 1000 if quick else 4000
    seeds = 3 if quick else 10
    analytic = tensor_spectrum(_SPEC1, 5)
    devs = []
    for i in range(seeds):
        eig = eigendecompose(_gauss1d_gram(n, seed + i), k=5)
        devs.append(eigenvalue_deviation_report(eig, analytic))
    worst = float(np.max(_median(np.array(devs), axis=0)))
    return worst, 0.1, f"n={n}, median over {seeds} seeds, top 5 eigenvalues"


CHECKS = {
    "identity": _check_identity,
    "interlacing": _check_interlacing,
    "delocalisation": _check_delocalisation,
    "subspace": _check_subspace,
    "eigdev": _check_eigdev,
}
_STATISTICAL = ("delocalisation", "subspace", "eigdev")


def run_check(name: str, seed: int, quick: bool) -> tuple[tuple, float | None]:
    """Run ``CHECKS[name]``; a failing statistical check gets exactly one re-run, at a fixed seed offset.

    Returns the row ``(name, statistic, threshold, passed, seed used, detail)``
    and the first run's statistic if the check was re-run, else None.
    """
    stat, threshold, detail = CHECKS[name](seed, quick)
    first = None
    if not stat <= threshold and name in _STATISTICAL:
        first, seed = stat, seed + 1000003
        stat, threshold, detail = CHECKS[name](seed, quick)
    return (name, stat, threshold, stat <= threshold, seed, detail), first
