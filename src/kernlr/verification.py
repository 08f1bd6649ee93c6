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
from typing import Callable

import numpy as np

from .analytic import GaussianRbfSpectrum, exponential_decay, required_rank, tensor_spectrum
from .datasets import gaussian_synthetic
from .kernels import gram_matrix, rbf
from .spectral import (EigenDecomposition, _check_int, _check_real, _median, _readonly, _tails,
                       eigendecompose)

MINOR_GAP_GUARD = 1e-6  # eigenvalue gaps below this make the minor identity degenerate
TAIL_THRESHOLDS = (8.0, 10.0, 12.0, 16.0)  # the 4 exp(-t^2 / 32) bound means something for t >= 8
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
    checked: int
    skipped: tuple[int, ...]


def minor_identity_check(gram) -> MinorIdentityReport:
    """Verify the identity tying u_l(1)^2 to the minor's spectrum.

    For each eigenvalue of K that stays at least ``MINOR_GAP_GUARD`` away from
    every minor eigenvalue, compare the first squared eigenvector coordinate with
    ``1 / (1 + sum_j (minor_eval_j - eval_l)^-2 (minor_evec_j . y)^2)``. The
    identity degenerates when eigenvalues of the matrix and its minor
    coincide, so such indices are skipped and reported, never silently
    dropped.
    """
    K, eig, minor = _matrix_and_minor(gram)
    proj = minor.eigenvectors.T @ K[1:, 0]  # (minor_evec_j . y), y the coupling column

    worst = 0.0
    skipped = []
    checked = 0
    for l in range(eig.n):
        gaps = minor.eigenvalues - eig.eigenvalues[l]
        if np.abs(gaps).min() < MINOR_GAP_GUARD:
            skipped.append(l)
            continue
        rhs = 1.0 / (1.0 + float(np.sum((proj / gaps) ** 2)))
        lhs = float(eig.eigenvectors[0, l] ** 2)
        worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-12))
        checked += 1
    return MinorIdentityReport(max_discrepancy=worst, checked=checked, skipped=tuple(skipped))


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
    non-empty, d < n, and ``eig`` must hold all n pairs.
    """
    d = _check_int(d, "rank", 0, eig.n)
    if d == eig.n:
        raise ValueError(f"need 0 <= d < n={eig.n} (the tail must be non-empty), got {d}")
    return math.sqrt(eig.n) * float(_tails(eig)[3][d])


@_readonly
class EigenvalueDeviationReport:
    """Deviation of the top sample eigenvalues (scaled by 1/n), largest first, from analytic ones."""

    sample: np.ndarray
    analytic: np.ndarray
    rel_deviation: np.ndarray


def eigenvalue_deviation_report(eig: EigenDecomposition, spectrum: GaussianRbfSpectrum,
                                count: int) -> EigenvalueDeviationReport:
    """Compare the top ``count`` sample eigenvalues over n against the analytic spectrum.

    ``eig`` may be a leading-k decomposition holding at least ``count``
    pairs; n is the order of the matrix, ``eig.n``. The report carries
    deviations only, with no pass/fail judgement.
    """
    count = _check_int(count, "count", 1, eig.eigenvalues.shape[0])
    analytic = tensor_spectrum(spectrum, count)
    sample = eig.eigenvalues[:count] / eig.n
    return EigenvalueDeviationReport(sample=sample, analytic=analytic,
                                     rel_deviation=np.abs(sample - analytic) / analytic)


@dataclass(frozen=True)
class EntryLaw:
    """An i.i.d. entry distribution supported on [0, 1]."""

    name: str
    variance: float
    sample: Callable[[np.random.Generator, tuple], np.ndarray]


def bernoulli(p0: float) -> EntryLaw:
    """Entries equal to 1 with probability p0, else 0."""
    p0 = _check_real(p0, "bernoulli parameter p0", "(0, 1)")
    return EntryLaw(
        name=f"bernoulli({p0:g})",
        variance=p0 * (1.0 - p0),
        sample=lambda rng, shape: (rng.random(shape) < p0).astype(float),
    )


@_readonly
class TailFrequencyReport:
    """Empirical tail frequencies of the projection-distance statistic vs bound."""

    thresholds: np.ndarray
    frequencies: np.ndarray
    bounds: np.ndarray


def _projection_norms(G: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Column norms ``||Q.T y||`` for an orthonormal basis Q of range(G), G of full column rank.

    With ``G.T @ G = L L.T``, ``Q = G L^-T`` is such a basis, so ``Q.T y = L^-1 G.T y``.
    """
    Z = np.linalg.solve(np.linalg.cholesky(G.T @ G), G.T @ Y)
    return np.sqrt((Z**2).sum(axis=0))


def subspace_distance_experiment(n: int, q: int, law: EntryLaw, trials: int, seed: int) -> TailFrequencyReport:
    """Monte Carlo tail frequencies of ``| ||proj_H(y)|| - sigma sqrt(q) |``.

    ``y`` has i.i.d. entries from ``law`` and H is a random q-dimensional
    subspace orthogonal to the all-ones direction, so the projection of the
    mean vector is zero by construction and the concentration bound's
    alignment condition holds with room to spare. The q >= 64 / sigma^2
    requirement is enforced. Each subspace serves a batch of
    ``TRIALS_PER_SUBSPACE`` trials: the tail bound holds conditionally
    on every admissible subspace, so batching leaves the per-trial guarantee
    intact and draws one n x q Gaussian matrix G per batch.

    The projection goes through the Cholesky factor L of the q x q matrix
    ``G.T @ G`` (one SYRK), ``||Q.T y|| = ||L^-1 G.T y||``; no orthonormal
    basis is formed. This squares the condition number, so the relative
    error of the norms is bounded by about ``eps * kappa(G)^2``, and a
    centered Gaussian G keeps kappa(G) small. Against a Householder QR, over
    20 seeds, the norms agree to 1e-15 relative at (n, q) = (1024, 256),
    where kappa(G) is about 3, and to 2e-10 even at q = n - 1, where
    kappa(G) reaches 2e4 (n = 257) and 7e4 (n = 1024).

    Frequencies are reported at the thresholds ``TAIL_THRESHOLDS``; the
    theoretical comparison value at threshold t is ``4 exp(-t^2 / 32)``.
    """
    n = _check_int(n, "n", 2)
    q = _check_int(q, "q", 1, n - 1)
    trials = _check_int(trials, "trials", 1)
    q_min = 64.0 / law.variance
    if q < q_min:
        raise ValueError(
            f"subspace dimension q = {q} is below the required minimum "
            f"64 / sigma^2 = {q_min:g} for {law.name}"
        )

    t_grid = np.array(TAIL_THRESHOLDS)
    target = law.variance**0.5 * math.sqrt(q)

    counts = np.zeros(t_grid.shape[0])
    for batch_index, start in enumerate(range(0, trials, TRIALS_PER_SUBSPACE)):
        batch = min(TRIALS_PER_SUBSPACE, trials - start)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
        G = rng.standard_normal((n, q))
        G -= G.mean(axis=0)  # kill the mean direction
        Y = law.sample(rng, (n, batch))
        dev = np.abs(_projection_norms(G, Y) - target)
        counts += (dev[None, :] >= t_grid[:, None]).sum(axis=1)

    return TailFrequencyReport(
        thresholds=t_grid,
        frequencies=counts / trials,
        bounds=4.0 * np.exp(-(t_grid**2) / 32.0),
    )


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
    report = subspace_distance_experiment(n=1024, q=256, law=bernoulli(0.5), trials=trials, seed=seed)
    excess = float(np.max(report.frequencies - report.bounds))
    detail = "freq vs bound at t=" + ",".join(f"{t:g}" for t in report.thresholds)
    return excess, 0.0, detail


def _check_eigdev(seed, quick):
    n = 1000 if quick else 4000
    seeds = 3 if quick else 10
    devs = []
    for i in range(seeds):
        eig = eigendecompose(_gauss1d_gram(n, seed + i), k=5)
        devs.append(eigenvalue_deviation_report(eig, _SPEC1, count=5).rel_deviation)
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
