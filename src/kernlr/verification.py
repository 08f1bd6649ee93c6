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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import GaussianRbfSpectrum, tensor_spectrum
from .spectral import EigenDecomposition, _readonly, eigendecompose, sup_norm_tail

MINOR_GAP_GUARD = 1e-6  # eigenvalue gaps below this make the minor identity degenerate
TAIL_THRESHOLDS = (8.0, 10.0, 12.0, 16.0)  # the 4 exp(-t^2 / 32) bound means something for t >= 8
TRIALS_PER_SUBSPACE = 100


@_readonly
class MinorDecomposition:
    """Corner entry, coupling column and eigensystem of the trailing minor."""

    corner: float
    coupling: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def minor_decomposition(gram) -> MinorDecomposition:
    """Split K into its (1,1) entry, first column tail, and decomposed minor."""
    K = np.asarray(gram, dtype=float)
    if K.shape[0] < 2:
        raise ValueError("minor decomposition needs n >= 2")
    minor_eig = eigendecompose(K[1:, 1:])
    return MinorDecomposition(
        corner=float(K[0, 0]),
        coupling=K[1:, 0].copy(),
        eigenvalues=minor_eig.eigenvalues,
        eigenvectors=minor_eig.eigenvectors,
    )


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
    K = np.asarray(gram, dtype=float)
    if K.shape[0] < 2:
        raise ValueError("minor identity needs n >= 2")
    eig = eigendecompose(K)
    minor = minor_decomposition(K)
    proj = minor.eigenvectors.T @ minor.coupling  # (minor_evec_j . y)

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


def interlacing_check(eig: EigenDecomposition, minor: MinorDecomposition) -> float:
    """Largest violation of minor-eigenvalue interlacing, 0 when it holds.

    With both spectra descending, each minor eigenvalue must sit between the
    matrix eigenvalues of the same and the next position.
    """
    w = eig.eigenvalues
    v = minor.eigenvalues
    if v.shape[0] != w.shape[0] - 1:
        raise ValueError(f"minor has {v.shape[0]} eigenvalues, expected {w.shape[0] - 1}")
    above = np.max(v - w[:-1], initial=0.0)   # minor exceeding lambda_i
    below = np.max(w[1:] - v, initial=0.0)    # minor below lambda_{i+1}
    return float(max(above, below, 0.0))


def delocalisation_report(eig: EigenDecomposition, d: int) -> float:
    """Scaled sup-norm ``sqrt(n) * max_{l > d} ||u_l||_inf`` of tail eigenvectors.

    Order one for delocalised tails; exactly ``sqrt(n)`` when some tail
    eigenvector is a coordinate vector (full localisation).
    """
    return math.sqrt(eig.n) * sup_norm_tail(eig, d)


@_readonly
class EigenvalueDeviationReport:
    """Per-index deviation of sample eigenvalues (scaled by 1/n) from analytic ones."""

    indices: np.ndarray
    sample: np.ndarray
    analytic: np.ndarray
    abs_deviation: np.ndarray
    rel_deviation: np.ndarray


def eigenvalue_deviation_report(eigenvalues, spectrum: GaussianRbfSpectrum, count: int) -> EigenvalueDeviationReport:
    """Compare the top sample eigenvalues over n against the analytic spectrum.

    ``eigenvalues`` is a full descending sample spectrum (or an
    :class:`EigenDecomposition`); the report carries deviations only, with no
    pass/fail judgement.
    """
    if isinstance(eigenvalues, EigenDecomposition):
        eigenvalues = eigenvalues.eigenvalues
    w = np.asarray(eigenvalues, dtype=float)
    if w.ndim != 1:
        raise ValueError("expected a 1-d array of eigenvalues")
    n = w.shape[0]
    if not 1 <= count <= n:
        raise ValueError(f"count must lie in [1, {n}], got {count!r}")
    analytic = tensor_spectrum(spectrum, int(count))
    sample = w[: int(count)] / n
    abs_dev = np.abs(sample - analytic)
    return EigenvalueDeviationReport(
        indices=np.arange(1, int(count) + 1),
        sample=sample,
        analytic=analytic,
        abs_deviation=abs_dev,
        rel_deviation=abs_dev / analytic,
    )


@dataclass(frozen=True)
class EntryLaw:
    """An i.i.d. entry distribution supported on [0, 1]."""

    name: str
    mean: float
    variance: float
    sample: Callable[[np.random.Generator, tuple], np.ndarray]


def bernoulli(p0: float) -> EntryLaw:
    """Entries equal to 1 with probability p0, else 0."""
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"bernoulli parameter must lie in (0, 1), got {p0!r}")
    return EntryLaw(
        name=f"bernoulli({p0:g})",
        mean=p0,
        variance=p0 * (1.0 - p0),
        sample=lambda rng, shape: (rng.random(shape) < p0).astype(float),
    )


def uniform01() -> EntryLaw:
    """Entries uniform on [0, 1]."""
    return EntryLaw(
        name="uniform01",
        mean=0.5,
        variance=1.0 / 12.0,
        sample=lambda rng, shape: rng.random(shape),
    )


def scaled(lo: float, hi: float) -> EntryLaw:
    """Entries uniform on a subinterval [lo, hi] of [0, 1]."""
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"need 0 <= lo < hi <= 1, got lo={lo!r}, hi={hi!r}")
    return EntryLaw(
        name=f"scaled({lo:g},{hi:g})",
        mean=(lo + hi) / 2.0,
        variance=(hi - lo) ** 2 / 12.0,
        sample=lambda rng, shape: lo + (hi - lo) * rng.random(shape),
    )


@_readonly
class TailFrequencyReport:
    """Empirical tail frequencies of the projection-distance statistic vs bound."""

    thresholds: np.ndarray
    frequencies: np.ndarray
    bounds: np.ndarray
    trials: int
    n: int
    q: int
    sigma2: float
    seed: int


def subspace_distance_experiment(n: int, q: int, law: EntryLaw, trials: int, seed: int) -> TailFrequencyReport:
    """Monte Carlo tail frequencies of ``| ||proj_H(y)|| - sigma sqrt(q) |``.

    ``y`` has i.i.d. entries from ``law`` and H is a random q-dimensional
    subspace orthogonal to the all-ones direction, so the projection of the
    mean vector is zero by construction and the concentration bound's
    alignment condition holds with room to spare. The q >= 64 / sigma^2
    requirement is enforced. Each subspace serves a batch of
    ``TRIALS_PER_SUBSPACE`` trials: the tail bound holds conditionally
    on every admissible subspace, so batching leaves the per-trial guarantee
    intact while keeping the orthonormalization cost manageable.

    Frequencies are reported at the thresholds ``TAIL_THRESHOLDS``; the
    theoretical comparison value at threshold t is ``4 exp(-t^2 / 32)``.
    """
    if n < 2 or q < 1 or q >= n:
        raise ValueError(f"need 1 <= q < n with n >= 2, got n={n!r}, q={q!r}")
    q_min = 64.0 / law.variance
    if q < q_min:
        raise ValueError(
            f"subspace dimension q = {q} is below the required minimum "
            f"64 / sigma^2 = {q_min:g} for {law.name}"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")

    t_grid = np.array(TAIL_THRESHOLDS)
    target = law.variance**0.5 * math.sqrt(q)
    ones = np.full(n, 1.0 / math.sqrt(n))

    counts = np.zeros(t_grid.shape[0])
    done = 0
    batch_index = 0
    while done < trials:
        batch = min(TRIALS_PER_SUBSPACE, trials - done)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
        G = rng.standard_normal((n, q))
        G -= np.outer(ones, ones @ G)  # kill the mean direction before orthonormalizing
        Q, _ = np.linalg.qr(G, mode="reduced")
        Y = law.sample(rng, (n, batch))
        norms = np.sqrt(((Q.T @ Y) ** 2).sum(axis=0))
        dev = np.abs(norms - target)
        counts += (dev[None, :] >= t_grid[:, None]).sum(axis=1)
        done += batch
        batch_index += 1

    return TailFrequencyReport(
        thresholds=t_grid,
        frequencies=counts / trials,
        bounds=4.0 * np.exp(-(t_grid**2) / 32.0),
        trials=int(trials),
        n=int(n),
        q=int(q),
        sigma2=law.variance,
        seed=int(seed),
    )
