"""Closed-form kernel eigen-systems, decay hypotheses, tail bounds and rates.

Two analytic settings are covered:

* the squared-exponential kernel under an isotropic Gaussian measure, whose
  eigenvalues form a geometric sequence and whose eigenfunctions are weighted
  Hermite polynomials, and
* dot-product kernels under the uniform measure on a hypersphere, for which
  only the decay-rate parameters and harmonic multiplicities are needed.

From a decay hypothesis (polynomial ``i**-alpha`` or stretched-exponential
``exp(-beta * i**gamma)``) the module derives the rank required for entrywise
consistency and the predicted max-entry error rate of the truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gamma as gamma_fn

from .errors import CapabilityError, HypothesisError

HERMITE_ORDER_CAP = 60


@dataclass(frozen=True)
class GaussianRbfSpectrum:
    """Spectrum of the squared-exponential kernel under N(0, sigma^2 I_p).

    The univariate (p = 1) eigenvalues are ``base * ratio**i`` for i >= 0;
    for p > 1 the spectrum is the p-fold tensor product of the univariate one
    (see :func:`tensor_spectrum`). ``upsilon = 2 sigma^2 / omega^2`` is the
    data-scale to bandwidth ratio that every derived quantity depends on.
    """

    sigma: float
    bandwidth: float
    p: int = 1

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be a positive real, got {self.sigma!r}")
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ValueError(f"bandwidth must be a positive real, got {self.bandwidth!r}")
        if self.p < 1 or self.p != int(self.p):
            raise ValueError(f"dimension p must be an integer >= 1, got {self.p!r}")

    @property
    def upsilon(self) -> float:
        return 2.0 * self.sigma**2 / self.bandwidth**2

    @property
    def ratio(self) -> float:
        """Geometric ratio of consecutive univariate eigenvalues, in (0, 1)."""
        u = self.upsilon
        return u / (1.0 + u + math.sqrt(1.0 + 2.0 * u))

    @property
    def base(self) -> float:
        """Leading univariate eigenvalue."""
        u = self.upsilon
        return math.sqrt(2.0 / (1.0 + u + math.sqrt(1.0 + 2.0 * u)))

    @property
    def beta(self) -> float:
        return beta_from_upsilon(self.upsilon)


def beta_from_upsilon(upsilon: float) -> float:
    """Exponential decay rate ``log((1 + u + sqrt(1 + 2u)) / u)`` of the spectrum.

    Equals ``-log(ratio)``: eigenvalues decay like ``exp(-beta * i)``.
    """
    if not (upsilon > 0 and math.isfinite(upsilon)):
        raise ValueError(f"upsilon must be a positive real, got {upsilon!r}")
    return math.log((1.0 + upsilon + math.sqrt(1.0 + 2.0 * upsilon)) / upsilon)


def gaussian_rbf_eigenvalue(i: int, spec: GaussianRbfSpectrum) -> float:
    """Univariate eigenvalue ``base * ratio**i``, i >= 0. Requires p = 1."""
    if spec.p != 1:
        raise ValueError("univariate eigenvalues require p = 1; use tensor_spectrum for p > 1")
    if i < 0 or i != int(i):
        raise ValueError(f"index must be an integer >= 0, got {i!r}")
    return spec.base * spec.ratio ** int(i)


def _hermite_normalized(i: int, t: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial H_i(t) / sqrt(2^i i!).

    The normalization is folded into the three-term recurrence so no factorial
    is ever formed.
    """
    h_prev = np.ones_like(t)
    if i == 0:
        return h_prev
    h = math.sqrt(2.0) * t
    for k in range(1, i):
        h, h_prev = math.sqrt(2.0 / (k + 1)) * t * h - math.sqrt(k / (k + 1.0)) * h_prev, h
    return h


def gaussian_rbf_eigenfunction(i: int, x, spec: GaussianRbfSpectrum):
    """Univariate eigenfunction, orthonormal in L2 of N(0, sigma^2). Requires p = 1.

    The value is ``(1 + 2u)**(1/8) * exp(-x^2 (sqrt(1 + 2u) - 1) / (4 sigma^2))
    * h_i(((1 + 2u) / 4)**(1/4) * x / sigma)`` with ``u`` the bandwidth ratio
    ``upsilon`` and ``h_i`` the normalized Hermite polynomial. Orders above
    ``HERMITE_ORDER_CAP`` (60) are refused: beyond that the evaluation leaves
    the range where double precision keeps the normalization honest.
    """
    if spec.p != 1:
        raise ValueError("univariate eigenfunctions require p = 1")
    if i < 0 or i != int(i):
        raise ValueError(f"index must be an integer >= 0, got {i!r}")
    if i > HERMITE_ORDER_CAP:
        raise CapabilityError(f"eigenfunction order {i} exceeds the supported cap {HERMITE_ORDER_CAP}")
    x = np.asarray(x, dtype=float)
    u = spec.upsilon
    root = math.sqrt(1.0 + 2.0 * u)
    t = (0.25 + 0.5 * u) ** 0.25 * x / spec.sigma
    envelope = np.exp(-(x * x) * (root - 1.0) / (4.0 * spec.sigma**2))
    value = (1.0 + 2.0 * u) ** 0.125 * envelope * _hermite_normalized(int(i), t)
    return value if value.ndim else float(value)


def weighted_hermite(i: int, t):
    """Gaussian-weighted normalized Hermite value ``exp(-t^2) H_i(t) / sqrt(2^i i!)``.

    Classically bounded by 1.09 uniformly in both the order and the argument,
    which is what keeps the normalized recurrence overflow-free. Note the
    eigenfunctions themselves are *not* uniformly bounded over orders: their
    envelope ``exp(-x^2 (sqrt(1+2u) - 1) / (4 sigma^2))`` decays more slowly
    than this full Gaussian weight, so their sup norm grows with the order
    (geometrically, at a rate below half the eigenvalue decay rate).
    """
    if i < 0 or i != int(i):
        raise ValueError(f"order must be an integer >= 0, got {i!r}")
    t = np.asarray(t, dtype=float)
    value = np.exp(-t * t) * _hermite_normalized(int(i), t)
    return value if value.ndim else float(value)


def tensor_spectrum(spec: GaussianRbfSpectrum, count: int) -> np.ndarray:
    """The ``count`` largest p-variate eigenvalues, descending, multiplicity expanded.

    A multi-index of total degree i contributes ``base**p * ratio**i``; the
    number of such multi-indices is ``C(i + p - 1, p - 1)``.
    """
    if count < 1 or count != int(count):
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    count = int(count)
    level = spec.base**spec.p
    out: list[float] = []
    degree = 0
    while len(out) < count:
        mult = math.comb(degree + spec.p - 1, spec.p - 1)
        out.extend([level] * min(mult, count - len(out)))
        level *= spec.ratio
        degree += 1
    return np.array(out)


def sphere_harmonic_count(degree: int, p: int) -> int:
    """Number of spherical harmonics of a given degree on the sphere in R^p.

    Exact integer arithmetic: ``(2l + p - 2) / l * C(l + p - 3, p - 2)`` for
    l >= 1, and 1 for the constant harmonic l = 0.
    """
    if degree < 0 or degree != int(degree):
        raise ValueError(f"degree must be an integer >= 0, got {degree!r}")
    if p < 3 or p != int(p):
        raise ValueError(f"ambient dimension p must be an integer >= 3, got {p!r}")
    degree, p = int(degree), int(p)
    if degree == 0:
        return 1
    num = (2 * degree + p - 2) * math.comb(degree + p - 3, p - 2)
    return num // degree


@dataclass(frozen=True)
class SphereSpectrumParams:
    """Decay of a dot-product kernel's coefficients on the sphere in R^p.

    Exactly one of ``coefficient_decay`` (coefficients ``b_i = O(i**-a)``) or
    ``geometric_ratio`` (``b_i = O(r**i)``, 0 < r < 1) must be given. The
    polynomial case requires ``a > (p^2 - 4p + 5) / 2``.
    """

    p: int
    coefficient_decay: float | None = None
    geometric_ratio: float | None = None

    def __post_init__(self):
        if self.p < 3 or self.p != int(self.p):
            raise ValueError(f"sphere setting needs integer p >= 3, got {self.p!r}")
        if (self.coefficient_decay is None) == (self.geometric_ratio is None):
            raise ValueError("give exactly one of coefficient_decay or geometric_ratio")
        if self.coefficient_decay is not None:
            floor = (self.p**2 - 4 * self.p + 5) / 2.0
            if not self.coefficient_decay > floor:
                raise HypothesisError(
                    f"coefficient decay a = {self.coefficient_decay} must exceed "
                    f"(p^2 - 4p + 5)/2 = {floor} for p = {self.p}"
                )
        else:
            if not 0.0 < self.geometric_ratio < 1.0:
                raise ValueError(f"geometric ratio must lie in (0, 1), got {self.geometric_ratio!r}")


@dataclass(frozen=True)
class DecayHypothesis:
    """Eigenvalue/eigenfunction decay hypothesis, kind 'P' or 'E'.

    'P': eigenvalues ``O(i**-alpha)`` with sup-norm growth ``O(i**r)``,
    admissible when ``alpha > 2r + 1``. 'E': eigenvalues
    ``O(exp(-beta i**gamma))`` with sup-norm growth ``O(exp(s i**gamma))``,
    admissible when ``beta > 2s`` and ``0 < gamma <= 1``.
    """

    kind: str
    alpha: float | None = None
    r: float = 0.0
    beta: float | None = None
    gamma: float | None = None
    s: float = 0.0

    def __post_init__(self):
        if self.kind == "P":
            if self.alpha is None or not self.alpha > 1:
                raise HypothesisError(f"polynomial decay needs alpha > 1, got {self.alpha!r}")
            if self.r < 0:
                raise HypothesisError(f"sup-norm exponent r must be >= 0, got {self.r!r}")
            if not self.alpha > 2 * self.r + 1:
                raise HypothesisError(
                    f"admissibility alpha > 2r + 1 fails: alpha = {self.alpha}, r = {self.r}"
                )
        elif self.kind == "E":
            if self.beta is None or not self.beta > 0:
                raise HypothesisError(f"exponential decay needs beta > 0, got {self.beta!r}")
            if self.gamma is None or not 0 < self.gamma <= 1:
                raise HypothesisError(f"gamma must lie in (0, 1], got {self.gamma!r}")
            if self.s < 0:
                raise HypothesisError(f"sup-norm exponent s must be >= 0, got {self.s!r}")
            if not self.beta > 2 * self.s:
                raise HypothesisError(f"admissibility beta > 2s fails: beta = {self.beta}, s = {self.s}")
        else:
            raise ValueError(f"hypothesis kind must be 'P' or 'E', got {self.kind!r}")


def polynomial_decay(alpha: float, r: float = 0.0) -> DecayHypothesis:
    return DecayHypothesis(kind="P", alpha=float(alpha), r=float(r))


def exponential_decay(beta: float, gamma: float = 1.0, s: float = 0.0) -> DecayHypothesis:
    return DecayHypothesis(kind="E", beta=float(beta), gamma=float(gamma), s=float(s))


def sphere_decay_hypothesis(params: SphereSpectrumParams, constant: float = 1.0) -> DecayHypothesis:
    """Decay hypothesis implied by a dot-product kernel on the sphere.

    Polynomially decaying coefficients give the 'P' hypothesis with
    ``alpha = (2a + p - 3) / (p - 2)`` and sup-norm exponent ``r = (p - 2) / 2``
    (the harmonic sup-norm bound). Geometrically decaying coefficients give
    the 'E' hypothesis with ``gamma = 1 / (p - 1)`` and
    ``beta = (p - 1)! * log(1 / r) / constant``; the universal constant is a
    caller-supplied convention, default 1.
    """
    p = params.p
    if params.coefficient_decay is not None:
        alpha = (2.0 * params.coefficient_decay + p - 3.0) / (p - 2.0)
        return DecayHypothesis(kind="P", alpha=alpha, r=(p - 2.0) / 2.0)
    if not constant > 0:
        raise ValueError(f"constant must be positive, got {constant!r}")
    beta = math.factorial(p - 1) * math.log(1.0 / params.geometric_ratio) / constant
    return DecayHypothesis(kind="E", beta=beta, gamma=1.0 / (p - 1.0))


def poly_tail_bound(d: int, alpha: float) -> float:
    """Upper bound ``d**(1 - alpha) / (alpha - 1)`` on the tail sum of ``i**-alpha``.

    Integral comparison: the sum over i > d is at most the integral from d.
    """
    if d < 1 or d != int(d):
        raise ValueError(f"d must be an integer >= 1, got {d!r}")
    if not alpha > 1:
        raise ValueError(f"tail of i**-alpha diverges unless alpha > 1, got {alpha!r}")
    return float(d) ** (1.0 - alpha) / (alpha - 1.0)


def exp_tail_bound(d: int, beta: float, gamma: float) -> float:
    """Upper bound on the tail sum of ``exp(-beta * i**gamma)`` over i > d.

    Integral comparison again: the bound is the exact integral from d, which
    substitutes into an upper incomplete gamma function,
    ``beta**(-1/gamma) / gamma * Gamma(1/gamma, beta * d**gamma)``. For
    gamma = 1 this reduces to ``exp(-beta d) / beta``.
    """
    if d < 1 or d != int(d):
        raise ValueError(f"d must be an integer >= 1, got {d!r}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma!r}")
    s = 1.0 / gamma
    x = beta * float(d) ** gamma
    return beta ** (-s) / gamma * float(gammaincc(s, x)) * float(gamma_fn(s))


def entrywise_error_rate(n: int, hyp: DecayHypothesis) -> float:
    """Predicted max-entry error rate of the truncation at the required rank.

    ``n**(-(alpha - 1)/alpha) * log(n)`` under 'P', ``1/n`` under 'E'
    (natural logarithm; constants set to 1).
    """
    if n < 2 or n != int(n):
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    if hyp.kind == "P":
        return float(n) ** (-(hyp.alpha - 1.0) / hyp.alpha) * math.log(n)
    return 1.0 / float(n)


def required_rank(n: int, hyp: DecayHypothesis, c: float = 1.0) -> int:
    """Smallest rank at which the entrywise error rate is achieved.

    ``ceil(c * n**(1/alpha))`` under 'P'; under 'E' the strict threshold
    ``d > (log(n) / beta)**(1/gamma)`` is honored by flooring and adding one.
    """
    if n < 2 or n != int(n):
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    if not c > 0:
        raise ValueError(f"multiplier c must be positive, got {c!r}")
    if hyp.kind == "P":
        return math.ceil(c * float(n) ** (1.0 / hyp.alpha))
    return math.floor((math.log(n) / hyp.beta) ** (1.0 / hyp.gamma)) + 1


def largest_tail_gap(eigenvalues, i: int) -> float:
    """Largest gap between consecutive eigenvalues at or after position i (1-based).

    Over a finite list this is a lower bound for the supremum over the full
    spectrum.
    """
    w = np.asarray(eigenvalues, dtype=float)
    if w.ndim != 1 or w.shape[0] < 2:
        raise ValueError("need a 1-d list of at least two eigenvalues")
    if i < 1 or i != int(i) or int(i) >= w.shape[0]:
        raise ValueError(f"index must be an integer in [1, {w.shape[0] - 1}], got {i!r}")
    return float(np.max(w[int(i) - 1:-1] - w[int(i):]))


def hypothesis_quantities(eigenvalues, i: int, spectrum) -> tuple[float, float]:
    """The (largest tail eigengap, constant-function residual) pair at index i.

    The residual term is known analytically to vanish for the supported
    spectra (Gaussian measure with the squared-exponential kernel, and
    dot-product kernels on the sphere, both of whose eigenfunctions integrate
    to zero beyond the constant); other spectra are refused rather than
    approximated.
    """
    delta = largest_tail_gap(eigenvalues, i)
    if isinstance(spectrum, (GaussianRbfSpectrum, SphereSpectrumParams)):
        return delta, 0.0
    raise CapabilityError(
        "constant-function residual is only available for GaussianRbfSpectrum "
        f"or SphereSpectrumParams, got {type(spectrum).__name__}"
    )
