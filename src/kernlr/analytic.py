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

from .errors import CapabilityError, HypothesisError
from .spectral import _check_int, _check_real

HERMITE_ORDER_CAP = 60
_GAMMA_TERM_CAP = 1000  # terms of the incomplete gamma series or continued fraction


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
        object.__setattr__(self, "sigma", _check_real(self.sigma, "sigma", "(0, inf)"))
        object.__setattr__(self, "bandwidth", _check_real(self.bandwidth, "bandwidth", "(0, inf)"))
        object.__setattr__(self, "p", _check_int(self.p, "dimension p", 1))

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

    Equals ``-log(ratio)``: eigenvalues decay like ``exp(-beta * i)``. The
    quotient overflows for tiny u and rounds to 1 for large u, so it is never
    formed: ``log1p(u + sqrt(1 + 2u)) - log(u)`` adds two positive terms for
    u < 1, and ``log1p(v + sqrt(v (2 + v)))`` with v = 1/u serves u >= 1.
    Both stay accurate from the smallest subnormal to the largest float.
    """
    u = _check_real(upsilon, "upsilon", "(0, inf)")
    if u < 1.0:
        return math.log1p(u + math.sqrt(1.0 + 2.0 * u)) - math.log(u)
    v = 1.0 / u
    return math.log1p(v + math.sqrt(v * (2.0 + v)))


def gaussian_rbf_eigenvalue(i: int, spec: GaussianRbfSpectrum) -> float:
    """Univariate eigenvalue ``base * ratio**i``, i >= 0. Requires p = 1."""
    if spec.p != 1:
        raise ValueError("univariate eigenvalues require p = 1; use tensor_spectrum for p > 1")
    return spec.base * spec.ratio ** _check_int(i, "index", 0)


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

    ``exp(-t^2) h_i(t)`` is classically bounded by 1.09 over every order, but
    the envelope here decays more slowly than that weight, so the sup norm
    grows geometrically with the order, at a rate below half the eigenvalue
    decay rate.
    """
    if spec.p != 1:
        raise ValueError("univariate eigenfunctions require p = 1")
    i = _check_int(i, "index", 0)
    if i > HERMITE_ORDER_CAP:
        raise CapabilityError(f"eigenfunction order {i} exceeds the supported cap {HERMITE_ORDER_CAP}")
    x = np.asarray(x, dtype=float)
    u = spec.upsilon
    root = math.sqrt(1.0 + 2.0 * u)
    t = (0.25 + 0.5 * u) ** 0.25 * x / spec.sigma
    envelope = np.exp(-(x * x) * (root - 1.0) / (4.0 * spec.sigma**2))
    value = (1.0 + 2.0 * u) ** 0.125 * envelope * _hermite_normalized(i, t)
    return value if value.ndim else float(value)


def tensor_spectrum(spec: GaussianRbfSpectrum, count: int) -> np.ndarray:
    """The ``count`` largest p-variate eigenvalues, descending, multiplicity expanded.

    A multi-index of total degree i contributes ``base**p * ratio**i``; the
    number of such multi-indices is ``C(i + p - 1, p - 1)``.
    """
    count = _check_int(count, "count", 1)
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
    degree = _check_int(degree, "degree", 0)
    p = _check_int(p, "ambient dimension p", 3)
    if degree == 0:
        return 1
    num = (2 * degree + p - 2) * math.comb(degree + p - 3, p - 2)
    return num // degree


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
        intervals = {"P": {"alpha": "(1, inf)", "r": "[0, inf)"},
                     "E": {"beta": "(0, inf)", "gamma": "(0, 1]", "s": "[0, inf)"}}
        if self.kind not in intervals:
            raise ValueError(f"hypothesis kind must be 'P' or 'E', got {self.kind!r}")
        try:
            for name, interval in intervals[self.kind].items():
                object.__setattr__(self, name, _check_real(getattr(self, name), name, interval))
        except ValueError as exc:
            raise HypothesisError(str(exc)) from None
        if self.kind == "P" and not self.alpha > 2 * self.r + 1:
            raise HypothesisError(f"admissibility alpha > 2r + 1 fails: alpha = {self.alpha}, r = {self.r}")
        if self.kind == "E" and not self.beta > 2 * self.s:
            raise HypothesisError(f"admissibility beta > 2s fails: beta = {self.beta}, s = {self.s}")


def polynomial_decay(alpha: float, r: float = 0.0) -> DecayHypothesis:
    return DecayHypothesis(kind="P", alpha=alpha, r=r)


def exponential_decay(beta: float, gamma: float = 1.0, s: float = 0.0) -> DecayHypothesis:
    return DecayHypothesis(kind="E", beta=beta, gamma=gamma, s=s)


def sphere_decay_hypothesis(p: int, *, coefficient_decay: float | None = None,
                            geometric_ratio: float | None = None) -> DecayHypothesis:
    """Decay hypothesis implied by a dot-product kernel on the sphere in R^p.

    Give exactly one of ``coefficient_decay`` (coefficients ``b_i = O(i**-a)``,
    with ``a > (p^2 - 4p + 5) / 2``, else ``HypothesisError``) or
    ``geometric_ratio`` (``b_i = O(r**i)``, 0 < r < 1).
    Polynomially decaying coefficients give the 'P' hypothesis with
    ``alpha = (2a + p - 3) / (p - 2)`` and sup-norm exponent ``r = (p - 2) / 2``
    (the harmonic sup-norm bound). Geometrically decaying coefficients give
    the 'E' hypothesis with ``gamma = 1 / (p - 1)`` and
    ``beta = (p - 1)! * log(1 / r) / C`` with the universal constant C set
    to 1 by convention.

    Known gaps, measured on Gram spectra: with r = 0.5 (54 terms) on
    ``sphere_uniform(2000, p)``, beta is 1.386 on S^2 against a fitted 1.419,
    but 4.159 on S^3 against 2.249. So at n = 4000 on S^3 ``required_rank``
    gives d = 8 where the fitted beta gives 51, and at these ranks the
    max-entry error falls like n^-0.42, not n^-1. With b_i = (i + 1)^-a
    (400 terms) on ``sphere_uniform(4000, 3)`` the ordered eigenvalues decay
    like i^-2.06 (a = 2) and i^-2.96 (a = 3), where alpha reads 4 and 6.
    """
    p = _check_int(p, "ambient dimension p", 3)
    if (coefficient_decay is None) == (geometric_ratio is None):
        raise ValueError("give exactly one of coefficient_decay or geometric_ratio")
    if coefficient_decay is not None:
        a = _check_real(coefficient_decay, "coefficient_decay", "(0, inf)")
        floor = (p**2 - 4 * p + 5) / 2.0
        if not a > floor:
            raise HypothesisError(f"coefficient decay a = {a} must exceed "
                                  f"(p^2 - 4p + 5)/2 = {floor} for p = {p}")
        return DecayHypothesis(kind="P", alpha=(2.0 * a + p - 3.0) / (p - 2.0), r=(p - 2.0) / 2.0)
    r = _check_real(geometric_ratio, "geometric_ratio", "(0, 1)")
    return DecayHypothesis(kind="E", beta=math.factorial(p - 1) * math.log(1.0 / r),
                           gamma=1.0 / (p - 1.0))


def poly_tail_bound(d: int, alpha: float) -> float:
    """Upper bound ``d**(1 - alpha) / (alpha - 1)`` on the tail sum of ``i**-alpha``.

    Integral comparison: the sum over i > d is at most the integral from d.
    """
    d = _check_int(d, "d", 1)
    alpha = _check_real(alpha, "alpha", "(1, inf)")  # the tail diverges for alpha <= 1
    return float(d) ** (1.0 - alpha) / (alpha - 1.0)


def _log_upper_gamma(s: float, x: float) -> float:
    """``log Gamma(s, x)``, the upper incomplete gamma function, for s >= 1 and x > 0.

    Numerical Recipes (Press et al.), section 6.2. Below x = s + 1 the series
    ``gamma(s, x) = x**s e**-x sum_n x**n / (s (s + 1) ... (s + n))`` for the
    lower part is taken from ``Gamma(s)``, of which at least ``e**-2`` is left
    there; above it the modified Lentz continued fraction ``h`` gives
    ``Gamma(s, x) = x**s e**-x h``. Logs keep ``x**s``, ``e**-x`` and
    ``Gamma(s)`` from overflowing on their own. Either loop raises
    ``CapabilityError`` if it has not converged in ``_GAMMA_TERM_CAP`` terms.
    """
    if x < s + 1.0:
        term = total = 1.0 / s
        for n in range(1, _GAMMA_TERM_CAP):
            term *= x / (s + n)
            if total + term == total:  # lower is gamma(s, x) / Gamma(s)
                lower = math.exp(s * math.log(x) - x - math.lgamma(s)) * total
                return math.lgamma(s) + math.log1p(-lower)
            total += term
    else:
        tiny = 1e-300  # keeps the Lentz ratios away from zero
        b = x + 1.0 - s
        c, f = 1.0 / tiny, 1.0 / b
        h = f
        for n in range(1, _GAMMA_TERM_CAP):
            a = n * (s - n)
            b += 2.0
            f = a * f + b
            f = 1.0 / (f if abs(f) > tiny else tiny)
            c = b + a / c
            c = c if abs(c) > tiny else tiny
            h *= c * f
            if abs(c * f - 1.0) <= math.ulp(1.0):
                return s * math.log(x) - x + math.log(h)
    raise CapabilityError(f"the incomplete gamma function at s = {s}, x = {x} "
                          f"did not converge in {_GAMMA_TERM_CAP} terms")


def exp_tail_bound(d: int, beta: float, gamma: float) -> float:
    """Upper bound on the tail sum of ``exp(-beta * i**gamma)`` over i > d.

    Integral comparison again: the bound is the exact integral from d, which
    substitutes into an upper incomplete gamma function,
    ``beta**(-1/gamma) / gamma * Gamma(1/gamma, beta * d**gamma)``. For
    gamma = 1 this reduces to ``exp(-beta d) / beta``. Like
    :func:`required_rank`, it raises ``CapabilityError`` when the bound is out
    of the float range.
    """
    d = _check_int(d, "d", 1)
    beta = _check_real(beta, "beta", "(0, inf)")
    gamma = _check_real(gamma, "gamma", "(0, 1]")
    try:
        s, x = 1.0 / gamma, beta * float(d) ** gamma
        if x == math.inf:  # e**-x underflows whatever the other factors are
            return 0.0
        bound = math.exp(_log_upper_gamma(s, x) - s * math.log(beta) - math.log(gamma))
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise CapabilityError(f"the tail bound for d = {d}, beta = {beta}, gamma = {gamma} "
                              "is out of floating-point range")
    return bound


def entrywise_error_rate(n: int, hyp: DecayHypothesis) -> float:
    """Predicted max-entry error rate of the truncation at the required rank.

    ``n**(-(alpha - 1)/alpha) * log(n)`` under 'P', ``1/n`` under 'E'
    (natural logarithm; constants set to 1).
    """
    n = _check_int(n, "n", 2)
    if hyp.kind == "P":
        return float(n) ** (-(hyp.alpha - 1.0) / hyp.alpha) * math.log(n)
    return 1.0 / float(n)


def required_rank(n: int, hyp: DecayHypothesis, c: float = 1.0) -> int:
    """Smallest rank at which the entrywise error rate is achieved.

    ``ceil(c * n**(1/alpha))`` under 'P'; under 'E' the strict threshold
    ``d > (log(n) / beta)**(1/gamma)`` is honored by flooring and adding one.
    """
    n = _check_int(n, "n", 2)
    c = _check_real(c, "multiplier c", "(0, inf)")
    try:
        if hyp.kind == "P":
            return math.ceil(c * float(n) ** (1.0 / hyp.alpha))
        return math.floor((math.log(n) / hyp.beta) ** (1.0 / hyp.gamma)) + 1
    except OverflowError:
        raise CapabilityError(f"the required rank for n = {n} is too large for a float") from None
