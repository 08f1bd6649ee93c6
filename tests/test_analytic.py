import math
import sys

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.special import gammaincc, gammaln
from scipy.special import gamma as gamma_fn

from kernlr import (
    CapabilityError,
    DecayHypothesis,
    GaussianRbfSpectrum,
    HypothesisError,
    beta_from_upsilon,
    dot_product,
    eigendecompose,
    entrywise_error_rate,
    exp_tail_bound,
    exponential_decay,
    gaussian_rbf_eigenfunction,
    gaussian_rbf_eigenvalue,
    gaussian_synthetic,
    gram_matrix,
    poly_tail_bound,
    polynomial_decay,
    rbf,
    required_rank,
    sphere_decay_hypothesis,
    sphere_harmonic_count,
    sphere_uniform,
    tensor_spectrum,
)
from kernlr.analytic import _hermite_normalized

SPEC1 = GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0)  # upsilon = 2


def test_eigenvalues_at_upsilon_two():
    # c = sqrt(2 / (3 + sqrt 5)), q = 2 / (3 + sqrt 5), both evaluated by hand
    assert SPEC1.upsilon == pytest.approx(2.0)
    assert gaussian_rbf_eigenvalue(0, SPEC1) == pytest.approx(0.6180340, abs=5e-8)
    assert gaussian_rbf_eigenvalue(1, SPEC1) == pytest.approx(0.2360680, abs=5e-8)
    assert gaussian_rbf_eigenvalue(2, SPEC1) == pytest.approx(0.0901699, abs=5e-8)


def test_eigenvalue_constant_ratio():
    for upsilon in (0.5, 2.0, 7.0):
        spec = GaussianRbfSpectrum(sigma=math.sqrt(upsilon / 2.0), bandwidth=1.0)
        vals = [gaussian_rbf_eigenvalue(i, spec) for i in range(8)]
        ratios = np.diff(np.log(vals))
        assert ratios == pytest.approx(np.full(7, math.log(spec.ratio)), abs=1e-12)


def test_eigenvalue_requires_univariate():
    with pytest.raises(ValueError):
        gaussian_rbf_eigenvalue(0, GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0, p=2))


def test_beta_value_and_identity():
    assert beta_from_upsilon(2.0) == pytest.approx(0.9624237, abs=5e-8)
    for upsilon in (0.1, 1.0, 2.0, 10.0, 100.0):
        spec = GaussianRbfSpectrum(sigma=math.sqrt(upsilon / 2.0), bandwidth=1.0)
        assert math.exp(-beta_from_upsilon(upsilon)) == pytest.approx(spec.ratio, rel=1e-12)
    assert beta_from_upsilon(100.0) < beta_from_upsilon(1.0)
    with pytest.raises(ValueError):
        beta_from_upsilon(0.0)


@pytest.mark.parametrize("upsilon, beta", [
    (1e-308, 709.889355822726016),  # the quotient (1 + u + sqrt(1 + 2u)) / u overflows
    (1e-300, 691.468675078773651),
    (1e300, 1.41421356237309505e-150),  # the quotient rounds to 1
    (1.0, 1.31695789692481671),
])
def test_beta_at_extreme_upsilon(upsilon, beta):
    # reference values from 50-digit arithmetic
    assert beta_from_upsilon(upsilon) == pytest.approx(beta, rel=1e-14)


def test_eigenfunction_odd_orders_vanish_at_origin():
    assert gaussian_rbf_eigenfunction(1, 0.0, SPEC1) == 0.0
    assert gaussian_rbf_eigenfunction(3, 0.0, SPEC1) == 0.0


def test_eigenfunction_normalization_quadrature():
    # Gauss-Hermite oracle: E[u_i(x)^2] over N(0, sigma^2) must be 1
    nodes, weights = hermgauss(150)
    xs = nodes * math.sqrt(2.0) * SPEC1.sigma
    wq = weights / math.sqrt(math.pi)
    for i in range(11):
        second_moment = float(np.sum(wq * gaussian_rbf_eigenfunction(i, xs, SPEC1) ** 2))
        assert second_moment == pytest.approx(1.0, abs=1e-9)


def test_eigenfunction_normalization_monte_carlo():
    # Monte Carlo companion of the quadrature oracle. The estimator's standard
    # error grows with the order (u_i^2 has heavy fourth moments), so the
    # tolerance is the larger of 0.02 and five standard errors.
    rng = np.random.default_rng(123)
    xs = rng.standard_normal(10**6) * SPEC1.sigma
    for i in range(11):
        u2 = gaussian_rbf_eigenfunction(i, xs, SPEC1) ** 2
        mean = float(u2.mean())
        se = float(u2.std() / math.sqrt(u2.size))
        assert abs(mean - 1.0) <= max(0.02, 5.0 * se)


def test_mercer_partial_sum_reproduces_kernel_pointwise():
    x, y = 0.3, -0.5
    total = sum(
        gaussian_rbf_eigenvalue(i, SPEC1)
        * gaussian_rbf_eigenfunction(i, x, SPEC1)
        * gaussian_rbf_eigenfunction(i, y, SPEC1)
        for i in range(50)
    )
    assert total == pytest.approx(math.exp(-((x - y) ** 2) / 2.0), abs=1e-6)


def test_eigenfunction_order_cap():
    with pytest.raises(CapabilityError):
        gaussian_rbf_eigenfunction(61, 0.0, SPEC1)
    gaussian_rbf_eigenfunction(60, 0.0, SPEC1)  # at the cap is fine


def test_weighted_hermite_uniform_bound():
    # classical bound: |e^{-t^2} H_i(t)| <= 1.09 sqrt(2^i i!) for every order
    t = np.linspace(-30.0, 30.0, 24001)
    for i in range(41):
        assert np.abs(np.exp(-t * t) * _hermite_normalized(i, t)).max() <= 1.09


def test_eigenfunction_sup_norm_grows_geometrically_with_the_order():
    # The envelope decays more slowly than the weight behind the 1.09 bound,
    # so the sup norm is unbounded over orders (the Gaussian setting misses
    # (E) with s = 0). At upsilon = 2 the maxima sit within |x| < 12, well
    # inside the grid. Measured: step ratios 1.583-1.611 and a log-linear fit
    # of 1.605 per order, under exp(beta / 2) = 1.618, the half-decay-rate
    # ceiling. The evaluation is elementwise on a fixed grid, so the only
    # slack needed is the grid's: a spacing of 5e-4 reads each maximum within
    # 6e-8 relative of a 1e-5 grid, far inside the 0.4% left below the
    # ceiling and the 2% above 1.55.
    x = np.linspace(-60.0, 60.0, 240001)
    orders = np.arange(10, 61)
    sup = np.array([np.abs(gaussian_rbf_eigenfunction(int(i), x, SPEC1)).max() for i in orders])
    steps = sup[1:] / sup[:-1]
    assert np.all(steps > 1.55) and np.all(steps < math.exp(SPEC1.beta / 2.0))
    assert math.exp(np.polyfit(orders, np.log(sup), 1)[0]) == pytest.approx(1.605, abs=0.005)


def test_tensor_spectrum_bivariate_hand_case():
    spec = GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0, p=2)
    c, q = spec.base, spec.ratio
    vals = tensor_spectrum(spec, 4)
    # degree 0 once, degree 1 twice, then degree 2
    assert vals[0] == pytest.approx(c**2)
    assert vals[1] == pytest.approx(c**2 * q)
    assert vals[2] == pytest.approx(c**2 * q)
    assert vals[3] == pytest.approx(c**2 * q**2)


def test_tensor_spectrum_univariate_matches_sequence():
    vals = tensor_spectrum(SPEC1, 6)
    expect = [gaussian_rbf_eigenvalue(i, SPEC1) for i in range(6)]
    assert vals == pytest.approx(expect)


def test_tensor_spectrum_trivariate_multiplicities():
    spec = GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0, p=3)
    vals = tensor_spectrum(spec, 40)
    uniq, counts = np.unique(np.round(np.log(vals), 9), return_counts=True)
    counts = counts[::-1]  # descending degree order
    for degree, mult in enumerate(counts[:-1]):  # last level may be truncated
        assert mult == (degree + 1) * (degree + 2) // 2


def test_tensor_spectrum_total_mass():
    # for any upsilon the univariate eigenvalues sum to 1 (unit-diagonal kernel),
    # so the p-variate ones sum to 1 as well; partial sums approach from below
    for p in (1, 2, 3):
        spec = GaussianRbfSpectrum(sigma=1.3, bandwidth=0.9, p=p)
        assert spec.base / (1.0 - spec.ratio) == pytest.approx(1.0, rel=1e-12)
        partial = np.cumsum(tensor_spectrum(spec, 6000))
        assert np.all(partial < 1.0 + 1e-12)
        assert partial[-1] == pytest.approx(1.0, abs=1e-5)


def test_sphere_harmonic_count_small_cases():
    assert sphere_harmonic_count(0, 3) == 1
    assert sphere_harmonic_count(1, 3) == 3
    assert sphere_harmonic_count(2, 3) == 5
    assert sphere_harmonic_count(0, 7) == 1


def test_sphere_harmonic_count_against_binomial_difference():
    # independent oracle: N_l = C(p + l - 1, l) - C(p + l - 3, l - 2), the
    # count of degree-l homogeneous polynomials minus the non-harmonic ones
    for p in (3, 4, 5, 8):
        for l in range(0, 12):
            expect = math.comb(p + l - 1, l) - (math.comb(p + l - 3, l - 2) if l >= 2 else 0)
            assert sphere_harmonic_count(l, p) == expect


@pytest.mark.parametrize("p", [3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_sphere_harmonic_count_splits_a_measured_spectrum(p, seed):
    # A dot-product kernel's Gram spectrum on the sphere falls in clusters of
    # sphere_harmonic_count(l, p) eigenvalues, one cluster per degree l. At
    # each cumulative end through degree 8 the next eigenvalue drops below
    # 0.75 of the last; inside a cluster no neighbour does. Over seeds 0-3 the
    # drop at an end was at most 0.38 on S^2 and 0.61 on S^3 (it grows with
    # the degree), and neighbours inside a cluster kept at least 0.93 on both
    # spheres, so a count off by one in any cluster fails.
    K = gram_matrix(dot_product([0.5**i for i in range(54)]), sphere_uniform(2000, p, seed=seed))
    lam = np.linalg.eigvalsh(K)[::-1]
    ends = np.cumsum([sphere_harmonic_count(l, p) for l in range(9)])
    neighbours = lam[1:ends[-1] + 1] / lam[:ends[-1]]
    assert np.all(neighbours[ends - 1] < 0.75)
    assert np.all(np.delete(neighbours, ends - 1) > 0.75)


@pytest.mark.parametrize("seed", range(4))
def test_tensor_spectrum_meets_a_measured_spectrum_per_cluster(seed):
    # The rbf(1) Gram of N(0, I_2) data has eigenvalues/n near the p = 2
    # tensor spectrum: one level per total degree l, held by l + 1 values.
    # The sample splits a cluster's values, so each run of equal analytic
    # values (degrees 0-4, the leading 15) is compared by its mean. Over
    # seeds 0-7 the largest relative deviation of a cluster mean was 0.049
    # at n = 1000 (degree 4) and 0.027 at n = 2000; degree 5 reaches 0.088,
    # so it is left out. A level or a multiplicity off by one fails by far more.
    n, spec = 1000, GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0, p=2)
    K = gram_matrix(rbf(1.0), gaussian_synthetic(n, 2, sigma=1.0, seed=seed))
    lam = eigendecompose(K, k=15).eigenvalues / n
    levels = tensor_spectrum(spec, 15)
    starts = np.flatnonzero(np.r_[True, levels[1:] != levels[:-1]])
    assert len(starts) == 5
    for a, b in zip(starts, [*starts[1:], 15]):
        assert lam[a:b].mean() == pytest.approx(levels[a], rel=0.1), (a, b)


def test_sphere_decay_polynomial_case():
    hyp = sphere_decay_hypothesis(3, coefficient_decay=2.0)
    assert hyp.kind == "P"
    assert hyp.alpha == pytest.approx(4.0)
    assert hyp.r == pytest.approx(0.5)


def test_sphere_decay_geometric_case():
    hyp = sphere_decay_hypothesis(3, geometric_ratio=0.5)
    assert hyp.kind == "E"
    assert hyp.gamma == pytest.approx(0.5)
    assert hyp.beta == pytest.approx(1.386294, abs=5e-7)  # 2 log 2


def test_sphere_decay_threshold_violation():
    # at p=3 the admissibility floor is (9 - 12 + 5)/2 = 1
    with pytest.raises(HypothesisError):
        sphere_decay_hypothesis(3, coefficient_decay=1.0)
    with pytest.raises(ValueError, match="exactly one"):
        sphere_decay_hypothesis(3)
    with pytest.raises(ValueError, match="exactly one"):
        sphere_decay_hypothesis(3, coefficient_decay=2.0, geometric_ratio=0.5)


def test_poly_tail_bound_values_and_brute_force():
    assert poly_tail_bound(10, 2.0) == pytest.approx(0.1)
    assert poly_tail_bound(1, 3.0) == pytest.approx(0.5)
    i = np.arange(11, 10**7 + 1, dtype=float)
    assert float(np.sum(i**-2.0)) <= 0.1
    i = np.arange(2, 10**7 + 1, dtype=float)
    assert float(np.sum(i**-3.0)) <= 0.5
    assert poly_tail_bound(20, 1.5) < poly_tail_bound(5, 1.5)
    with pytest.raises(ValueError):
        poly_tail_bound(10, 1.0)


def test_exp_tail_bound_values():
    assert exp_tail_bound(5, 1.0, 1.0) == pytest.approx(math.exp(-5.0), rel=1e-12)
    # gamma = 1 collapses to exp(-beta d) / beta
    for beta in (0.5, 1.0, 2.0):
        for d in (1, 4, 9):
            assert exp_tail_bound(d, beta, 1.0) == pytest.approx(math.exp(-beta * d) / beta, rel=1e-10)
    # geometric-series oracle at beta = 1, gamma = 1, d = 5
    true_tail = math.exp(-6.0) / (1.0 - math.exp(-1.0))
    assert true_tail <= exp_tail_bound(5, 1.0, 1.0)


@pytest.mark.parametrize("gamma", np.linspace(0.05, 1.0, 96))
def test_exp_tail_bound_matches_scipy_on_a_grid(gamma):
    # beta**(-s) / gamma * gammaincc(s, x) * gamma(s) is the reference. Below
    # the smallest normal float the reference's product underflows to 0 while
    # the bound, formed from one exp, degrades gradually, so there the
    # comparison is absolute.
    gamma = float(gamma)
    s = 1.0 / gamma
    for beta in (0.01, 0.1, 0.5, 1.0, 2.0, 10.0):
        for d in (1, 2, 5, 10, 50, 100, 1000):
            x = beta * float(d) ** gamma
            ref = beta ** (-s) / gamma * float(gammaincc(s, x)) * float(gamma_fn(s))
            assert exp_tail_bound(d, beta, gamma) == pytest.approx(ref, rel=1e-12, abs=sys.float_info.min)


def test_exp_tail_bound_out_of_float_range():
    # beta**(-1/gamma) Gamma(1/gamma, beta) is about 1e772 here
    with pytest.raises(CapabilityError, match="out of floating-point range"):
        exp_tail_bound(1, 0.01, 0.005)
    # Gamma(200, 10) overflows on its own, but the bound is about 7.9e174
    log_bound = gammaln(200.0) + math.log(gammaincc(200.0, 10.0)) - 200.0 * math.log(10.0) - math.log(0.005)
    assert exp_tail_bound(1, 10.0, 0.005) == pytest.approx(math.exp(log_bound), rel=1e-12)
    assert exp_tail_bound(2, 1e308, 1.0) == 0.0  # beta * d overflows: e**-x is 0


def test_exp_tail_bound_refuses_an_unconverged_incomplete_gamma():
    # x = s = 20000 needs about 1200 series terms, beyond the cap
    with pytest.raises(CapabilityError, match="did not converge in 1000 terms"):
        exp_tail_bound(1, 2e4, 5e-5)


def test_exp_tail_bound_decreasing_in_d():
    for beta in (0.5, 1.0):
        for gamma in (0.5, 1.0):
            vals = [exp_tail_bound(d, beta, gamma) for d in range(1, 30)]
            assert np.all(np.diff(vals) < 0.0)


def test_tail_bounds_dominate_brute_force_grid():
    # the full dominance grid; sums taken to 1e7 terms
    for alpha in (1.5, 2.0, 3.0):
        for d in (1, 5, 20):
            i = np.arange(d + 1, 10**7 + 1, dtype=float)
            assert float(np.sum(i**-alpha)) <= poly_tail_bound(d, alpha)
    for beta in (0.5, 1.0):
        for gamma in (0.5, 1.0):
            for d in (1, 5, 20):
                i = np.arange(d + 1, 10**7 + 1, dtype=float)
                assert float(np.sum(np.exp(-beta * i**gamma))) <= exp_tail_bound(d, beta, gamma)


def test_entrywise_error_rate():
    assert entrywise_error_rate(10**4, polynomial_decay(2.0)) == pytest.approx(0.092103, abs=5e-7)
    assert entrywise_error_rate(1000, exponential_decay(1.0)) == pytest.approx(0.001)
    # large alpha approaches log(n)/n from above at fixed n
    n = 500
    limit = math.log(n) / n
    assert entrywise_error_rate(n, polynomial_decay(50.0)) > limit
    assert entrywise_error_rate(n, polynomial_decay(50.0)) == pytest.approx(limit, rel=0.2)


def test_required_rank():
    assert required_rank(1000, exponential_decay(0.9624237, 1.0)) == 8
    assert required_rank(100, polynomial_decay(2.0)) == 10
    for hyp in (polynomial_decay(2.0), exponential_decay(0.9624237)):
        ranks = [required_rank(n, hyp) for n in (10, 100, 1000, 10000)]
        assert ranks == sorted(ranks)


def test_required_rank_honors_strict_threshold():
    # when log(n)/beta is an exact integer the rank must still exceed it
    beta = math.log(1000) / 7.0  # makes the threshold exactly 7
    assert required_rank(1000, exponential_decay(beta)) == 8


@pytest.mark.parametrize("hyp, c", [
    (exponential_decay(0.1, gamma=0.001), 1.0),  # (log(n) / beta)**1000 overflows
    (polynomial_decay(2.0), 1e308),              # c * sqrt(n) is inf
])
def test_required_rank_overflow_is_a_capability_error(hyp, c):
    with pytest.raises(CapabilityError, match="n = 1000"):
        required_rank(1000, hyp, c=c)


def test_decay_hypothesis_validation():
    with pytest.raises(HypothesisError):
        polynomial_decay(0.5)
    with pytest.raises(HypothesisError):
        polynomial_decay(2.0, r=0.8)  # alpha <= 2r + 1
    with pytest.raises(HypothesisError):
        exponential_decay(-1.0)
    with pytest.raises(HypothesisError):
        exponential_decay(1.0, gamma=1.5)
    with pytest.raises(HypothesisError):
        exponential_decay(1.0, s=0.6)  # beta <= 2s
    with pytest.raises(ValueError):
        DecayHypothesis(kind="Q")
