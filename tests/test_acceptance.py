"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is fixed
here; nothing is deferred to later calibration.

Two settings are used. Criteria 3 and 12 check the analytic spectrum and
eigenfunctions of the Gaussian kernel on 1-D Gaussian data. Criteria 4 and 5
check the targets of hypothesis (E) with sup-norm exponent s = 0 (uniformly
bounded eigenfunctions): the 1/n entrywise-error slope and a bounded
delocalisation statistic. They run in the setting that
``sphere_decay_hypothesis`` pairs with (E) at s = 0: a dot-product kernel
with coefficients 0.5**i on the sphere S^2 with uniform data. Its
eigenfunctions are spherical harmonics with ``||Y_l||_inf <= sqrt(2l + 1)``,
a growth only polynomial in the order, so (E) holds for every s > 0. The
Gaussian setting does not meet the premise: there the eigenfunctions' sup
norm grows geometrically with the order (see ``gaussian_rbf_eigenfunction``).

Criterion 5 takes its maximum only over tail eigenvectors that double
precision resolves, those whose eigenvalue exceeds the numerical-rank floor
``n * eps * lambda_1``. Below that floor any orthonormal basis of the
numerically null space is an equally correct solver output, so its vectors
say nothing about the kernel matrix.
"""

import itertools
import time

import numpy as np

import kernlr as klr
from kernlr import (
    GaussianRbfSpectrum,
    delocalisation_report,
    dot_product,
    eigendecompose,
    error_sweep,
    exp_tail_bound,
    gaussian_rbf_eigenfunction,
    gaussian_rbf_eigenvalue,
    gaussian_synthetic,
    gmm_synthetic,
    gram_matrix,
    interlacing_check,
    matern,
    median_heuristic,
    minor_identity_check,
    poly_tail_bound,
    rbf,
    required_rank,
    sphere_decay_hypothesis,
    sphere_uniform,
)
from kernlr.verification import CHECKS, run_check

SPEC1 = GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0)  # upsilon = 2
EPS = np.finfo(float).eps

# Hypothesis (E) with s = 0: beta = 2 log 2, gamma = 1/2 on S^2 in R^3.
SPHERE_HYP_E = sphere_decay_hypothesis(3, geometric_ratio=0.5)
# Coefficients 0.5**i, truncated where the dropped tail 0.5**K / (1 - 0.5)
# falls below machine epsilon (K = 54).
SPHERE_TERMS = next(k for k in itertools.count(1) if 0.5**k / (1 - 0.5) < EPS)
SPHERE_KERNEL = dot_product([0.5**i for i in range(SPHERE_TERMS)])


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return f"criterion {num}: {detail}"


def _sphere_gram(n, seed):
    return gram_matrix(SPHERE_KERNEL, sphere_uniform(n, 3, seed=seed))


def _resolved_tail(eig, d):
    """Tail indices l >= d whose eigenvalue exceeds ``n * eps * lambda_1``."""
    w = eig.eigenvalues
    return d + np.flatnonzero(w[d:] > eig.n * EPS * w[0])


def test_criterion_01_eigendecomposition_quality():
    start = time.time()
    worst_orth = 0.0
    worst_recon = 0.0
    for seed in range(3):
        X = gaussian_synthetic(300, 3, sigma=1.0, seed=seed)
        K = gram_matrix(rbf(median_heuristic(X)), X)
        eig = eigendecompose(K)
        U = eig.eigenvectors
        worst_orth = max(worst_orth, np.abs(U.T @ U - np.eye(300)).max())
        recon = (U * eig.eigenvalues) @ U.T
        worst_recon = max(worst_recon, np.abs(recon - np.asarray(K)).max() / np.abs(np.asarray(K)).max())
    elapsed = time.time() - start
    ok = worst_orth <= 1e-8 and worst_recon <= 1e-8 and elapsed < 10.0
    msg = _report(1, ok, f"eigendecomposition: orthonormality {worst_orth:.2e} <= 1e-8, "
                         f"reconstruction {worst_recon:.2e} <= 1e-8, {elapsed:.1f}s < 10s")
    assert ok, msg


def test_criterion_02_eym_optimality_oracle():
    rng = np.random.default_rng(42)
    worst_margin = np.inf
    for _ in range(50):
        A = rng.standard_normal((8, 8))
        K = (A + A.T) / 2.0  # symmetric bit for bit
        eig = eigendecompose(K)
        sweep = error_sweep(K, eig, list(range(1, 8)))
        for i, d in enumerate(range(1, 8)):
            for _ in range(100):
                Q, _ = np.linalg.qr(rng.standard_normal((8, d)))
                V = rng.standard_normal((d, 8))
                worst_margin = min(worst_margin,
                                   np.linalg.norm(K - Q @ V) - sweep.frobenius_error[i])
    ok = worst_margin >= 0.0  # exact dominance, no tolerance
    msg = _report(2, ok, f"truncation beats 100 random rank-d candidates on 50 symmetric "
                         f"8x8 instances, worst margin {worst_margin:.4f} >= 0")
    assert ok, msg


def test_criterion_03_analytic_spectrum_convergence():
    # `kernlr verify eigdev` at full size, run once (no re-run): the top-5 sample
    # eigenvalues over n of rbf(1) on n = 4000 points of N(0, 1), seeds 0-9,
    # against the analytic spectrum; the statistic is the largest median
    # relative deviation, so it is <= 0.1 iff every median is.
    start = time.time()
    worst, _, detail = CHECKS["eigdev"](0, False)
    elapsed = time.time() - start
    full_size = detail == "n=4000, median over 10 seeds, top 5 eigenvalues"
    ok = full_size and worst <= 0.1 and elapsed < 300.0
    msg = _report(3, ok, f"sample eigenvalues track the analytic spectrum ({detail}): largest "
                         f"median relative deviation {worst:.6g} <= 0.1, {elapsed:.0f}s < 300s")
    assert ok, msg


def test_criterion_04_exponential_case_error_decay():
    sizes = (500, 1000, 2000, 4000)
    ranks = []
    medians = []
    for n in sizes:
        d = required_rank(n, SPHERE_HYP_E) + 2
        errs = []
        for seed in range(5):
            gram = _sphere_gram(n, seed)
            eig = eigendecompose(gram)
            errs.append(error_sweep(gram, eig, [d]).max_entry_error[0])
        ranks.append(d)
        medians.append(float(np.median(errs)))
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    ok = slope <= -0.8
    per_n = ", ".join(f"n={n} d={d} {e:.3e}" for n, d, e in zip(sizes, ranks, medians))
    msg = _report(4, ok, f"max-entry error decay on S^2, dot-product kernel 0.5**i: "
                         f"median over 5 seeds at {per_n}; least-squares slope "
                         f"{slope:.3f} (required <= -0.8, target -1)")
    assert ok, msg


def test_criterion_05_delocalisation_statistic():
    n = 2000
    d = required_rank(n, SPHERE_HYP_E)
    counts, stats, full = [], [], []
    for seed in range(5):
        eig = eigendecompose(_sphere_gram(n, seed))
        tail = _resolved_tail(eig, d)
        assert tail.size > 0, (f"criterion 5: seed {seed} resolves no tail eigenvector "
                               f"beyond d={d} above n*eps*lambda_1")
        counts.append(tail.size)
        stats.append(float(np.sqrt(n) * np.abs(eig.eigenvectors[:, tail]).max()))
        full.append(delocalisation_report(eig, d))
    med = float(np.median(stats))
    ok = med <= 10.0
    msg = _report(5, ok, f"sqrt(n) * resolved-tail eigenvector sup-norm on S^2 at n=2000, "
                         f"d={d}: resolved tail sizes {counts}, statistics "
                         f"{[round(v, 2) for v in stats]}, median {med:.2f} (required <= 10, "
                         f"anticipated ~3.9); full-tail delocalisation_report "
                         f"{[round(v, 1) for v in full]}")
    assert ok, msg


def test_criterion_06_principal_minor_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        G = rng.standard_normal((100, 50))
        K = G.T @ G / 100.0  # SYRK: symmetric bit for bit
        report = minor_identity_check(K)
        worst = max(worst, report.max_discrepancy)
    ok = worst <= 1e-6
    msg = _report(6, ok, f"principal-minor identity on 20 PSD 50x50 instances: max "
                         f"relative discrepancy {worst:.2e} <= 1e-6")
    assert ok, msg


def test_criterion_07_cauchy_interlacing():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        A = rng.standard_normal((100, 100))
        K = (A + A.T) / 2.0  # symmetric bit for bit
        worst = max(worst, interlacing_check(K))
    ok = worst <= 1e-10
    msg = _report(7, ok, f"interlacing violation on 20 symmetric 100x100 instances: "
                         f"max {worst:.2e} <= 1e-10")
    assert ok, msg


def test_criterion_08_subspace_distance_concentration():
    # `kernlr verify subspace` at full size (10000 trials), re-run once at a new
    # seed if it fails. Its statistic is max(frequency - bound) over
    # t in {8, 10, 12, 16}, so it is <= 0 iff every frequency is within its bound.
    start = time.time()
    (_, excess, _, _, seed, detail), first = run_check("subspace", 5, False)
    if first is not None:
        print(f"criterion 8: first run (seed 5) exceeded the bound by {first:.6g}, "
              f"re-ran once with seed {seed}")
    elapsed = time.time() - start
    ok = excess <= 0.0 and elapsed < 120.0
    msg = _report(8, ok, f"projection-distance tail frequencies within 4 exp(-t^2/32) ({detail}): "
                         f"largest excess {excess:.6g} <= 0 (seed {seed}), {elapsed:.0f}s < 120s")
    assert ok, msg


def test_criterion_09_series_bounds_dominate_brute_force():
    ok = True
    worst = ""
    for alpha in (1.5, 2.0, 3.0):
        for d in (1, 5, 20):
            i = np.arange(d + 1, 10**7 + 1, dtype=float)
            s, b = float(np.sum(i**-alpha)), poly_tail_bound(d, alpha)
            if s > b:
                ok, worst = False, f"poly alpha={alpha} d={d}: {s} > {b}"
    for beta in (0.5, 1.0):
        for gamma in (0.5, 1.0):
            for d in (1, 5, 20):
                i = np.arange(d + 1, 10**7 + 1, dtype=float)
                s, b = float(np.sum(np.exp(-beta * i**gamma))), exp_tail_bound(d, beta, gamma)
                if s > b:
                    ok, worst = False, f"exp beta={beta} gamma={gamma} d={d}: {s} > {b}"
    msg = _report(9, ok, "closed-form tail bounds dominate 1e7-term partial sums over "
                         "the full (alpha, beta, gamma, d) grid" + (f"; {worst}" if worst else ""))
    assert ok, msg


def test_criterion_10_jl_comparison_shape():
    X = gaussian_synthetic(300, 5, sigma=1.0, seed=3)
    gram = gram_matrix(rbf(median_heuristic(X)), X)
    ranks = [16, 64, 256]
    result = klr.compare_methods(gram, ranks, trials=50, seed=11)
    slope = float(np.polyfit(np.log(ranks), np.log(result.jl_median_max_error), 1)[0])
    dominance = bool(np.all(result.spectral_max_error <= result.jl_median_max_error))
    ok = -0.7 <= slope <= -0.3 and dominance
    msg = _report(10, ok, f"sketch error log-log slope {slope:.3f} in [-0.7, -0.3]; "
                          f"spectral error <= sketch median at every rank: {dominance}")
    assert ok, msg


def test_criterion_11_smoothness_ordering_at_rank_100():
    start = time.time()
    X = gmm_synthetic(seed=0)  # 1000 x 10 defaults
    bw = median_heuristic(X)
    errs = {}
    for spec in (matern(0.5, bw), matern(1.5, bw), matern(2.5, bw), rbf(bw)):
        gram = gram_matrix(spec, X)
        eig = eigendecompose(gram)
        errs[spec.label] = error_sweep(gram, eig, [100]).max_entry_error[0]
    elapsed = time.time() - start
    ordered = errs["rbf"] < errs["matern52"] < errs["matern32"] < errs["matern12"]
    ok = ordered and elapsed < 120.0
    msg = _report(11, ok, f"rank-100 max-entry errors strictly ordered by smoothness: "
                          f"rbf {errs['rbf']:.2e} < matern52 {errs['matern52']:.2e} < "
                          f"matern32 {errs['matern32']:.2e} < matern12 {errs['matern12']:.2e}, "
                          f"{elapsed:.0f}s < 120s")
    assert ok, msg


def test_criterion_12_mercer_truncation_uniform_error():
    xs = np.linspace(-2.0, 2.0, 21)
    X, Y = np.meshgrid(xs, xs)
    total = np.zeros_like(X)
    for i in range(50):
        ux = gaussian_rbf_eigenfunction(i, X.ravel(), SPEC1).reshape(X.shape)
        uy = gaussian_rbf_eigenfunction(i, Y.ravel(), SPEC1).reshape(Y.shape)
        total += gaussian_rbf_eigenvalue(i, SPEC1) * ux * uy
    err = float(np.abs(total - np.exp(-((X - Y) ** 2) / 2.0)).max())
    ok = err <= 1e-6
    msg = _report(12, ok, f"50-term expansion reproduces the kernel uniformly on "
                          f"[-2,2]^2: max error {err:.2e} <= 1e-6")
    assert ok, msg
