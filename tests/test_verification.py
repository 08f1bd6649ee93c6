import math

import numpy as np
import pytest

from kernlr import (
    EigenDecomposition,
    GaussianRbfSpectrum,
    delocalisation_report,
    eigendecompose,
    eigenvalue_deviation_report,
    gaussian_synthetic,
    gram_matrix,
    interlacing_check,
    minor_identity_check,
    rbf,
    subspace_distance_experiment,
    tensor_spectrum,
    verification,
)
from kernlr.verification import TAIL_BOUNDS, TAIL_THRESHOLDS, _projection_norms, run_check

K2 = np.array([[2.0, 1.0], [1.0, 2.0]])


def _random_psd(n, rng, dof_factor=2):
    G = rng.standard_normal((dof_factor * n, n))
    S = G.T @ G / (dof_factor * n)
    return np.triu(S) + np.triu(S, 1).T


def test_minor_identity_2x2_hand_case():
    # minor eigenvalue 2, coupling 1: for the top eigenvalue 3 the identity
    # reads 1 / (1 + (2 - 3)^-2) = 1/2, matching u_1(1)^2
    report = minor_identity_check(K2)
    assert report.max_discrepancy <= 1e-12
    assert report.skipped == ()  # both indices checked


def test_minor_identity_diagonal_skips_coincident():
    report = minor_identity_check(np.diag([5.0, 2.0, -1.0]))
    # eigenvalues 2 and -1 coincide with the minor's; only 5 is checkable
    assert report.skipped == (1, 2)
    assert report.max_discrepancy <= 1e-12


def test_minor_identity_random_psd():
    rng = np.random.default_rng(0)
    for n in (10, 50):
        for _ in range(3):
            report = minor_identity_check(_random_psd(n, rng))
            assert report.max_discrepancy <= 1e-6
            # distinct indices in order, and not all of them: the rest is checked
            assert list(report.skipped) == sorted(set(report.skipped) & set(range(n)))
            assert len(report.skipped) < n


def test_minor_identity_guard_scales_with_the_spectrum():
    # The gap guard is relative to mean(|eigenvalue|), so a small multiple of
    # a matrix skips what the matrix skips (here nothing): at 1e-7 every gap
    # is far below 1e-6, yet every index is still checked.
    G = np.random.default_rng(0).standard_normal((100, 50))
    K = G.T @ G / 100
    for scale in (1.0, 1e-4, 1e-7):
        report = minor_identity_check(scale * K)
        assert report.skipped == ()
        assert 0.0 < report.max_discrepancy <= 1e-9


@pytest.mark.parametrize("K", [np.eye(5), np.zeros((5, 5))], ids=["identity", "zero"])
def test_minor_identity_refuses_a_matrix_with_no_index_left_to_check(K):
    # Every eigenvalue coincides with one of the minor's: nothing is checked,
    # so there is no discrepancy to report.
    with pytest.raises(ValueError, match="degenerate at every index"):
        minor_identity_check(K)


def test_minor_identity_needs_two_rows():
    with pytest.raises(ValueError):
        minor_identity_check(np.array([[1.0]]))


def test_interlacing_hand_cases():
    assert interlacing_check(K2) == 0.0
    assert interlacing_check(np.diag([3.0, 1.0])) == 0.0


def test_interlacing_random_symmetric():
    rng = np.random.default_rng(1)
    for n in (10, 100):
        for _ in range(3):
            A = rng.standard_normal((n, n))
            K = (A + A.T) / 2.0
            K = np.triu(K) + np.triu(K, 1).T
            violation = interlacing_check(K)
            assert violation <= 1e-10


def test_interlacing_needs_two_rows():
    with pytest.raises(ValueError, match="n >= 2"):
        interlacing_check(np.array([[1.0]]))


def test_delocalisation_single_point():
    assert delocalisation_report(eigendecompose(np.array([[1.0]])), 0) == pytest.approx(1.0)


def test_delocalisation_identity_gram_is_sqrt_n():
    # coordinate eigenvectors: the statistic detects full localisation
    for n in (4, 25):
        eig = eigendecompose(np.eye(n))
        assert delocalisation_report(eig, 0) == pytest.approx(np.sqrt(n))


def test_deviation_report_trace_sanity():
    # unit-diagonal kernel: sample eigenvalues over n sum to one, and the
    # analytic spectrum is a probability-like sequence summing to one
    X = gaussian_synthetic(200, 1, sigma=1.0, seed=2)
    eig = eigendecompose(gram_matrix(rbf(1.0), X))
    assert eig.eigenvalues.sum() / 200 == pytest.approx(1.0, rel=1e-10)
    spec = GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0)
    sample, analytic = eig.eigenvalues[:5] / 200, [spec.base * spec.ratio**i for i in range(5)]
    assert sample.sum() <= 1.0 + 1e-12
    deviation = eigenvalue_deviation_report(eig, analytic)
    assert deviation == pytest.approx(np.abs(sample - analytic) / analytic)


def test_deviation_report_divides_a_leading_k_decomposition_by_the_matrix_order():
    # Five pairs of a 300 x 300 Gram: the sample is lambda_i / 300, not / 5.
    spec = GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0)
    K = gram_matrix(rbf(1.0), gaussian_synthetic(300, 1, sigma=1.0, seed=3))
    w, eig = np.linalg.eigvalsh(K)[::-1], eigendecompose(K, k=5)
    analytic = tensor_spectrum(spec, 3)
    deviation = eigenvalue_deviation_report(eig, analytic)
    assert deviation.shape == (3,)
    # |lambda_i / n - mu_i| moves by at most the error of lambda_i / n
    gap = np.abs(w[:3] / 300 - analytic)
    assert np.abs(deviation * analytic - gap).max() <= 1e-12 * w[0] / 300


@pytest.mark.parametrize("analytic, match", [
    (np.ones(6), "analytic length"),  # more values than the 5 pairs held
    (np.ones(0), "analytic length"),
    (np.ones((1, 3)), "1-D"),
    (np.array([0.5, 0.0]), "positive"),
    (np.array([0.5, -0.1]), "positive"),
    (np.array([0.5, np.inf]), "positive finite"),
    (np.array([0.5, np.nan]), "positive finite"),
], ids=["too-long", "empty", "2-D", "zero", "negative", "inf", "nan"])
def test_deviation_report_refuses_analytic_values_it_cannot_divide_by(analytic, match):
    eig = eigendecompose(gram_matrix(rbf(1.0), gaussian_synthetic(50, 1, seed=3)), k=5)
    with pytest.raises(ValueError, match=match):
        eigenvalue_deviation_report(eig, analytic)


def test_deviation_shrinks_with_sample_size():
    # leading eigenvalue deviation should not grow as n quadruples
    analytic = tensor_spectrum(GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0), 1)
    med = {}
    for n in (200, 800):
        devs = []
        for s in range(3):
            X = gaussian_synthetic(n, 1, sigma=1.0, seed=10 + s)
            eig = eigendecompose(gram_matrix(rbf(1.0), X), k=1)
            devs.append(eigenvalue_deviation_report(eig, analytic)[0])
        med[n] = np.median(devs)
    assert med[800] <= med[200] * 1.5  # non-increasing within noise


def test_subspace_experiment_draws_bernoulli_entries(monkeypatch):
    # y has i.i.d. 0/1 entries, 1 with probability p0, drawn after G from the
    # stream of its batch; the second batch here holds the last 50 trials.
    seen = []
    norms = verification._projection_norms
    monkeypatch.setattr(verification, "_projection_norms",
                        lambda G, Y: seen.append(Y) or norms(G, Y))
    n, q, p0 = 1000, 400, 0.2
    subspace_distance_experiment(n, q, p0, trials=150, seed=3)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(1,)))
    rng.standard_normal((n, q))
    assert np.array_equal(seen[1], (rng.random((n, 50)) < p0).astype(float))
    assert abs(np.concatenate(seen, axis=1).mean() - p0) < 0.01


@pytest.mark.parametrize("p0, q_min", [(0.5, 256), (0.2, 400)])
def test_subspace_dimension_requirement(p0, q_min):
    # sigma^2 = p0 (1 - p0), so q must be at least 64 / sigma^2
    with pytest.raises(ValueError, match=f"q = {q_min - 1} is below the required minimum "
                                         f"64 / sigma\\^2 = {q_min:g} for bernoulli\\({p0:g}\\)"):
        subspace_distance_experiment(n=1024, q=q_min - 1, p0=p0, trials=10, seed=0)
    subspace_distance_experiment(n=1024, q=q_min, p0=p0, trials=1, seed=0)


def test_subspace_experiment_report():
    assert TAIL_BOUNDS == pytest.approx(4.0 * np.exp(-np.array(TAIL_THRESHOLDS)**2 / 32.0))
    frequencies = subspace_distance_experiment(n=512, q=256, p0=0.5, trials=2000, seed=4)
    # frequencies are probabilities of nested events: non-increasing in t
    assert np.all(np.diff(frequencies) <= 1e-12)
    assert np.all((0.0 <= frequencies) & (frequencies <= 1.0))
    # the concentration bound holds empirically on the default grid
    assert np.all(frequencies <= TAIL_BOUNDS)


def test_subspace_experiment_at_p0_other_than_one_half():
    # sigma^2 = 0.16, so q is the smallest integer >= 64 / 0.16
    q = math.ceil(64.0 / (0.2 * (1.0 - 0.2)))
    frequencies = subspace_distance_experiment(n=2 * q, q=q, p0=0.2, trials=500, seed=5)
    assert np.all(frequencies <= TAIL_BOUNDS)


@pytest.mark.parametrize("n, q", [(1024, 256), (512, 256), (257, 256), (1024, 1023)])
def test_projection_norms_match_householder_qr(n, q):
    rng = np.random.default_rng(q)
    G = rng.standard_normal((n, q))
    G -= G.mean(axis=0)
    Y = (rng.random((n, 100)) < 0.5).astype(float)
    Q, _ = np.linalg.qr(G, mode="reduced")
    expected = np.linalg.norm(Q.T @ Y, axis=0)
    assert _projection_norms(G, Y) == pytest.approx(expected, rel=1e-9)


def test_subspace_experiment_deterministic():
    a = subspace_distance_experiment(n=512, q=256, p0=0.5, trials=300, seed=6)
    b = subspace_distance_experiment(n=512, q=256, p0=0.5, trials=300, seed=6)
    assert np.array_equal(a, b)
    # the value a Householder QR projection gives; the Cholesky route must match it
    assert a.tolist() == [0.0, 0.0, 0.0, 0.0]


def _swap_first_two_vectors(eig):
    # Eigenvectors paired with the wrong eigenvalues.
    U = eig.eigenvectors[:, [1, 0, *range(2, eig.n)]]
    return EigenDecomposition(eigenvalues=eig.eigenvalues, eigenvectors=U)


def _second_minor_value_past_first(matrix_and_minor):
    def faulty(gram):
        K, eig, minor = matrix_and_minor(gram)
        v = minor.eigenvalues.copy()
        v[1] = 2.0 * v[0] - v[1]  # reflected past its neighbour v[0]
        return K, eig, EigenDecomposition(eigenvalues=v, eigenvectors=minor.eigenvectors)
    return faulty


def _spectrum_at_double_bandwidth(spec, count):
    return tensor_spectrum(GaussianRbfSpectrum(sigma=spec.sigma, bandwidth=2.0 * spec.bandwidth), count)


@pytest.mark.parametrize("name, target, fault", [
    ("identity", "eigendecompose", lambda f: lambda K: _swap_first_two_vectors(f(K))),
    ("interlacing", "_matrix_and_minor", _second_minor_value_past_first),
    ("subspace", "_projection_norms", lambda f: lambda G, Y: 3.0 * f(G, Y)),
    ("eigdev", "tensor_spectrum", lambda f: _spectrum_at_double_bandwidth),
], ids=["identity", "interlacing", "subspace", "eigdev"])
def test_verify_check_fails_on_planted_fault(monkeypatch, name, target, fault):
    # The fault is planted in a library function the check calls, so it runs
    # through the code path of `kernlr verify`.
    assert run_check(name, 0, True)[0][3]  # passes without the fault
    monkeypatch.setattr(verification, target, fault(getattr(verification, target)))
    (_, stat, threshold, passed, _, _), _ = run_check(name, 0, True)
    assert not passed and stat > threshold


def test_delocalisation_passes_on_a_planted_delocalised_basis(monkeypatch):
    # The check reads sqrt(n) max |Q_il| over the tail. A Haar-random basis with
    # the Gram's eigenvalues reads about 5 at n = 500, under the threshold 10,
    # so the check can pass; the Gram's own tail fails it.
    (_, stat, threshold, passed, _, _), first = run_check("delocalisation", 0, True)
    assert not passed and stat > threshold

    def haar(K):
        eig = eigendecompose(K)
        Q, R = np.linalg.qr(np.random.default_rng(0).standard_normal(K.shape))
        return EigenDecomposition(eigenvalues=eig.eigenvalues, eigenvectors=Q * np.sign(np.diag(R)))

    monkeypatch.setattr(verification, "eigendecompose", haar)
    (_, stat, threshold, passed, seed, _), first = run_check("delocalisation", 0, True)
    assert passed and first is None and seed == 0 and stat < threshold / 1.5
