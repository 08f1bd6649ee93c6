import numpy as np
import pytest

from kernlr import (
    EigenDecomposition,
    GaussianRbfSpectrum,
    bernoulli,
    delocalisation_report,
    eigendecompose,
    eigenvalue_deviation_report,
    gaussian_synthetic,
    gram_matrix,
    interlacing_check,
    minor_decomposition,
    minor_identity_check,
    rbf,
    scaled,
    subspace_distance_experiment,
    tensor_spectrum,
    verification,
)
from kernlr.verification import _projection_norms, run_check

K2 = np.array([[2.0, 1.0], [1.0, 2.0]])


def _random_psd(n, rng, dof_factor=2):
    G = rng.standard_normal((dof_factor * n, n))
    S = G.T @ G / (dof_factor * n)
    return np.triu(S) + np.triu(S, 1).T


def test_minor_decomposition_fields():
    m = minor_decomposition(K2)
    assert isinstance(m, EigenDecomposition)
    assert m.eigenvalues == pytest.approx([2.0])


def test_minor_identity_2x2_hand_case():
    # minor eigenvalue 2, coupling 1: for the top eigenvalue 3 the identity
    # reads 1 / (1 + (2 - 3)^-2) = 1/2, matching u_1(1)^2
    report = minor_identity_check(K2)
    assert report.max_discrepancy <= 1e-12
    assert report.checked == 2
    assert report.skipped == ()


def test_minor_identity_diagonal_skips_coincident():
    report = minor_identity_check(np.diag([5.0, 2.0, -1.0]))
    # eigenvalues 2 and -1 coincide with the minor's; only 5 is checkable
    assert report.checked == 1
    assert set(report.skipped) == {1, 2}
    assert report.max_discrepancy <= 1e-12


def test_minor_identity_random_psd():
    rng = np.random.default_rng(0)
    for n in (10, 50):
        for _ in range(3):
            report = minor_identity_check(_random_psd(n, rng))
            assert report.max_discrepancy <= 1e-6
            assert report.checked + len(report.skipped) == n


def test_minor_identity_needs_two_rows():
    with pytest.raises(ValueError):
        minor_identity_check(np.array([[1.0]]))


def test_interlacing_hand_cases():
    assert interlacing_check(eigendecompose(K2), minor_decomposition(K2)) == 0.0
    D = np.diag([3.0, 1.0])
    assert interlacing_check(eigendecompose(D), minor_decomposition(D)) == 0.0


def test_interlacing_random_symmetric():
    rng = np.random.default_rng(1)
    for n in (10, 100):
        for _ in range(3):
            A = rng.standard_normal((n, n))
            K = (A + A.T) / 2.0
            K = np.triu(K) + np.triu(K, 1).T
            violation = interlacing_check(eigendecompose(K), minor_decomposition(K))
            assert violation <= 1e-10


def test_interlacing_size_mismatch():
    with pytest.raises(ValueError):
        interlacing_check(eigendecompose(np.eye(4)), minor_decomposition(K2))


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
    report = eigenvalue_deviation_report(eig, spec, count=5)
    assert report.sample.sum() <= 1.0 + 1e-12
    assert report.analytic == pytest.approx(
        [spec.base * spec.ratio**i for i in range(5)])
    assert report.abs_deviation == pytest.approx(np.abs(report.sample - report.analytic))


def test_deviation_report_divides_a_leading_k_decomposition_by_the_matrix_order():
    # Five pairs of a 300 x 300 Gram: the sample is lambda_i / 300, not / 5.
    spec = GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0)
    K = gram_matrix(rbf(1.0), gaussian_synthetic(300, 1, sigma=1.0, seed=3))
    w, eig = np.linalg.eigvalsh(K)[::-1], eigendecompose(K, k=5)
    report = eigenvalue_deviation_report(eig, spec, count=3)
    assert report.rel_deviation.shape == (3,)
    assert np.abs(report.sample - w[:3] / 300).max() <= 1e-12 * w[0] / 300
    with pytest.raises(ValueError):
        eigenvalue_deviation_report(eig, spec, count=6)


def test_deviation_shrinks_with_sample_size():
    # leading eigenvalue deviation should not grow as n quadruples
    spec = GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0)
    med = {}
    for n in (200, 800):
        devs = []
        for s in range(3):
            X = gaussian_synthetic(n, 1, sigma=1.0, seed=10 + s)
            eig = eigendecompose(gram_matrix(rbf(1.0), X), k=1)
            devs.append(eigenvalue_deviation_report(eig, spec, count=1).rel_deviation[0])
        med[n] = np.median(devs)
    assert med[800] <= med[200] * 1.5  # non-increasing within noise


def test_entry_laws():
    law = bernoulli(0.5)
    assert law.variance == pytest.approx(0.25)
    rng = np.random.default_rng(0)
    draw = law.sample(rng, (1000,))
    assert set(np.unique(draw)) <= {0.0, 1.0}
    assert scaled(0.0, 1.0).variance == pytest.approx(1.0 / 12.0)
    s = scaled(0.2, 0.8)
    assert s.variance == pytest.approx(0.36 / 12.0)
    draw = s.sample(rng, (1000,))
    assert draw.min() >= 0.2 and draw.max() <= 0.8
    with pytest.raises(ValueError):
        bernoulli(0.0)
    with pytest.raises(ValueError):
        scaled(0.5, 0.2)


def test_subspace_dimension_requirement():
    # bernoulli(1/2) has variance 1/4, so q must be at least 256
    with pytest.raises(ValueError, match="256"):
        subspace_distance_experiment(n=1024, q=255, law=bernoulli(0.5), trials=10, seed=0)


def test_subspace_experiment_report():
    report = subspace_distance_experiment(
        n=512, q=256, law=bernoulli(0.5), trials=2000, seed=4)
    assert report.trials == 2000
    # sigma sqrt(q) = 8 for this law and dimension
    assert report.sigma2 == pytest.approx(0.25)
    assert report.bounds == pytest.approx(4.0 * np.exp(-report.thresholds**2 / 32.0))
    # frequencies are probabilities of nested events: non-increasing in t
    assert np.all(np.diff(report.frequencies) <= 1e-12)
    assert np.all((0.0 <= report.frequencies) & (report.frequencies <= 1.0))
    # the concentration bound holds empirically on the default grid
    assert np.all(report.frequencies <= report.bounds)


def test_subspace_experiment_other_laws():
    law = scaled(0.0, 1.0)
    q = int(np.ceil(64.0 / law.variance))
    report = subspace_distance_experiment(n=2 * q, q=q, law=law, trials=500, seed=5)
    assert np.all(report.frequencies <= report.bounds)


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
    a = subspace_distance_experiment(n=512, q=256, law=bernoulli(0.5), trials=300, seed=6)
    b = subspace_distance_experiment(n=512, q=256, law=bernoulli(0.5), trials=300, seed=6)
    assert np.array_equal(a.frequencies, b.frequencies)
    # the value a Householder QR projection gives; the Cholesky route must match it
    assert a.frequencies.tolist() == [0.0, 0.0, 0.0, 0.0]


def _swap_first_two_vectors(eig):
    # Eigenvectors paired with the wrong eigenvalues.
    U = eig.eigenvectors[:, [1, 0, *range(2, eig.n)]]
    return EigenDecomposition(eigenvalues=eig.eigenvalues, eigenvectors=U)


def _second_minor_value_past_first(minor):
    v = minor.eigenvalues.copy()
    v[1] = 2.0 * v[0] - v[1]  # reflected past its neighbour v[0]
    return EigenDecomposition(eigenvalues=v, eigenvectors=minor.eigenvectors)


def _spectrum_at_double_bandwidth(spec, count):
    return tensor_spectrum(GaussianRbfSpectrum(sigma=spec.sigma, bandwidth=2.0 * spec.bandwidth), count)


@pytest.mark.parametrize("name, target, fault", [
    ("identity", "eigendecompose", lambda f: lambda K: _swap_first_two_vectors(f(K))),
    ("interlacing", "minor_decomposition", lambda f: lambda K: _second_minor_value_past_first(f(K))),
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
