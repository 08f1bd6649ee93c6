import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernlr import (
    compare_methods,
    eigendecompose,
    factor_from_eigendecomposition,
    gaussian_synthetic,
    gram_matrix,
    jl_approximation,
    jl_error_bound,
    median_heuristic,
    rbf,
)
from kernlr.random_projection import _max_entry_error
from kernlr.spectral import _PANEL_ROWS


def test_factor_identity():
    f = factor_from_eigendecomposition(eigendecompose(np.eye(4)))
    assert f.root == pytest.approx(np.eye(4), abs=1e-12)
    assert f.clip_mass == 0.0


def test_factor_diagonal():
    f = factor_from_eigendecomposition(eigendecompose(np.diag([4.0, 9.0])))
    assert f.root == pytest.approx(np.diag([2.0, 3.0]), abs=1e-12)


def test_factor_clips_negative_roundoff():
    f = factor_from_eigendecomposition(eigendecompose(np.diag([1.0, -1e-12])))
    assert f.root == pytest.approx(np.diag([1.0, 0.0]), abs=1e-12)
    assert f.clip_mass == pytest.approx(1e-12)


def test_factor_squares_back_to_input():
    X = gaussian_synthetic(40, 3, sigma=1.0, seed=0)
    K = np.asarray(gram_matrix(rbf(1.0), X), dtype=float)
    f = factor_from_eigendecomposition(eigendecompose(K))
    assert np.abs(f.root @ f.root.T - K).max() <= 1e-6 * np.abs(K).max() + f.clip_mass


def test_jl_deterministic_given_seed():
    f = factor_from_eigendecomposition(eigendecompose(np.eye(6)))
    a = jl_approximation(f, 2, seed=42)
    b = jl_approximation(f, 2, seed=42)
    assert np.array_equal(a, b)
    c = jl_approximation(f, 2, seed=43)
    assert not np.array_equal(a, c)


def test_jl_output_is_symmetric_psd_and_low_rank():
    X = gaussian_synthetic(30, 2, sigma=1.0, seed=1)
    f = factor_from_eigendecomposition(eigendecompose(gram_matrix(rbf(1.0), X)))
    for d in (1, 3, 10):
        M = jl_approximation(f, d, seed=d)
        assert np.array_equal(M, M.T)
        w = np.linalg.eigvalsh(M)
        assert w.min() >= -1e-8 * max(w.max(), 1.0)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[d:].max(initial=0.0) <= 1e-8 * s[0]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_jl_is_bitwise_symmetric_and_seed_deterministic(data):
    # A PSD matrix of drawn size and rank; the same drawn seed twice.
    n = data.draw(st.integers(1, 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((n, data.draw(st.integers(1, 2 * n))))
    K = G @ G.T
    factor = factor_from_eigendecomposition(eigendecompose(np.triu(K) + np.triu(K, 1).T))
    d = data.draw(st.integers(1, n))
    seed = data.draw(st.integers(0, 2**64 - 1))
    A = jl_approximation(factor, d, seed)
    assert np.array_equal(A, A.T)
    assert np.array_equal(A, jl_approximation(factor, d, seed))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_max_entry_error_equals_the_dense_residual_max(data):
    # Sizes cross the row-panel edges; K is indefinite, so the max may be
    # either sign and off the diagonal.
    n = data.draw(st.integers(1, 3 * _PANEL_ROWS + 7))
    d = data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    S = rng.standard_normal((n, d))
    A = rng.standard_normal((n, n))
    K = A + A.T
    dense = np.abs(S @ S.T - K).max()
    assert _max_entry_error(S, K) == pytest.approx(dense, rel=1e-12, abs=1e-12 * d)


def test_jl_rank_validation():
    f = factor_from_eigendecomposition(eigendecompose(np.eye(5)))
    for bad in (0, 6, -1):
        with pytest.raises(ValueError):
            jl_approximation(f, bad, seed=0)


def test_jl_unbiasedness():
    # E[R R^T] = I, so the sketch is entrywise unbiased; 2000 seeded draws,
    # every entry within three standard errors of the target
    X = gaussian_synthetic(12, 2, sigma=1.0, seed=9)
    K = np.asarray(gram_matrix(rbf(1.0), X), dtype=float)
    f = factor_from_eigendecomposition(eigendecompose(K))
    acc = np.zeros_like(K)
    acc2 = np.zeros_like(K)
    trials = 2000
    for s in range(trials):
        M = jl_approximation(f, 3, np.random.SeedSequence(entropy=77, spawn_key=(s,)))
        acc += M
        acc2 += M * M
    mean = acc / trials
    se = np.sqrt((acc2 / trials - mean**2) / trials)
    assert np.all(np.abs(mean - K) <= 3.0 * se)


def test_jl_error_bound_values():
    assert jl_error_bound(100, 25) == pytest.approx(0.42919, abs=5e-6)
    assert jl_error_bound(100, 1) == pytest.approx(np.sqrt(np.log(100.0)))
    n = 5000
    assert jl_error_bound(n, 64) == pytest.approx(jl_error_bound(n, 16) / 2.0)
    with pytest.raises(ValueError):
        jl_error_bound(1, 4)
    with pytest.raises(ValueError):
        jl_error_bound(10, 0)


@pytest.fixture(scope="module")
def rbf_gram_300():
    X = gaussian_synthetic(300, 5, sigma=1.0, seed=3)
    return gram_matrix(rbf(median_heuristic(X)), X)


def test_compare_methods_table(rbf_gram_300):
    result = compare_methods(rbf_gram_300, [16, 64, 256], trials=50, seed=11)
    assert result.ranks.tolist() == [16, 64, 256]
    # rate-shape column recomputed
    assert result.jl_rate_shape == pytest.approx([jl_error_bound(300, d) for d in (16, 64, 256)])
    # the optimal truncation beats the sketch median at every rank
    assert np.all(result.spectral_max_error <= result.jl_median_max_error)
    # quadrupling the rank roughly halves the sketch error
    ratio = result.jl_median_max_error[0] / result.jl_median_max_error[1]
    assert 1.4 <= ratio <= 2.9


def test_compare_methods_scaling_slope(rbf_gram_300):
    result = compare_methods(rbf_gram_300, [16, 64, 256], trials=50, seed=11)
    slope = np.polyfit(np.log(result.ranks), np.log(result.jl_median_max_error), 1)[0]
    assert -0.7 <= slope <= -0.3


def test_compare_methods_deterministic(rbf_gram_300):
    a = compare_methods(rbf_gram_300, [8, 32], trials=5, seed=21)
    b = compare_methods(rbf_gram_300, [8, 32], trials=5, seed=21)
    assert np.array_equal(a.jl_median_max_error, b.jl_median_max_error)


def test_compare_methods_keeps_the_jl_approximation_stream():
    # Trial t at the j-th rank is the sketch jl_approximation draws from
    # SeedSequence(entropy=seed, spawn_key=(j, t)); compare_methods reads its
    # error from the factor, and must give the same median.
    X = gaussian_synthetic(70, 2, sigma=1.0, seed=4)
    K = np.asarray(gram_matrix(rbf(median_heuristic(X)), X))
    ranks, trials, seed = [9, 1, 70, 9], 5, 123
    factor = factor_from_eigendecomposition(eigendecompose(K))
    expected = [np.median([np.abs(jl_approximation(
        factor, d, np.random.SeedSequence(entropy=seed, spawn_key=(j, t))) - K).max()
        for t in range(trials)]) for j, d in enumerate(ranks)]
    result = compare_methods(K, ranks, trials, seed)
    assert result.jl_median_max_error == pytest.approx(expected, rel=1e-12)


def test_compare_methods_full_rank_spectral_error_is_zero(rbf_gram_300):
    result = compare_methods(rbf_gram_300, [300], trials=1, seed=0)
    assert result.spectral_max_error[0] == 0.0
