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
    jl_error_bound,
    median_heuristic,
    rbf,
)
from kernlr.random_projection import _max_entry_error, _sketch_factor
from kernlr.spectral import _PANEL_ROWS


def test_factor_identity():
    root = factor_from_eigendecomposition(eigendecompose(np.eye(4)))
    assert root == pytest.approx(np.eye(4), abs=1e-12)


def test_factor_diagonal():
    root = factor_from_eigendecomposition(eigendecompose(np.diag([4.0, 9.0])))
    assert root == pytest.approx(np.diag([2.0, 3.0]), abs=1e-12)


def test_factor_clips_negative_roundoff():
    root = factor_from_eigendecomposition(eigendecompose(np.diag([1.0, -1e-12])))
    assert root == pytest.approx(np.diag([1.0, 0.0]), abs=1e-12)


def test_factor_squares_back_to_input():
    X = gaussian_synthetic(40, 3, sigma=1.0, seed=0)
    K = np.asarray(gram_matrix(rbf(1.0), X), dtype=float)
    eig = eigendecompose(K)
    root = factor_from_eigendecomposition(eig)
    clipped = -np.minimum(eig.eigenvalues, 0.0).sum()
    assert np.abs(root @ root.T - K).max() <= 1e-6 * np.abs(K).max() + clipped


def test_sketch_factor_deterministic_given_seed():
    root = factor_from_eigendecomposition(eigendecompose(np.eye(6)))
    a = _sketch_factor(root, 2, seed=42)
    assert a.shape == (6, 2)
    assert np.array_equal(a, _sketch_factor(root, 2, seed=42))
    assert not np.array_equal(a, _sketch_factor(root, 2, seed=43))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sketch_factor_is_seed_deterministic(data):
    # A PSD matrix of drawn size and rank; the same drawn seed twice.
    n = data.draw(st.integers(1, 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((n, data.draw(st.integers(1, 2 * n))))
    K = G @ G.T
    root = factor_from_eigendecomposition(eigendecompose(np.triu(K) + np.triu(K, 1).T))
    d = data.draw(st.integers(1, n))
    seed = data.draw(st.integers(0, 2**64 - 1))
    assert np.array_equal(_sketch_factor(root, d, seed), _sketch_factor(root, d, seed))


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


def test_sketch_factor_rank_validation():
    root = factor_from_eigendecomposition(eigendecompose(np.eye(5)))
    for bad in (0, 6, -1):
        with pytest.raises(ValueError):
            _sketch_factor(root, bad, seed=0)


def test_sketch_unbiasedness():
    # E[R R^T] = I, so the sketch S S^T is entrywise unbiased; 2000 seeded
    # draws, every entry within three standard errors of the target
    X = gaussian_synthetic(12, 2, sigma=1.0, seed=9)
    K = np.asarray(gram_matrix(rbf(1.0), X), dtype=float)
    root = factor_from_eigendecomposition(eigendecompose(K))
    acc = np.zeros_like(K)
    acc2 = np.zeros_like(K)
    trials = 2000
    for s in range(trials):
        S = _sketch_factor(root, 3, np.random.SeedSequence(entropy=77, spawn_key=(s,)))
        M = S @ S.T
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
    assert result.spectral_max_error.shape == result.jl_median_max_error.shape == (3,)
    # the optimal truncation beats the sketch median at every rank
    assert np.all(result.spectral_max_error <= result.jl_median_max_error)
    # quadrupling the rank roughly halves the sketch error
    ratio = result.jl_median_max_error[0] / result.jl_median_max_error[1]
    assert 1.4 <= ratio <= 2.9


def test_compare_methods_scaling_slope(rbf_gram_300):
    ranks = [16, 64, 256]
    result = compare_methods(rbf_gram_300, ranks, trials=50, seed=11)
    slope = np.polyfit(np.log(ranks), np.log(result.jl_median_max_error), 1)[0]
    assert -0.7 <= slope <= -0.3


def test_compare_methods_deterministic(rbf_gram_300):
    a = compare_methods(rbf_gram_300, [8, 32], trials=5, seed=21)
    b = compare_methods(rbf_gram_300, [8, 32], trials=5, seed=21)
    assert np.array_equal(a.jl_median_max_error, b.jl_median_max_error)


def test_compare_methods_keeps_its_sketch_stream():
    # Trial t at the j-th rank d draws R from SeedSequence(entropy=seed,
    # spawn_key=(j, t)), scales it by 1/sqrt(d) and sketches S = root @ R;
    # compare_methods reads the error from S in panels, and must give the
    # median of the dense errors of these draws.
    X = gaussian_synthetic(70, 2, sigma=1.0, seed=4)
    K = np.asarray(gram_matrix(rbf(median_heuristic(X)), X))
    ranks, trials, seed = [9, 1, 70, 9], 5, 123
    root = factor_from_eigendecomposition(eigendecompose(K))

    def dense_error(j, d, t):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j, t)))
        S = root @ (rng.standard_normal((70, d)) / np.sqrt(d))
        return np.abs(S @ S.T - K).max()

    expected = [np.median([dense_error(j, d, t) for t in range(trials)])
                for j, d in enumerate(ranks)]
    result = compare_methods(K, ranks, trials, seed)
    assert result.jl_median_max_error == pytest.approx(expected, rel=1e-12)


def test_compare_methods_full_rank_spectral_error_is_zero(rbf_gram_300):
    result = compare_methods(rbf_gram_300, [300], trials=1, seed=0)
    assert result.spectral_max_error[0] == 0.0
