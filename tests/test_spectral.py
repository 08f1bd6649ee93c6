import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernlr import (
    eigendecompose,
    error_sweep,
    gaussian_synthetic,
    gram_matrix,
    rbf,
    sup_norm_tail,
    tail_abs_sum,
    truncate,
)

K2 = np.array([[2.0, 1.0], [1.0, 2.0]])


def _random_symmetric(n, rng):
    A = rng.standard_normal((n, n))
    S = (A + A.T) / 2.0
    return np.triu(S) + np.triu(S, 1).T


def _random_psd(n, rng, dof=None):
    G = rng.standard_normal((dof or 2 * n, n))
    S = G.T @ G / (dof or 2 * n)
    return np.triu(S) + np.triu(S, 1).T


def test_eigendecompose_identity():
    eig = eigendecompose(np.eye(5))
    assert eig.eigenvalues == pytest.approx(np.ones(5))
    U = eig.eigenvectors
    assert U.T @ U == pytest.approx(np.eye(5), abs=1e-12)


def test_eigendecompose_2x2_hand_case():
    eig = eigendecompose(K2)
    assert eig.eigenvalues == pytest.approx([3.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    assert eig.eigenvectors[:, 0] == pytest.approx([s, s])
    assert eig.eigenvectors[:, 1] == pytest.approx([s, -s])  # sign fixed at index 0


def test_eigendecompose_diagonal():
    eig = eigendecompose(np.diag([5.0, 2.0, -1.0]))
    assert eig.eigenvalues == pytest.approx([5.0, 2.0, -1.0])
    assert np.abs(eig.eigenvectors) == pytest.approx(np.eye(3), abs=1e-12)


def test_eigendecompose_invariants_random():
    rng = np.random.default_rng(0)
    K = _random_symmetric(40, rng)
    eig = eigendecompose(K)
    assert np.all(np.diff(eig.eigenvalues) <= 1e-12)
    U = eig.eigenvectors
    assert np.abs(U.T @ U - np.eye(40)).max() <= 1e-8
    recon = (U * eig.eigenvalues) @ U.T
    assert np.abs(recon - K).max() <= 1e-8 * np.abs(K).max()
    # deterministic sign: the largest-magnitude coordinate of each column is positive
    lead = np.argmax(np.abs(U), axis=0)
    assert np.all(U[lead, np.arange(40)] > 0)


def test_eigendecompose_rejects_asymmetric_and_nonfinite():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]]))
    with pytest.raises(ValueError):
        eigendecompose(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_truncate_full_rank_reconstructs():
    rng = np.random.default_rng(1)
    K = _random_symmetric(12, rng)
    eig = eigendecompose(K)
    assert np.abs(truncate(eig, 12) - K).max() <= 1e-8 * np.abs(K).max()


def test_truncate_rank_zero_and_hand_case():
    eig = eigendecompose(K2)
    assert np.array_equal(truncate(eig, 0), np.zeros((2, 2)))
    assert truncate(eig, 1) == pytest.approx(np.full((2, 2), 1.5))


def test_truncate_is_exactly_symmetric_and_validates_rank():
    rng = np.random.default_rng(2)
    eig = eigendecompose(_random_symmetric(9, rng))
    T = truncate(eig, 4)
    assert np.array_equal(T, T.T)
    for bad in (-1, 10, 2.5):
        with pytest.raises(ValueError):
            truncate(eig, bad)


def test_error_sweep_hand_case():
    eig = eigendecompose(K2)
    sweep = error_sweep(K2, eig, [0, 1, 2])
    assert sweep.max_entry_error == pytest.approx([2.0, 0.5, 0.0])
    assert sweep.frobenius_error == pytest.approx([np.sqrt(10.0), 1.0, 0.0])
    assert sweep.spectral_error == pytest.approx([3.0, 1.0, 0.0])
    assert sweep.tail_abs_sum == pytest.approx([4.0, 1.0, 0.0])


def test_error_sweep_rank_zero_is_the_matrix_norms():
    rng = np.random.default_rng(3)
    K = _random_psd(20, rng)
    sweep = error_sweep(K, eigendecompose(K), [0])
    assert sweep.max_entry_error[0] == pytest.approx(np.abs(K).max())
    assert sweep.frobenius_error[0] == pytest.approx(np.linalg.norm(K))


def test_error_sweep_full_rank_is_exactly_zero():
    rng = np.random.default_rng(4)
    K = _random_psd(15, rng)
    sweep = error_sweep(K, eigendecompose(K), [15])
    assert sweep.max_entry_error[0] == 0.0
    assert sweep.frobenius_error[0] == 0.0
    assert sweep.spectral_error[0] == 0.0


def test_error_sweep_validates_ranks():
    eig = eigendecompose(K2)
    with pytest.raises(ValueError):
        error_sweep(K2, eig, [1, 0])
    with pytest.raises(ValueError):
        error_sweep(K2, eig, [0, 3])


def test_error_sweep_pythagoras_and_monotonicity():
    rng = np.random.default_rng(5)
    K = _random_symmetric(30, rng)
    eig = eigendecompose(K)
    ranks = list(range(0, 31))
    sweep = error_sweep(K, eig, ranks)
    total = np.sum(eig.eigenvalues**2)
    for i, d in enumerate(ranks):
        kept = np.sum(eig.eigenvalues[:d] ** 2)
        assert sweep.frobenius_error[i] ** 2 + kept == pytest.approx(total, rel=1e-6)
        tail_sq = np.sum(eig.eigenvalues[d:] ** 2)
        assert sweep.frobenius_error[i] ** 2 == pytest.approx(tail_sq, rel=1e-6, abs=1e-9)
    assert np.all(np.diff(sweep.frobenius_error) <= 1e-12)
    assert np.all(np.diff(sweep.tail_abs_sum) <= 1e-12)


def test_error_sweep_chain_inequality():
    # max-entry error is bounded by tail mass times squared tail sup-norm
    rng = np.random.default_rng(6)
    K = _random_psd(40, rng)
    eig = eigendecompose(K)
    sweep = error_sweep(K, eig, list(range(0, 40, 3)))
    bound = sweep.tail_abs_sum * sweep.sup_norm_tail**2
    assert np.all(sweep.max_entry_error <= bound * (1 + 1e-12) + 1e-12)


def test_incremental_residual_matches_direct():
    rng = np.random.default_rng(7)
    K = _random_psd(30, rng)
    eig = eigendecompose(K)
    sweep = error_sweep(K, eig, [1, 5, 15])
    for i, d in enumerate([1, 5, 15]):
        direct = K - truncate(eig, d)
        assert abs(sweep.max_entry_error[i] - np.abs(direct).max()) <= 1e-9


@st.composite
def _matrix_and_ranks(draw):
    # A symmetric or PSD matrix (possibly rank-deficient, so with repeated zero
    # eigenvalues) at a drawn scale, and a sorted rank grid that may repeat
    # ranks and contain 0 and n.
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        K = _random_psd(n, rng, dof=draw(st.integers(1, 2 * n)))
    else:
        K = _random_symmetric(n, rng)
    K *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    ranks = sorted(draw(st.lists(st.integers(0, n), max_size=8))
                   + draw(st.lists(st.sampled_from([0, n]), max_size=2)))
    return K, ranks


@settings(max_examples=150, deadline=None)
@given(case=_matrix_and_ranks())
def test_error_sweep_matches_direct_residual_and_tail_statistics(case):
    K, ranks = case
    eig = eigendecompose(K)
    sweep = error_sweep(K, eig, ranks)
    tol = 1e-12 * np.linalg.norm(K)
    for i, d in enumerate(ranks):
        direct = K - truncate(eig, d)
        assert abs(sweep.max_entry_error[i] - np.abs(direct).max()) <= tol
        assert abs(sweep.frobenius_error[i] - np.linalg.norm(direct)) <= tol
        if d < eig.n:
            assert sweep.tail_abs_sum[i] == tail_abs_sum(eig, d)
            assert sweep.sup_norm_tail[i] == sup_norm_tail(eig, d)
    assert np.all(np.diff(sweep.frobenius_error) <= tol)
    assert np.all(np.diff(sweep.tail_abs_sum) <= 0.0)


def test_spectral_error_matches_power_iteration():
    rng = np.random.default_rng(8)
    K = _random_symmetric(25, rng)
    eig = eigendecompose(K)
    for d in (1, 5, 12):
        R = K - truncate(eig, d)
        v = rng.standard_normal(25)
        v /= np.linalg.norm(v)
        for _ in range(2000):
            v = R @ v
            v /= np.linalg.norm(v)
        est = abs(v @ R @ v)
        sweep = error_sweep(K, eig, [d])
        assert sweep.spectral_error[0] == pytest.approx(est, rel=1e-4)


def test_eym_small_instance_oracle():
    # truncation beats random rank-d candidates in Frobenius norm
    rng = np.random.default_rng(9)
    for _ in range(10):
        K = _random_symmetric(8, rng)
        eig = eigendecompose(K)
        sweep = error_sweep(K, eig, list(range(1, 8)))
        for i, d in enumerate(range(1, 8)):
            for _ in range(100):
                Q, _ = np.linalg.qr(rng.standard_normal((8, d)))
                V = rng.standard_normal((d, 8))
                assert np.linalg.norm(K - Q @ V) >= sweep.frobenius_error[i]


def test_tail_abs_sum():
    eig = eigendecompose(np.diag([5.0, 2.0, -1.0]))
    assert tail_abs_sum(eig, 0) == pytest.approx(8.0)
    assert tail_abs_sum(eig, 1) == pytest.approx(3.0)
    assert tail_abs_sum(eig, 3) == 0.0
    with pytest.raises(ValueError):
        tail_abs_sum(eig, 4)


def test_tail_abs_sum_equals_trace_for_psd():
    rng = np.random.default_rng(10)
    K = _random_psd(12, rng)
    assert tail_abs_sum(eigendecompose(K), 0) == pytest.approx(np.trace(K))


def test_sup_norm_tail():
    eig = eigendecompose(np.eye(4))
    assert sup_norm_tail(eig, 0) == pytest.approx(1.0)
    assert sup_norm_tail(eig, 3) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sup_norm_tail(eig, 4)
    one = eigendecompose(np.array([[2.0]]))
    assert sup_norm_tail(one, 0) == pytest.approx(1.0)


def test_sup_norm_tail_random_orthogonal_basis_is_delocalised():
    # a Haar-random orthonormal basis has sup-norm around sqrt(2 ln n / n)
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((1000, 1000)))
    from kernlr import EigenDecomposition

    eig = EigenDecomposition(eigenvalues=np.arange(1000, 0, -1, dtype=float),
                             eigenvectors=Q)
    assert sup_norm_tail(eig, 0) <= 0.3


def test_rbf_gram_eigendecomposition_quality():
    X = gaussian_synthetic(150, 2, sigma=1.0, seed=12)
    K = gram_matrix(rbf(1.0), X)
    eig = eigendecompose(K)
    U = eig.eigenvectors
    assert np.abs(U.T @ U - np.eye(150)).max() <= 1e-8
    recon = (U * eig.eigenvalues) @ U.T
    assert np.abs(recon - np.asarray(K)).max() <= 1e-8
