import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernlr import (
    DecayHypothesis,
    EigenDecomposition,
    EigensolverError,
    GaussianRbfSpectrum,
    KernelSpec,
    beta_from_upsilon,
    compare_methods,
    delocalisation_report,
    dot_product,
    eigendecompose,
    eigenvalue_deviation_report,
    entrywise_error_rate,
    error_sweep,
    exp_tail_bound,
    exponential_decay,
    factor_from_eigendecomposition,
    gaussian_rbf_eigenfunction,
    gaussian_rbf_eigenvalue,
    gaussian_synthetic,
    gmm_synthetic,
    gram_matrix,
    jl_error_bound,
    matern,
    median_heuristic,
    poly_tail_bound,
    polynomial_decay,
    rbf,
    required_rank,
    sphere_decay_hypothesis,
    sphere_harmonic_count,
    sphere_uniform,
    subsample,
    subspace_distance_experiment,
    tensor_spectrum,
    truncate,
)
from kernlr import spectral, verification
from kernlr.spectral import LEADING_K_TOLERANCE

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


@pytest.mark.parametrize("i, j", [(0, 1), (31, 32), (32, 31), (40, 70), (99, 98), (5, 99)])
def test_symmetry_check_finds_one_ulp_in_any_panel(i, j):
    # The check walks row panels; an asymmetry on either side of the diagonal
    # and across a panel boundary is found, and a non-finite entry is named as
    # such even where it sits symmetrically.
    K = _random_symmetric(100, np.random.default_rng(3))
    eigendecompose(K)
    K[i, j] = np.nextafter(K[i, j], np.inf)
    with pytest.raises(ValueError, match="not exactly symmetric"):
        eigendecompose(K)
    K[i, j] = K[j, i] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        eigendecompose(K)
    K[i, j] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        eigendecompose(K)


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
            assert sweep.tail_abs_sum[i] == pytest.approx(np.abs(eig.eigenvalues[d:]).sum(), rel=1e-12)
            assert sweep.sup_norm_tail[i] == np.abs(eig.eigenvectors[:, d:]).max()
    assert np.all(np.diff(sweep.frobenius_error) <= tol)
    assert np.all(np.diff(sweep.tail_abs_sum) <= 0.0)


def _kernel_gram(draw, n):
    # A kernel Gram matrix of order n, PSD up to round-off.
    seed = draw(st.integers(0, 2**32 - 1))
    family = draw(st.sampled_from(["rbf", "matern", "dot_product"]))
    if family == "dot_product":
        X = sphere_uniform(n, draw(st.integers(2, 4)), seed=seed)
        kernel = dot_product([0.5**i for i in range(draw(st.integers(1, 40)))])
    else:
        X = gaussian_synthetic(n, draw(st.integers(1, 4)), seed=seed)
        bandwidth = draw(st.sampled_from([0.3, 1.0, 3.0]))
        kernel = (rbf(bandwidth) if family == "rbf"
                  else matern(draw(st.sampled_from([0.5, 1.5, 2.5])), bandwidth))
    return gram_matrix(kernel, X)


@st.composite
def _kernel_gram_and_ranks(draw):
    # A kernel Gram matrix and a rank grid with at least one rank in [n/2, n],
    # where the smooth kernels' spectra are round-off.
    n = draw(st.integers(1, 200))
    K = _kernel_gram(draw, n)
    ranks = sorted(draw(st.lists(st.integers(0, n), max_size=4))
                   + draw(st.lists(st.integers(n // 2, n), min_size=1, max_size=4)))
    return K, ranks


@settings(max_examples=60, deadline=None)
@given(case=_kernel_gram_and_ranks())
def test_error_sweep_on_kernel_grams_matches_direct_residual(case):
    K, ranks = case
    eig = eigendecompose(K)
    w, U = eig.eigenvalues, eig.eigenvectors
    # The negative part is below the fallback threshold: the diagonal path runs.
    negative = -((U * U) @ np.minimum(w, 0.0)).min()
    assert negative <= K.shape[0] * np.finfo(float).eps * np.abs(w).max()
    sweep = error_sweep(K, eig, ranks)
    tol = 1e-12 * np.linalg.norm(K)
    for i, d in enumerate(ranks):
        direct = K - truncate(eig, d)
        assert abs(sweep.max_entry_error[i] - np.abs(direct).max()) <= tol
        assert abs(sweep.frobenius_error[i] - np.linalg.norm(direct)) <= tol


@st.composite
def _kernel_gram_and_k(draw):
    n = draw(st.integers(4, 200))
    return _kernel_gram(draw, n), draw(st.integers(1, n // 4))


def _assert_leading_pairs(K, eig, k):
    # The checks every leading-k result passes against np.linalg.eigvalsh.
    w = np.linalg.eigvalsh(K)[::-1]
    tol = LEADING_K_TOLERANCE * w[0]
    U = eig.eigenvectors
    assert eig.n == K.shape[0] and eig.eigenvalues.shape == (k,) and U.shape == (K.shape[0], k)
    assert np.abs(eig.eigenvalues - w[:k]).max() <= tol
    assert np.linalg.norm(K @ U - U * eig.eigenvalues, axis=0).max() <= tol
    assert np.abs(U.T @ U - np.eye(k)).max() <= 1e-12
    lead = np.argmax(np.abs(U), axis=0)
    assert np.all(U[lead, np.arange(k)] > 0.0)


@settings(max_examples=100, deadline=None)
@given(case=_kernel_gram_and_k())
def test_leading_k_pairs_match_eigvalsh_on_kernel_grams(case):
    # Every draw converges, near-identity Grams at a small bandwidth included.
    K, k = case
    eig = eigendecompose(K, k=k)
    _assert_leading_pairs(K, eig, k)
    again = eigendecompose(K, k=k)
    assert np.array_equal(again.eigenvalues, eig.eigenvalues)
    assert np.array_equal(again.eigenvectors, eig.eigenvectors)


def test_leading_k_inside_a_harmonic_cluster_on_the_sphere():
    # Dot-product kernel 0.5**i on S^2 at n = 2000: k = 38 falls inside the
    # 13-fold degree-6 cluster (indices 36-48), where lambda_37 / lambda_38 is
    # about 1.04, so the block of 81 must reach past the cluster.
    K = gram_matrix(dot_product([0.5**i for i in range(54)]), sphere_uniform(2000, 3, seed=0))
    _assert_leading_pairs(K, eigendecompose(K, k=38), 38)


def test_leading_k_with_the_block_as_large_as_the_matrix_is_the_full_path():
    # b = k + 10 = n: the first k pairs of the dense path, as copies.
    K = _random_psd(20, np.random.default_rng(4))
    full, head = eigendecompose(K), eigendecompose(K, k=10)
    assert np.array_equal(head.eigenvalues, full.eigenvalues[:10])
    assert np.array_equal(head.eigenvectors, full.eigenvectors[:, :10])
    assert head.eigenvectors.base is None


_K40 = gram_matrix(rbf(1.0), gaussian_synthetic(40, 1, seed=6))
_LEADING = eigendecompose(_K40, k=3)  # b = 13 < 40: the block Krylov iteration runs


@pytest.mark.parametrize("call", [
    lambda eig: error_sweep(_K40, eig, [0, 1]),
    lambda eig: delocalisation_report(eig, 1),
    factor_from_eigendecomposition,
], ids=["error_sweep", "delocalisation_report", "factor_from_eigendecomposition"])
def test_tail_readers_refuse_a_leading_k_decomposition(call):
    assert _LEADING.n == 40 and _LEADING.eigenvalues.shape == (3,)
    with pytest.raises(ValueError, match="^needs the full decomposition, got the leading 3 of 40 pairs$"):
        call(_LEADING)


def test_truncate_takes_a_leading_k_decomposition_up_to_k():
    assert np.abs(truncate(_LEADING, 3) - truncate(eigendecompose(_K40), 3)).max() <= 1e-12
    with pytest.raises(ValueError, match="rank must be an integer in"):
        truncate(_LEADING, 4)


def test_leading_k_refuses_a_negative_eigenvalue_that_outweighs_the_kth():
    # The block would lock onto -10 and could miss positive eigenvalues; the
    # same matrix with the sign flipped is PSD and passes.
    Q = np.linalg.qr(np.random.default_rng(7).standard_normal((40, 40)))[0]
    w = np.concatenate([[-10.0], 0.5 ** np.arange(39)])
    K = (Q * w) @ Q.T
    K = np.triu(K) + np.triu(K, 1).T
    with pytest.raises(ValueError, match="^the leading-k eigensolver needs the k largest eigenvalues "
                                         "to dominate in magnitude; a negative eigenvalue competes$"):
        eigendecompose(K, k=3)
    K = (Q * np.abs(w)) @ Q.T
    K = np.triu(K) + np.triu(K, 1).T
    _assert_leading_pairs(K, eigendecompose(K, k=3), 3)


_GMM2000 = gmm_synthetic(2000)


@pytest.mark.parametrize("kernel, X, k", [
    (rbf(0.3), gaussian_synthetic(200, 4, seed=0), 10),
    (matern(0.5, median_heuristic(_GMM2000)), _GMM2000, 40),
], ids=["rbf0.3-gaussian4-n200", "matern12-gmm-n2000"])
def test_leading_k_converges_on_slowly_decaying_spectra(kernel, X, k):
    # lambda_{k+11} / lambda_k is 0.82 for the near-identity rbf Gram and
    # 0.90 for the Matern 1/2 one, so a block of k + 10 alone gains little per step.
    K = gram_matrix(kernel, X)
    _assert_leading_pairs(K, eigendecompose(K, k=k), k)


def test_leading_k_raises_on_the_full_basis_if_the_stop_is_not_met(monkeypatch):
    # A stop no residual meets: the basis grows to all n columns, where
    # Rayleigh-Ritz is exact, and the mode raises there instead of going on.
    monkeypatch.setattr(spectral, "LEADING_K_TOLERANCE", 0.0)
    with pytest.raises(EigensolverError, match=r"^leading 3 eigenpairs not converged on all 40 "
                                               r"columns: residual \S+ above the stop 0$"):
        eigendecompose(_K40, k=3)


def test_only_spectral_calls_a_numpy_eigensolver():
    # One eigen entry point: every other module goes through eigendecompose.
    src = Path(spectral.__file__).parent
    calls = {path.name for path in src.glob("*.py")
             if re.search(r"linalg\.eig(h|valsh|vals)?\b", path.read_text())}
    assert calls == {"spectral.py"}


def test_error_sweep_falls_back_on_an_off_diagonal_maximum():
    # K has a zero diagonal, so the diagonal of its residual at rank 0 is 0;
    # its negative eigenvalue -1 sends error_sweep to the residual walk.
    K = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert error_sweep(K, eigendecompose(K), [0]).max_entry_error[0] == 1.0


def test_error_sweep_falls_back_on_a_larger_indefinite_matrix():
    K = _random_symmetric(40, np.random.default_rng(11))
    np.fill_diagonal(K, 0.0)
    eig = eigendecompose(K)
    ranks = [0, 1, 2, 3]
    sweep = error_sweep(K, eig, ranks)
    for i, d in enumerate(ranks):
        R = np.abs(K - truncate(eig, d))
        assert R.max() > np.diag(R).max()  # the largest entry is off the diagonal
        assert sweep.max_entry_error[i] == pytest.approx(R.max(), rel=1e-12)


@st.composite
def _zero_diagonal_and_ranks(draw):
    # A symmetric matrix with a zero diagonal, so trace 0: unless it is 0, it
    # has a negative eigenvalue. And a sorted rank grid that holds 0 and n.
    n = draw(st.integers(1, 60))
    K = _random_symmetric(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    np.fill_diagonal(K, 0.0)
    K *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return K, sorted([0, n] + draw(st.lists(st.integers(0, n), max_size=6)))


@settings(max_examples=100, deadline=None)
@given(case=_zero_diagonal_and_ranks())
def test_error_sweep_fallback_matches_direct_residual(case):
    K, ranks = case
    eig = eigendecompose(K)
    w, U = eig.eigenvalues, eig.eigenvectors
    # Trace 0 puts at least max|w| / n of negative weight on some diagonal
    # entry, above the n * eps * max|w| threshold: the fallback walk runs.
    negative = -((U * U) @ np.minimum(w, 0.0)).min()
    assert negative > K.shape[0] * np.finfo(float).eps * np.abs(w).max() or not K.any()
    sweep = error_sweep(K, eig, ranks)
    tol = 1e-12 * np.linalg.norm(K)
    for i, d in enumerate(ranks):
        assert abs(sweep.max_entry_error[i] - np.abs(K - truncate(eig, d)).max()) <= tol


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_max_entry_error_walks_a_rank_grid_like_the_dense_residual(data):
    # One walk over an indefinite matrix reads every rank of a sorted grid
    # (repeats and 0 allowed) from the pairs of the largest; sizes cross the
    # row-panel edges.
    n = data.draw(st.integers(1, 3 * spectral._PANEL_ROWS + 7))
    K = _random_symmetric(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    ranks = sorted(data.draw(st.lists(st.integers(0, n), min_size=1, max_size=6)))
    eig = eigendecompose(K)
    U, d = eig.eigenvectors, ranks[-1]
    walked = spectral._max_entry_error(U[:, :d] * eig.eigenvalues[:d], U[:, :d], K, ranks)
    tol = 1e-12 * np.linalg.norm(K)
    for e, d in zip(walked, ranks):
        assert abs(e - np.abs(K - truncate(eig, d)).max()) <= tol


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
    K = np.diag([5.0, 2.0, -1.0])
    eig = eigendecompose(K)
    sweep = error_sweep(K, eig, [0, 1, 3])
    assert sweep.tail_abs_sum == pytest.approx([8.0, 3.0, 0.0])
    assert sweep.tail_abs_sum[2] == 0.0
    with pytest.raises(ValueError):
        error_sweep(K, eig, [4])


def test_tail_abs_sum_equals_trace_for_psd():
    rng = np.random.default_rng(10)
    K = _random_psd(12, rng)
    assert error_sweep(K, eigendecompose(K), [0]).tail_abs_sum[0] == pytest.approx(np.trace(K))


# 4 x 4 Hadamard matrix over 2: orthogonal, with entries of equal magnitude.
_H4 = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
                [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]) / 2.0


@st.composite
def _symmetric_matrices(draw):
    # General symmetric matrices with n <= 30, plus two families whose
    # eigenvectors have coordinates tied in magnitude, so the tie rule of the
    # sign convention is exercised: [[a, b], [b, a]] and H4 diag(w) H4^T.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["general", "pair", "hadamard"]))
    if family == "pair":
        a, b = rng.standard_normal(2)
        return np.array([[a, b], [b, a]])
    if family == "hadamard":
        K = (_H4 * rng.standard_normal(4)) @ _H4.T
        return np.triu(K) + np.triu(K, 1).T
    return _random_symmetric(draw(st.integers(1, 30)), rng)


@settings(max_examples=150, deadline=None)
@given(K=_symmetric_matrices())
def test_eigenvector_sign_convention_on_drawn_matrices(K):
    U = eigendecompose(K).eigenvectors
    for u in U.T:
        first_largest = np.flatnonzero(np.abs(u) == np.abs(u).max())[0]
        assert u[first_largest] > 0.0


def test_sign_convention_panels_match_whole_matrix_rule():
    # n spans many column panels of the sign pass; the result must equal the
    # rule applied to the whole matrix at once, bit for bit.
    K = gram_matrix(rbf(1.0), gaussian_synthetic(600, 3))
    U = np.linalg.eigh(K)[1][:, ::-1].copy()
    flip = U[np.argmax(np.abs(U), axis=0), np.arange(600)] < 0
    U[:, flip] *= -1.0
    assert np.array_equal(eigendecompose(K).eigenvectors, U)


@settings(max_examples=100, deadline=None)
@given(K=_symmetric_matrices(), data=st.data())
def test_truncate_is_bitwise_symmetric_on_drawn_matrices(K, data):
    eig = eigendecompose(K)
    T = truncate(eig, data.draw(st.integers(0, eig.n)))
    assert np.array_equal(T, T.T)


def _eigenvector_layouts(n, seed):
    # The same orthonormal U stored C-ordered, Fortran-ordered and as a view
    # with a negative column stride: B @ B.T must reach SYRK from each.
    U, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return {"C": np.ascontiguousarray(U), "F": np.asfortranarray(U),
            "reversed": np.ascontiguousarray(U[:, ::-1])[:, ::-1]}


# GEMM products (A * w) @ A.T were asymmetric at sizes from 196 on with
# n mod 8 in 4..7 (OpenBLAS 0.3.31), so these sizes would show a lost SYRK.
@pytest.mark.parametrize("n", [204, 231, 300])
@pytest.mark.parametrize("spectrum", ["psd", "indefinite"])
def test_symmetric_products_are_bitwise_symmetric_for_every_layout(n, spectrum):
    w = np.linspace(2.0, 0.0 if spectrum == "psd" else -1.0, n)
    for layout, U in _eigenvector_layouts(n, seed=n).items():
        eig = EigenDecomposition(eigenvalues=w.copy(), eigenvectors=U)
        for name, M in (("truncate n/2", truncate(eig, n // 2)), ("truncate n", truncate(eig, n)),
                        ("root", factor_from_eigendecomposition(eig))):
            assert np.array_equal(M, M.T), (layout, name)


# The array fields of every result type; the Gram matrix and the PSD root are
# the array itself.
_ARRAY_FIELDS = {
    "gram_matrix": None,
    "factor_from_eigendecomposition": None,
    "EigenDecomposition": ["eigenvalues", "eigenvectors"],
    "RankSweepResult": ["max_entry_error", "frobenius_error", "spectral_error",
                        "tail_abs_sum", "sup_norm_tail"],
    "MethodComparison": ["spectral_max_error", "jl_median_max_error"],
    "eigenvalue_deviation_report": None,
    "subspace_distance_experiment": None,
    "TAIL_BOUNDS": None,
}


@pytest.fixture(scope="module")
def results():
    K = gram_matrix(rbf(1.0), gaussian_synthetic(12, 1, sigma=1.0, seed=3))
    eig = eigendecompose(K)
    return {
        "gram_matrix": K,
        "EigenDecomposition": eig,
        "RankSweepResult": error_sweep(K, eig, [0, 2, 12]),
        "factor_from_eigendecomposition": factor_from_eigendecomposition(eig),
        "MethodComparison": compare_methods(K, [1, 3], trials=2, seed=0),
        "eigenvalue_deviation_report": eigenvalue_deviation_report(
            eig, tensor_spectrum(GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0), 3)),
        "subspace_distance_experiment": subspace_distance_experiment(
            n=300, q=256, p0=0.5, trials=1, seed=0),
        "TAIL_BOUNDS": verification.TAIL_BOUNDS,
    }


@pytest.mark.parametrize("name", list(_ARRAY_FIELDS))
def test_result_arrays_reject_writes(results, name):
    result, array_fields = results[name], _ARRAY_FIELDS[name]
    if array_fields is None:
        arrays = [result]
    else:
        assert [f.name for f in dataclasses.fields(result)
                if isinstance(getattr(result, f.name), np.ndarray)] == array_fields
        arrays = [getattr(result, f) for f in array_fields]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, array_fields[0], None)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0.0


def test_delocalisation_report_reads_the_tail_up_to_the_last_pair():
    eig = eigendecompose(np.eye(4))
    assert delocalisation_report(eig, 0) == pytest.approx(2.0)
    assert delocalisation_report(eig, 3) == pytest.approx(2.0)
    with pytest.raises(ValueError, match=r"rank must be an integer in \[0, 3\], got 4"):
        delocalisation_report(eig, 4)
    one = eigendecompose(np.array([[2.0]]))
    assert delocalisation_report(one, 0) == pytest.approx(1.0)


@pytest.mark.parametrize("d", [1.5, True, np.True_, -1, 4, np.nan, np.inf])
def test_delocalisation_report_rejects_a_rank_that_is_not_an_integer_below_n(d):
    eig = eigendecompose(np.eye(4))
    with pytest.raises(ValueError):
        delocalisation_report(eig, d)
    assert (delocalisation_report(eig, np.int64(2)) == delocalisation_report(eig, 2.0)
            == delocalisation_report(eig, 2))


_EIG4 = eigendecompose(np.diag([4.0, 3.0, 2.0, 1.0]))
_SPEC = GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0)
_X = np.arange(20.0).reshape(10, 2)

# Every public integer parameter:
# a call taking the value, and a value just below the parameter's range.
_INTEGER_PARAMETERS = {
    "eigendecompose k": (lambda v: eigendecompose(np.eye(40), k=v), 0),
    "truncate d": (lambda v: truncate(_EIG4, v), -1),
    "error_sweep ranks": (lambda v: error_sweep(np.diag(_EIG4.eigenvalues), _EIG4, [v]), -1),
    "delocalisation_report d": (lambda v: delocalisation_report(_EIG4, v), -1),
    "gaussian_rbf_eigenvalue i": (lambda v: gaussian_rbf_eigenvalue(v, _SPEC), -1),
    "gaussian_rbf_eigenfunction i": (lambda v: gaussian_rbf_eigenfunction(v, 0.5, _SPEC), -1),
    "tensor_spectrum count": (lambda v: tensor_spectrum(_SPEC, v), 0),
    "tensor_spectrum p": (lambda v: tensor_spectrum(_SPEC, 3, p=v), 0),
    "sphere_harmonic_count degree": (lambda v: sphere_harmonic_count(v, 3), -1),
    "sphere_harmonic_count p": (lambda v: sphere_harmonic_count(2, v), 2),
    "sphere_decay_hypothesis p": (lambda v: sphere_decay_hypothesis(v, geometric_ratio=0.5), 2),
    "poly_tail_bound d": (lambda v: poly_tail_bound(v, 2.0), 0),
    "exp_tail_bound d": (lambda v: exp_tail_bound(v, 1.0, 1.0), 0),
    "entrywise_error_rate n": (lambda v: entrywise_error_rate(v, exponential_decay(1.0)), 1),
    "required_rank n": (lambda v: required_rank(v, exponential_decay(1.0)), 1),
    "jl_error_bound n": (lambda v: jl_error_bound(v, 1), 1),
    "jl_error_bound d": (lambda v: jl_error_bound(10, v), 0),
    "compare_methods trials": (lambda v: compare_methods(np.eye(4), [1], v, 0), 0),
    "compare_methods ranks": (lambda v: compare_methods(np.eye(4), [v, 2], 1, 0), 0),
    "subspace_distance_experiment n": (
        lambda v: subspace_distance_experiment(v, 256, 0.5, 1, 0), 1),
    "subspace_distance_experiment q": (
        lambda v: subspace_distance_experiment(300, v, 0.5, 1, 0), 0),
    "subspace_distance_experiment trials": (
        lambda v: subspace_distance_experiment(300, 256, 0.5, v, 0), 0),
    "gmm_synthetic n": (lambda v: gmm_synthetic(n=v), 0),
    "gmm_synthetic p": (lambda v: gmm_synthetic(n=5, p=v), 0),
    "gmm_synthetic components": (lambda v: gmm_synthetic(n=5, components=v), 0),
    "gaussian_synthetic n": (lambda v: gaussian_synthetic(n=v), 0),
    "gaussian_synthetic p": (lambda v: gaussian_synthetic(n=5, p=v), 0),
    "sphere_uniform n": (lambda v: sphere_uniform(n=v), 0),
    "sphere_uniform p": (lambda v: sphere_uniform(n=5, p=v), 1),
    "subsample count": (lambda v: subsample(_X, v), 0),
}


@pytest.mark.parametrize("parameter", list(_INTEGER_PARAMETERS))
def test_integer_parameters_refuse_bools_fractions_non_finite_and_out_of_range(parameter):
    call, below = _INTEGER_PARAMETERS[parameter]
    for value in (True, np.True_, 1.5, np.nan, np.inf, below):
        with pytest.raises(ValueError, match="must be an integer"):
            call(value)


# Every public seed parameter: the same call at each seed. A None seed would
# draw fresh entropy, so two identical calls would differ.
_SEEDED = {
    "gmm_synthetic": lambda seed: gmm_synthetic(n=5, seed=seed),
    "gaussian_synthetic": lambda seed: gaussian_synthetic(n=5, seed=seed),
    "sphere_uniform": lambda seed: sphere_uniform(n=5, seed=seed),
    "subsample": lambda seed: subsample(_X, 4, seed=seed),
    "compare_methods": lambda seed: compare_methods(np.diag([3.0, 2.0, 1.0]), [1], 2, seed)
    .jl_median_max_error,
    "subspace_distance_experiment": lambda seed: subspace_distance_experiment(300, 256, 0.5, 2, seed),
}


@pytest.mark.parametrize("value", [None, True, 1.5, "3", -1])
@pytest.mark.parametrize("function", list(_SEEDED))
def test_seeds_follow_the_integer_rule(function, value):
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {re.escape(repr(value))}$"):
        _SEEDED[function](value)


@pytest.mark.parametrize("function", list(_SEEDED))
def test_a_numpy_integer_seed_draws_the_same_bits(function):
    assert _SEEDED[function](np.int64(3)).tobytes() == _SEEDED[function](3).tobytes()


# Each row: a call taking one real value, and a finite value just outside its interval.
_REAL_PARAMETERS = {
    "GaussianRbfSpectrum sigma": (lambda v: GaussianRbfSpectrum(v, 1.0), 0.0),
    "GaussianRbfSpectrum bandwidth": (lambda v: GaussianRbfSpectrum(1.0, v), 0.0),
    "beta_from_upsilon upsilon": (beta_from_upsilon, 0.0),
    "sphere_decay_hypothesis coefficient_decay": (
        lambda v: sphere_decay_hypothesis(3, coefficient_decay=v), 0.0),
    "sphere_decay_hypothesis geometric_ratio": (
        lambda v: sphere_decay_hypothesis(3, geometric_ratio=v), 1.0),
    "DecayHypothesis alpha": (lambda v: DecayHypothesis("P", alpha=v), 1.0),
    "DecayHypothesis r": (lambda v: DecayHypothesis("P", alpha=3.0, r=v), -0.01),
    "DecayHypothesis beta": (lambda v: DecayHypothesis("E", beta=v, gamma=1.0), 0.0),
    "DecayHypothesis gamma": (lambda v: DecayHypothesis("E", beta=1.0, gamma=v), 1.01),
    "DecayHypothesis s": (lambda v: DecayHypothesis("E", beta=1.0, gamma=1.0, s=v), -0.01),
    "poly_tail_bound alpha": (lambda v: poly_tail_bound(10, v), 1.0),
    "exp_tail_bound beta": (lambda v: exp_tail_bound(10, v, 1.0), 0.0),
    "exp_tail_bound gamma": (lambda v: exp_tail_bound(10, 1.0, v), 1.01),
    "KernelSpec bandwidth": (lambda v: KernelSpec("rbf", bandwidth=v), 0.0),
    "KernelSpec coefficient": (lambda v: KernelSpec("dot_product", coefficients=(1.0, v)), -0.01),
    "rbf bandwidth": (rbf, 0.0),
    "matern bandwidth": (lambda v: matern(1.5, v), 0.0),
    "dot_product coefficient": (lambda v: dot_product([v, 1.0]), -0.01),
    "gaussian_synthetic sigma": (lambda v: gaussian_synthetic(n=5, sigma=v), -0.01),
    "gmm_synthetic mean_scale": (lambda v: gmm_synthetic(n=5, mean_scale=v), -0.01),
    "subspace_distance_experiment p0": (
        lambda v: subspace_distance_experiment(300, 256, v, 1, 0), 1.0),
}


@pytest.mark.parametrize("parameter", list(_REAL_PARAMETERS))
def test_real_parameters_refuse_bools_non_finite_strings_and_out_of_range(parameter):
    call, outside = _REAL_PARAMETERS[parameter]
    for value in (True, np.True_, np.nan, np.inf, -np.inf, "0.5", outside):
        with pytest.raises(ValueError, match="must be a real number"):
            call(value)


def test_real_parameters_are_stored_as_floats():
    assert type(GaussianRbfSpectrum(np.float32(0.5), 2).bandwidth) is float
    assert dot_product([1, np.int64(2)]).coefficients == (1.0, 2.0)
    assert type(polynomial_decay(np.float64(4.0), 1).r) is float


@pytest.mark.parametrize("build, field", [
    (lambda: DecayHypothesis(kind="E", beta=1.0, gamma=1.0, alpha="x"), "alpha"),
    (lambda: DecayHypothesis(kind="E", beta=1.0, gamma=1.0, r=-5), "r"),
    (lambda: DecayHypothesis(kind="P", alpha=3.0, beta=1.0), "beta"),
    (lambda: DecayHypothesis(kind="P", alpha=3.0, gamma=0.5), "gamma"),
    (lambda: DecayHypothesis(kind="P", alpha=3.0, s=0.1), "s"),
    (lambda: KernelSpec("dot_product", coefficients=(1.0,), bandwidth=-3), "bandwidth"),
    (lambda: KernelSpec("dot_product", coefficients=(1.0,), nu=0.5), "nu"),
    (lambda: KernelSpec("rbf", bandwidth=1.0, nu=1.5), "nu"),
    (lambda: KernelSpec("rbf", bandwidth=1.0, coefficients=(1.0,)), "coefficients"),
    (lambda: KernelSpec("matern", bandwidth=1.0, nu=0.5, coefficients=(1.0,)), "coefficients"),
], ids=["E-alpha", "E-r", "P-beta", "P-gamma", "P-s", "dot-bandwidth", "dot-nu", "rbf-nu",
        "rbf-coefficients", "matern-coefficients"])
def test_specs_refuse_a_field_their_kind_does_not_take(build, field):
    # Refused, not ignored: the spec would carry a value that no computation reads.
    with pytest.raises(ValueError, match=f" takes no {field}, got "):
        build()


def test_delocalisation_report_random_orthogonal_basis_is_delocalised():
    # a Haar-random orthonormal basis has sup-norm around sqrt(2 ln n / n)
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((1000, 1000)))
    eig = EigenDecomposition(eigenvalues=np.arange(1000, 0, -1, dtype=float),
                             eigenvectors=Q)
    assert delocalisation_report(eig, 0) <= 0.3 * np.sqrt(1000)


def test_rbf_gram_eigendecomposition_quality():
    X = gaussian_synthetic(150, 2, sigma=1.0, seed=12)
    K = gram_matrix(rbf(1.0), X)
    eig = eigendecompose(K)
    U = eig.eigenvectors
    assert np.abs(U.T @ U - np.eye(150)).max() <= 1e-8
    recon = (U * eig.eigenvalues) @ U.T
    assert np.abs(recon - np.asarray(K)).max() <= 1e-8


_MEDIAN_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf]),
                           st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 25), cols=st.one_of(st.none(), st.integers(1, 5)), data=st.data())
def test_median_equals_np_median_bit_for_bit(rows, cols, data):
    # Odd and even counts, ties (a small value pool, signed zeros, infinities)
    # and nans: 1-D with axis=None, 2-D with axis=0, partitioned in place.
    shape = (rows,) if cols is None else (rows, cols)
    size = math.prod(shape)
    x = np.array(data.draw(st.lists(_MEDIAN_VALUES, min_size=size, max_size=size)))
    for i in data.draw(st.lists(st.integers(0, size - 1), max_size=3)):
        x[i] = math.nan
    x = x.reshape(shape)
    axis = None if cols is None else 0
    work = x.copy()
    # The mean of inf and -inf is nan in both, and of two values near the
    # float limit it overflows to inf in both.
    with np.errstate(invalid="ignore", over="ignore"):
        expected = np.median(x, axis=axis)
        got = spectral._median(work, axis=axis)
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
    assert np.array_equal(np.sort(work, axis=0), np.sort(x, axis=0), equal_nan=True)
