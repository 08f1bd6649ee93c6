import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from kernlr import (
    compare_methods,
    delocalisation_report,
    dot_product,
    eigendecompose,
    error_sweep,
    factor_from_eigendecomposition,
    gaussian_synthetic,
    gram_matrix,
    matern,
    median_heuristic,
    rbf,
    standardize,
    truncate,
)
from kernlr.kernels import _PANEL_ROWS, KernelSpec, _radial
from kernlr.spectral import _as_symmetric, _max_entry_error


def _pair(kernel, x, y):
    # k(x, y) as the off-diagonal entry of a two-point Gram matrix.
    return gram_matrix(kernel, [x, y])[0, 1]


def test_matern_half_closed_form():
    # distance 1, bandwidth 1 -> exp(-1)
    assert _pair(matern(0.5, 1.0), [0.0], [1.0]) == pytest.approx(np.exp(-1.0))


def test_rbf_unit_diagonal():
    assert _pair(rbf(3.7), [1.0, 2.0], [1.0, 2.0]) == 1.0


def test_matern_all_orders_equal_one_at_zero_distance():
    for nu in (0.5, 1.5, 2.5):
        assert _pair(matern(nu, 1.0), [0.3, -0.4], [0.3, -0.4]) == 1.0


def test_matern_32_and_52_closed_forms():
    r = 0.8
    t3 = np.sqrt(3.0) * r
    t5 = np.sqrt(5.0) * r
    assert _pair(matern(1.5, 1.0), [0.0], [r]) == pytest.approx((1 + t3) * np.exp(-t3))
    assert _pair(matern(2.5, 1.0), [0.0], [r]) == pytest.approx(
        (1 + t5 + 5 * r * r / 3.0) * np.exp(-t5))


def test_gram_pair_symmetric_and_translation_invariant():
    k = matern(1.5, 0.7)
    x, y = np.array([1.0, -2.0]), np.array([0.5, 0.25])
    assert _pair(k, x, y) == _pair(k, y, x)
    shift = np.array([5.0, -3.0])
    assert _pair(k, x + shift, y + shift) == pytest.approx(_pair(k, x, y))


def test_gram_rejects_ragged_and_nonfinite_points():
    with pytest.raises(ValueError):
        gram_matrix(rbf(1.0), [[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        gram_matrix(rbf(1.0), [[np.nan], [1.0]])


def test_dot_product_kernel():
    k = dot_product([1.0, 0.0, 2.0])  # 1 + 2 <x,y>^2
    assert _pair(k, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert _pair(k, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(3.0)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        matern(1.0, 1.0)  # nu not in the half-integer set
    with pytest.raises(ValueError):
        rbf(0.0)
    with pytest.raises(ValueError):
        dot_product([1.0, -0.5])
    with pytest.raises(ValueError):
        KernelSpec(family="linear")


def test_kernel_values_in_unit_interval_and_decreasing_in_distance():
    rs = np.linspace(0.0, 6.0, 200)
    for k in (matern(0.5, 1.3), matern(1.5, 1.3), matern(2.5, 1.3), rbf(1.3)):
        vals = gram_matrix(k, rs[:, None])[0]
        assert vals[0] == 1.0
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 0.0)


def test_gram_single_point():
    g = gram_matrix(matern(1.5, 2.0), [[1.0, 2.0, 3.0]])
    assert g.shape == (1, 1)
    assert g[0, 0] == 1.0


def test_gram_two_points_at_bandwidth_distance():
    g = gram_matrix(matern(0.5, 5.0), [[0.0], [5.0]])
    assert g[0, 1] == pytest.approx(np.exp(-1.0))


def test_gram_exact_symmetry_and_unit_diagonal():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 4))
    for k in (matern(0.5, 1.0), rbf(0.8), dot_product([0.5, 0.5, 0.1])):
        g = gram_matrix(k, X)
        assert np.array_equal(g, g.T)  # bit-for-bit
    g = gram_matrix(rbf(0.8), X)
    assert np.all(np.diag(g) == 1.0)
    assert np.all(g > 0.0) and np.all(g <= 1.0)


def test_gram_matches_polyval_and_matern_closed_form():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((15, 3))
    coeffs = [0.2, 1.0, 0.0, 0.3]
    expect = np.polynomial.polynomial.polyval(X @ X.T, coeffs)
    assert np.abs(gram_matrix(dot_product(coeffs), X) - expect).max() <= 1e-12
    t = np.sqrt(5.0) * squareform(pdist(X)) / 1.4
    expect = (1.0 + t + t * t / 3.0) * np.exp(-t)
    assert np.abs(gram_matrix(matern(2.5, 1.4), X) - expect).max() <= 1e-12


def test_gram_numerically_psd_on_distinct_points():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((120, 3))
    for k in (matern(0.5, 1.0), matern(1.5, 1.0), matern(2.5, 1.0), rbf(1.0)):
        w = np.linalg.eigvalsh(gram_matrix(k, X))
        assert w.min() >= -1e-8 * X.shape[0]


def test_gram_is_immutable():
    g = gram_matrix(rbf(1.0), [[0.0], [1.0]])
    with pytest.raises(ValueError):
        g[0, 1] = 0.0


def test_gram_converts_to_an_array_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K = np.array(gram_matrix(rbf(1.0), [[0.0], [1.0]]))
    assert K.flags.writeable  # np.array copies, so the copy may be written


_KERNELS = st.one_of(
    st.builds(matern, st.sampled_from([0.5, 1.5, 2.5]), st.floats(0.1, 10.0)),
    st.builds(rbf, st.floats(0.1, 10.0)),
    st.builds(dot_product, st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5)),
)


# Layouts a caller may pass: C order, and views that are not C-contiguous.
# On reversed columns numpy computes X @ X.T with GEMM, not SYRK, unless the
# dataset is first copied to C order. With OpenBLAS 0.3.31 on x86-64 that
# GEMM result was asymmetric only from n = 196 rows on, beyond the drawn
# sizes, hence the explicit example.
_LAYOUTS = st.sampled_from([
    lambda X: X,
    lambda X: X[:, ::-1],
    lambda X: np.repeat(X, 2, axis=0)[::2],  # every other row of a stacked array
    np.asfortranarray,
])


@st.composite
def _point_sets(draw):
    # Rows drawn with replacement from a pool, so repeated points are common;
    # a single point (n = 1) is allowed.
    p = draw(st.integers(1, 4))
    pool = draw(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p),
                         min_size=1, max_size=30))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    return draw(_LAYOUTS)(np.array([pool[i] for i in rows]))


@settings(max_examples=150, deadline=None)
@given(kernel=_KERNELS, X=_point_sets())
@example(kernel=dot_product([1.0, 1.0]),
         X=np.random.default_rng(0).standard_normal((300, 3))[:, ::-1])
def test_gram_is_bitwise_symmetric_on_drawn_points(kernel, X):
    K = gram_matrix(kernel, X)
    assert K.shape == (X.shape[0], X.shape[0])
    assert np.array_equal(K, K.T)


_RADIAL = st.one_of(
    st.builds(matern, st.sampled_from([0.5, 1.5, 2.5]), st.floats(1e-3, 1e3)),
    st.builds(rbf, st.floats(1e-3, 1e3)),
)


@st.composite
def _scaled_point_sets(draw):
    # Rows drawn with replacement from a pool of Gaussian points, whose
    # low-order bits make the summation order matter. n runs past one panel
    # of rows (and need not be a multiple of it), and each coordinate gets its
    # own scale, from 1e-8 to 1e8.
    p = draw(st.integers(1, 4))
    max_n = _PANEL_ROWS + 8
    pool = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal((max_n, p))
    rows = draw(st.lists(st.integers(0, max_n - 1), min_size=1, max_size=max_n))
    scales = draw(st.lists(st.integers(-8, 8), min_size=p, max_size=p))
    return pool[rows] * 10.0 ** np.array(scales, dtype=float)


@settings(max_examples=200, deadline=None)
@given(kernel=_RADIAL, X=_scaled_point_sets())
def test_radial_gram_is_bitwise_the_scipy_reference(kernel, X):
    ref = squareform(_radial(kernel, pdist(X)))
    np.fill_diagonal(ref, 1.0)
    K = gram_matrix(kernel, X)
    assert np.array_equal(K, ref)
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == 1.0)


_RBF_MIN_BANDWIDTH = 1.0547686614863e-154  # below it 2 w^2 is subnormal or 0
_ANY_BANDWIDTH = st.one_of(
    st.builds(matern, st.sampled_from([0.5, 1.5, 2.5]), st.floats(5e-324, 1e300)),
    st.builds(rbf, st.floats(_RBF_MIN_BANDWIDTH, 1e300)),
)


@st.composite
def _unit_point_sets(draw):
    # Unit-scale Gaussian rows drawn with replacement, past one panel of rows.
    p, max_n = draw(st.integers(1, 4)), _PANEL_ROWS + 8
    pool = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal((max_n, p))
    return pool[draw(st.lists(st.integers(0, max_n - 1), min_size=1, max_size=max_n))]


def _closed_form(kernel, r):
    # The formulas without the cap or the clip.
    w = kernel.bandwidth
    if kernel.family == "rbf":
        return np.exp(-(r * r) / (2.0 * w * w))
    if kernel.nu == 0.5:
        return np.exp(-r / w)
    t = np.sqrt(2.0 * kernel.nu) * r / w
    return (1.0 + t if kernel.nu == 1.5 else 1.0 + t + t * t / 3.0) * np.exp(-t)


@settings(max_examples=300, deadline=None)
@given(kernel=_ANY_BANDWIDTH, X=_unit_point_sets())
@example(kernel=rbf(_RBF_MIN_BANDWIDTH), X=np.array([[0.0], [1e-160], [3.0]]))
@example(kernel=matern(0.5, 5e-324), X=np.array([[0.0], [5e-324], [1.0]]))
@example(kernel=matern(2.5, 1e-160), X=np.array([[0.0, 0.0], [1.0, 2.0]]))
@example(kernel=matern(2.5, 1e6), X=np.array([[0.0], [0.00835]]))  # 1 + 2^-52 unclipped
def test_radial_gram_is_finite_at_every_admitted_bandwidth(kernel, X):
    # Every entry in [0, 1] (so no inf or nan), the diagonal 1 and no floating-point
    # fault, from the smallest admitted bandwidth to 1e300. Where the closed form
    # is computed without a fault and lies in [0, 1], the Gram matrix is it, bit for bit.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        K = gram_matrix(kernel, X)
    assert np.all((K >= 0.0) & (K <= 1.0))
    assert np.all(np.diag(K) == 1.0)
    with np.errstate(all="ignore"):
        ref = squareform(_closed_form(kernel, pdist(X)))
    np.fill_diagonal(ref, 1.0)
    valid = (ref >= 0.0) & (ref <= 1.0)
    assert np.array_equal(K[valid], ref[valid])


def test_rbf_bandwidth_whose_square_is_subnormal_is_refused():
    assert rbf(_RBF_MIN_BANDWIDTH).bandwidth == _RBF_MIN_BANDWIDTH
    for w in (np.nextafter(_RBF_MIN_BANDWIDTH, 0.0), 1e-200, 5e-324):
        with pytest.raises(ValueError, match=r"bandwidth must be a real number in \[1.0547686614863e-154, inf\)"):
            rbf(w)
    assert matern(0.5, 5e-324).bandwidth == 5e-324  # a Matern bandwidth needs no square


@settings(max_examples=100, deadline=None)
@given(X=_scaled_point_sets())
def test_median_heuristic_is_bitwise_the_scipy_median(X):
    if X.shape[0] < 2:
        with pytest.raises(ValueError):
            median_heuristic(X)
    elif np.median(pdist(X)) == 0.0:
        with pytest.raises(ValueError, match=r"median pairwise distance is zero \(coincident points\)"):
            median_heuristic(X)
    else:
        assert median_heuristic(X) == float(np.median(pdist(X)))


def _peak_bytes(func, *args):
    # numpy's arrays only: tracemalloc cannot see LAPACK's malloc'd workspace or eigh's input copy.
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", [matern(0.5, 1.0), matern(1.5, 1.0), matern(2.5, 1.0),
                                    rbf(1.0), dot_product([0.5**i for i in range(54)])],
                         ids=lambda k: k.label)
def test_gram_peak_memory_is_one_matrix_plus_a_panel(kernel):
    n = 2000
    X = np.random.default_rng(5).standard_normal((n, 10))
    assert _peak_bytes(gram_matrix, kernel, X) < 1.25 * n * n * 8


@pytest.mark.parametrize("product", [factor_from_eigendecomposition, lambda eig: truncate(eig, eig.n)],
                         ids=["root", "truncate"])
def test_psd_products_peak_memory_is_result_plus_one_scaled_copy(product):
    # One scaled copy of U and the n x n result: no GEMM temporary, no mirror.
    n = 600
    eig = eigendecompose(gram_matrix(rbf(1.0), gaussian_synthetic(n, 3)))
    assert eig.eigenvalues[-1] >= 0.0  # PSD, so truncate has no negative part
    assert _peak_bytes(product, eig) < 2.25 * n * n * 8


def test_eigendecompose_peak_memory_is_one_matrix():
    # eigh's U alone: the descending order is a view, the sign pass works in
    # place on one panel, and the validation adds one panel.
    n = 600
    K = gram_matrix(rbf(1.0), gaussian_synthetic(n, 3))
    assert _peak_bytes(eigendecompose, K) < 1.25 * n * n * 8


def test_leading_k_eigendecompose_peak_memory_is_no_matrix():
    # The leading 5 pairs at n = 1000 take a basis of three blocks of b = 15
    # columns. The peak holds the basis, its copy while it grows and one
    # block (0.093 of n^2 * 8 bytes); no n x n array beside the input.
    n = 1000
    K = gram_matrix(rbf(1.0), gaussian_synthetic(n, 1, sigma=1.0, seed=0))
    assert _peak_bytes(eigendecompose, K, 5) < 0.1 * n * n * 8


def test_symmetry_validation_peak_memory_is_one_panel():
    # Finiteness is read from max and min, symmetry one row panel at a time.
    n = 600
    K = gram_matrix(rbf(1.0), gaussian_synthetic(n, 3))
    assert _peak_bytes(_as_symmetric, K) < 0.1 * n * n * 8


def test_compare_methods_peak_memory_is_three_matrices():
    # The eigenvectors, their scaled copy and the PSD root while the root is
    # formed; each sketch trial then holds its n x d factor and one row panel,
    # so no n x n sketch or error matrix exists. No warm-up call is needed:
    # the trial medians go through spectral._median, which imports nothing,
    # where np.median's first call imports numpy.ma (about 1 MB of Python
    # objects that tracemalloc would count).
    n = 600
    K = gram_matrix(rbf(1.0), gaussian_synthetic(n, 3))
    assert _peak_bytes(compare_methods, K, [1, 5, 50, 300, n], 2, 0) <= 3.25 * n * n * 8


def test_indefinite_truncate_peak_memory():
    # The result, one scaled copy of U and the product of the negative part.
    n = 600
    A = np.random.default_rng(5).standard_normal((n, n))
    eig = eigendecompose((A + A.T) / 2.0)
    assert _peak_bytes(truncate, eig, n) < 3.25 * n * n * 8


@pytest.mark.parametrize("d", [0, 5])
def test_delocalisation_report_peak_memory_is_no_matrix(d):
    # max |u| is read as max(T.max(), -T.min()); no |U| temporary.
    n = 600
    eig = eigendecompose(gram_matrix(rbf(1.0), gaussian_synthetic(n, 3)))
    assert _peak_bytes(delocalisation_report, eig, d) < 0.25 * n * n * 8


def test_error_sweep_peak_memory_on_an_indefinite_matrix_is_no_matrix():
    # An indefinite matrix takes the fallback, which walks each rank's residual
    # in row panels: the scaled n x d factor of the largest rank below n (50 of
    # 600 columns) and two row panels while one replaces the other.
    n = 600
    A = np.random.default_rng(5).standard_normal((n, n))
    K = (A + A.T) / 2.0
    eig = eigendecompose(K)
    assert eig.eigenvalues[-1] < -1.0  # far from PSD, so the fallback is taken
    assert _peak_bytes(error_sweep, K, eig, [0, 1, 5, 50, n]) < 0.25 * n * n * 8


def test_max_entry_error_peak_memory_at_one_rank_is_one_panel():
    # The walk a sketch trial takes: one 32-row panel at a time (0.053 of
    # n^2 * 8 bytes at n = 600) and numpy's reduction buffers.
    n, d = 600, 50
    A = np.random.default_rng(5).standard_normal((n, n))
    S = A[:, :d].copy()
    assert _peak_bytes(_max_entry_error, S, S, A + A.T, [d]) < 0.085 * n * n * 8


def test_error_sweep_peak_memory_on_a_psd_gram_is_no_matrix():
    # A PSD residual's largest entry is on its diagonal, so only a length-n
    # diagonal is updated: no residual and no product is formed.
    n = 600
    K = gram_matrix(rbf(1.0), gaussian_synthetic(n, 3))
    eig = eigendecompose(K)
    assert _peak_bytes(error_sweep, K, eig, [0, 1, 5, 50, n]) < 0.25 * n * n * 8


def test_median_heuristic_peak_memory_is_one_buffer_of_pairs():
    # The n (n - 1) / 2 distances are about half an n x n array.
    n = 2000
    X = np.random.default_rng(5).standard_normal((n, 10))
    assert _peak_bytes(median_heuristic, X) < 0.75 * n * n * 8


def test_median_heuristic_three_points():
    # pairwise distances {3, 4, 1} -> median 3
    assert median_heuristic([[0.0], [3.0], [4.0]]) == 3.0


def test_median_heuristic_single_pair():
    assert median_heuristic([[0.0, 0.0], [3.0, 4.0]]) == 5.0


def test_median_heuristic_even_count_averages_central_pair():
    # distances {1,1,1,2,2,3} -> (1 + 2) / 2
    assert median_heuristic([[0.0], [1.0], [2.0], [3.0]]) == 1.5


def test_median_heuristic_invariances():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 2))
    base = median_heuristic(X)
    assert median_heuristic(X[rng.permutation(40)]) == base
    assert median_heuristic(X + np.array([100.0, -7.0])) == pytest.approx(base)


def test_median_heuristic_errors():
    with pytest.raises(ValueError):
        median_heuristic([[1.0]])
    with pytest.raises(ValueError, match=r"median pairwise distance is zero \(coincident points\)"):
        median_heuristic([[1.0, 2.0], [1.0, 2.0]])


def test_standardize_two_points():
    out = standardize([[1.0], [3.0]])
    assert out == pytest.approx(np.array([[-1.0], [1.0]]) / np.sqrt(2.0))


def test_standardize_moments_and_idempotence():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 3)) * np.array([2.0, 0.1, 5.0]) + np.array([1.0, -2.0, 0.0])
    Z = standardize(X)
    assert Z.mean(axis=0) == pytest.approx(np.zeros(3), abs=1e-12)
    assert Z.std(axis=0, ddof=1) == pytest.approx(np.ones(3))
    assert standardize(Z) == pytest.approx(Z)


def test_standardize_constant_column_names_index():
    X = np.ones((5, 3))
    X[:, 0] = np.arange(5)
    X[:, 2] = np.arange(5) ** 2
    with pytest.raises(ValueError, match="^column 1 has zero variance$"):
        standardize(X)
