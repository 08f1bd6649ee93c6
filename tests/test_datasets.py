import numpy as np
import pytest

from kernlr import (
    gaussian_synthetic,
    gmm_synthetic,
    load_csv,
    sphere_uniform,
    subsample,
)


def test_load_csv_plain(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n3,4\n")
    assert load_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_csv_header_and_columns(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n")
    out = load_csv(path, has_header=True, columns=[2, 0])
    assert out.tolist() == [[3.0, 1.0], [6.0, 4.0]]


@pytest.mark.parametrize("has_header", ["false", 1, 0, None])
def test_load_csv_has_header_is_a_bool(tmp_path, has_header):
    # A truthy non-bool used to drop the first data row as a header.
    path = tmp_path / "data.csv"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(ValueError, match="has_header must be true or false"):
        load_csv(path, has_header=has_header)
    assert load_csv(path, has_header=np.False_).tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("column", [-1, True, 1.5, 3])
def test_load_csv_columns_are_integers_within_the_width(tmp_path, column):
    path = tmp_path / "data.csv"
    path.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(ValueError, match=r"data\.csv: column must be an integer in \[0, 2\]"):
        load_csv(path, columns=[0, column])


def test_load_csv_crlf_and_delimiter(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"1;2\r\n3;4\r\n")
    assert load_csv(path, delimiter=";").tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path)


def test_load_csv_non_numeric_names_cell(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ValueError, match="line 2, column 2"):
        load_csv(path)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_csv(tmp_path / "nope.csv")


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 4)) * 10.0 ** rng.integers(-8, 8, size=(20, 4))
    path = tmp_path / "round.csv"
    np.savetxt(path, X, fmt="%.17g", delimiter=",")
    assert np.array_equal(load_csv(path), X)


def test_gmm_defaults_shape_and_determinism():
    X = gmm_synthetic(seed=5)
    assert X.shape == (1000, 10)
    assert np.array_equal(X, gmm_synthetic(seed=5))
    assert not np.array_equal(X, gmm_synthetic(seed=6))


def test_gmm_component_means():
    # classify points by the dominant coordinate (means are far apart) and
    # compare each conditional mean against its axis target
    X = gmm_synthetic(n=5000, seed=7)
    labels = np.argmax(X, axis=1)
    for j in range(10):
        pts = X[labels == j]
        target = np.zeros(10)
        target[j] = 10.0
        assert np.abs(pts.mean(axis=0) - target).max() <= 3.0 / np.sqrt(len(pts)) + 0.05


def test_gmm_validation():
    with pytest.raises(ValueError):
        gmm_synthetic(p=5, components=6)


def test_gaussian_synthetic_moments():
    X = gaussian_synthetic(10000, 3, sigma=2.0, seed=8)
    cov = np.cov(X.T)
    assert np.abs(cov - 4.0 * np.eye(3)).max() <= 0.25
    assert np.abs(X.mean(axis=0)).max() <= 0.1


def test_gaussian_synthetic_zero_scale_and_determinism():
    assert np.array_equal(gaussian_synthetic(5, 2, sigma=0.0, seed=0), np.zeros((5, 2)))
    a = gaussian_synthetic(50, 2, seed=3)
    assert np.array_equal(a, gaussian_synthetic(50, 2, seed=3))


def test_gaussian_and_sphere_defaults_shape():
    # the CLI passes dataset fields straight through, so these defaults are
    # what a config without "n" or "p" gets
    assert gaussian_synthetic(seed=1).shape == (1000, 1)
    assert sphere_uniform(seed=1).shape == (1000, 3)
    assert np.array_equal(gaussian_synthetic(seed=1), gaussian_synthetic(1000, 1, seed=1))


def test_sphere_uniform_unit_norms_and_symmetry():
    X = sphere_uniform(4000, 3, seed=9)
    assert np.abs(np.linalg.norm(X, axis=1) - 1.0).max() <= 1e-12
    assert np.abs(X.mean(axis=0)).max() <= 0.05
    with pytest.raises(ValueError):
        sphere_uniform(10, 1)


def test_subsample_identity_and_single():
    X = np.arange(20.0).reshape(10, 2)
    assert np.array_equal(subsample(X, 10, seed=0), X)
    one = subsample(X, 1, seed=0)
    assert any(np.array_equal(one[0], row) for row in X)


def test_subsample_preserves_order_and_validates():
    X = np.arange(30.0).reshape(15, 2)
    out = subsample(X, 6, seed=1)
    idx = [np.flatnonzero((X == row).all(axis=1))[0] for row in out]
    assert idx == sorted(idx)
    with pytest.raises(ValueError):
        subsample(X, 0)
    with pytest.raises(ValueError):
        subsample(X, 16)


def test_subsample_seeds_differ():
    X = np.arange(200.0).reshape(100, 2)
    distinct = 0
    for pair in range(100):
        a = subsample(X, 10, seed=2 * pair)
        b = subsample(X, 10, seed=2 * pair + 1)
        distinct += int(not np.array_equal(a, b))
    assert distinct >= 99
