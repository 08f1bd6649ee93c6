"""CSV ingestion and seeded synthetic data generators.

All generators are pure functions of their parameters and seed; identical
calls produce identical arrays. CSV files use a comma delimiter by default,
plain decimal text, UTF-8, and either LF or CRLF line endings; files written
with 17 significant digits round-trip float64 exactly.
"""

from __future__ import annotations

import numpy as np

from .kernels import as_dataset
from .spectral import _check_int, _check_real


def load_csv(path, delimiter: str = ",", has_header: bool = False, columns=None) -> np.ndarray:
    """Read a numeric CSV into an ``(n, p)`` array, preserving row order.

    ``columns`` optionally selects a subset of columns by zero-based index.
    ``has_header`` must be a bool: a string such as ``"false"`` or a number is
    refused, not read as true. Malformed input is reported with the offending
    line (1-based, header included) and column.
    """
    if not isinstance(has_header, (bool, np.bool_)):
        raise ValueError(f"has_header must be true or false, got {has_header!r}")
    import csv  # only this reader needs it
    rows = []
    width = None
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        for lineno, record in enumerate(reader, start=1):
            if has_header and lineno == 1:
                continue
            if not record:
                continue
            if width is None:
                width = len(record)
                if columns is not None:
                    columns = [_check_int(c, f"{path}: column", 0, width - 1) for c in columns]
            elif len(record) != width:
                raise ValueError(f"{path}: ragged row at line {lineno}: "
                                 f"expected {width} fields, got {len(record)}")
            if columns is not None:
                record = [record[c] for c in columns]
            row = []
            for column, cell in enumerate(record, start=1):
                try:
                    row.append(float(cell))
                except ValueError:
                    raise ValueError(f"{path}: non-numeric cell at line {lineno}, column {column}: "
                                     f"{cell!r}") from None
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return as_dataset(np.array(rows))


def gmm_synthetic(n: int = 1000, p: int = 10, components: int = 10,
                  mean_scale: float = 10.0, seed: int = 0) -> np.ndarray:
    """Gaussian mixture with unit isotropic covariances and axis-aligned means.

    Component j (chosen uniformly) contributes points centered at
    ``mean_scale`` times the j-th coordinate axis. Defaults give the
    1000-point, 10-dimensional, 10-component configuration.
    """
    n, p = _check_int(n, "n", 1), _check_int(p, "p", 1)
    components = _check_int(components, "components", 1, p)
    mean_scale = _check_real(mean_scale, "mean_scale", "[0, inf)")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, components, size=n)
    X = rng.standard_normal((n, p))
    X[np.arange(n), labels] += mean_scale
    return X


def gaussian_synthetic(n: int = 1000, p: int = 1, sigma: float = 1.0,
                       seed: int = 0) -> np.ndarray:
    """i.i.d. rows from N(0, sigma^2 I_p)."""
    n, p = _check_int(n, "n", 1), _check_int(p, "p", 1)
    sigma = _check_real(sigma, "sigma", "[0, inf)")
    rng = np.random.default_rng(seed)
    return sigma * rng.standard_normal((n, p))


def sphere_uniform(n: int = 1000, p: int = 3, seed: int = 0) -> np.ndarray:
    """Rows uniform on the unit sphere: normalized Gaussian vectors."""
    n, p = _check_int(n, "n", 1), _check_int(p, "p", 2)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def subsample(data, count: int, seed: int = 0) -> np.ndarray:
    """Uniform subsample without replacement, original row order preserved."""
    X = as_dataset(data)
    count = _check_int(count, "count", 1, X.shape[0])
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(X.shape[0], size=count, replace=False))
    return X[keep]
