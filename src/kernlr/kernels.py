"""Kernel functions, bandwidth selection and Gram matrix construction.

Supported kernel families:

* ``matern`` with smoothness ``nu`` in {1/2, 3/2, 5/2}, via the half-integer
  closed forms (the general Bessel form is intentionally not implemented),
* ``rbf``, the squared-exponential kernel (the infinite-smoothness limit of
  the Matern family),
* ``dot_product``, a finite nonnegative power series in the inner product,
  positive-definite on the unit sphere.

Gram matrices are computed once per unordered pair of points and mirrored, so
``K[i, j]`` and ``K[j, i]`` are bit-for-bit identical regardless of
floating-point non-associativity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import DegenerateDataError
from .spectral import _mirror_upper

_MATERN_NUS = (0.5, 1.5, 2.5)
_HORNER_ROWS = 32  # rows per panel in the dot-product Gram build


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family together with its parameters.

    Use the :func:`matern`, :func:`rbf` and :func:`dot_product` helpers
    instead of constructing this directly.
    """

    family: str
    bandwidth: float | None = None
    nu: float | None = None
    coefficients: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family in ("matern", "rbf"):
            if self.bandwidth is None or not math.isfinite(self.bandwidth) or self.bandwidth <= 0:
                raise ValueError(f"bandwidth must be a positive real, got {self.bandwidth!r}")
            if self.family == "matern" and self.nu not in _MATERN_NUS:
                raise ValueError(f"matern smoothness nu must be one of {_MATERN_NUS}, got {self.nu!r}")
        elif self.family == "dot_product":
            if not self.coefficients:
                raise ValueError("dot_product kernel needs at least one coefficient")
            if any(not math.isfinite(b) or b < 0 for b in self.coefficients):
                raise ValueError("dot_product coefficients must be finite and >= 0")
        else:
            raise ValueError(f"unknown kernel family {self.family!r}")

    @property
    def label(self) -> str:
        """Short name used in file names and plot legends."""
        if self.family == "matern":
            return {0.5: "matern12", 1.5: "matern32", 2.5: "matern52"}[self.nu]
        return self.family


def matern(nu: float, bandwidth: float) -> KernelSpec:
    """Matern kernel with half-integer smoothness ``nu`` in {1/2, 3/2, 5/2}."""
    return KernelSpec(family="matern", bandwidth=float(bandwidth), nu=float(nu))


def rbf(bandwidth: float) -> KernelSpec:
    """Squared-exponential kernel ``exp(-r^2 / (2 w^2))``."""
    return KernelSpec(family="rbf", bandwidth=float(bandwidth))


def dot_product(coefficients) -> KernelSpec:
    """Dot-product kernel ``k(x, y) = sum_i b_i <x, y>^i`` with ``b_i >= 0``.

    The coefficient list is a finite truncation chosen by the caller.
    """
    return KernelSpec(family="dot_product", coefficients=tuple(float(b) for b in coefficients))


def as_dataset(points) -> np.ndarray:
    """Validate and return an ``(n, p)`` float array of row observations."""
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"dataset must be a 2-d (n, p) array with n, p >= 1, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("dataset contains non-finite entries")
    return X


def _radial(kernel: KernelSpec, r):
    """Evaluate a matern/rbf kernel on (an array of) Euclidean distances."""
    w = kernel.bandwidth
    if kernel.family == "rbf":
        return np.exp(-(r * r) / (2.0 * w * w))
    if kernel.nu == 0.5:
        return np.exp(-r / w)
    if kernel.nu == 1.5:
        t = math.sqrt(3.0) * r / w
        return (1.0 + t) * np.exp(-t)
    t = math.sqrt(5.0) * r / w
    return (1.0 + t + t * t / 3.0) * np.exp(-t)


def evaluate(kernel: KernelSpec, x, y) -> float:
    """Evaluate ``k(x, y)`` for a single pair of points.

    Symmetric in its arguments; matern/rbf kernels depend on the pair only
    through the Euclidean distance and satisfy ``k(x, x) = 1``.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("kernel arguments must be finite")
    if kernel.family == "dot_product":
        return _poly(kernel.coefficients, float(np.dot(x, y)))
    return float(_radial(kernel, np.linalg.norm(x - y)))


def _poly(coeffs, s):
    # Horner on the inner product; coeffs are ascending in the power.
    acc = 0.0
    for b in reversed(coeffs):
        acc = acc * s + b
    return acc


def gram_matrix(kernel: KernelSpec, points) -> np.ndarray:
    """Build the read-only ``n x n`` matrix of pairwise kernel evaluations.

    Each unordered pair is evaluated once and mirrored, so the result is
    exactly symmetric. For matern/rbf kernels the diagonal is exactly 1.
    """
    X = as_dataset(points)
    if kernel.family == "dot_product":
        G = _mirror_upper(X @ X.T)
        # Horner in place, the same scheme as ``_poly``; elementwise on a
        # symmetric input, so the result stays symmetric bit for bit. Row
        # panels keep each panel in cache across the coefficient passes.
        *rest, top = kernel.coefficients
        V = np.full_like(G, top)
        for i in range(0, G.shape[0], _HORNER_ROWS):
            v, g = V[i:i + _HORNER_ROWS], G[i:i + _HORNER_ROWS]
            for b in reversed(rest):
                v *= g
                v += b
    else:
        if X.shape[0] == 1:
            V = np.ones((1, 1))
        else:
            V = squareform(_radial(kernel, pdist(X)))
            np.fill_diagonal(V, 1.0)
    V.setflags(write=False)
    return V


def median_heuristic(points) -> float:
    """Bandwidth equal to the median of the pairwise Euclidean distances.

    All ``n (n - 1) / 2`` distinct pairs enter the median; for an even count
    the two central order statistics are averaged. This is the raw-distance
    convention (not squared, not halved).
    """
    X = as_dataset(points)
    if X.shape[0] < 2:
        raise ValueError("median heuristic needs at least two points")
    med = float(np.median(pdist(X)))
    if med <= 0.0:
        raise DegenerateDataError("median pairwise distance is zero (coincident points)")
    return med


def standardize(points) -> np.ndarray:
    """Center each column and rescale it to unit sample variance (n-1 divisor)."""
    X = as_dataset(points)
    if X.shape[0] < 2:
        raise ValueError("standardize needs at least two rows")
    sd = X.std(axis=0, ddof=1)
    dead = np.flatnonzero(sd == 0.0)
    if dead.size:
        raise DegenerateDataError(f"column {dead[0]} has zero variance")
    return (X - X.mean(axis=0)) / sd
