"""Kernel functions, bandwidth selection and Gram matrix construction.

Supported kernel families:

* ``matern`` with smoothness ``nu`` in {1/2, 3/2, 5/2}, via the half-integer
  closed forms (the general Bessel form is intentionally not implemented),
* ``rbf``, the squared-exponential kernel (the infinite-smoothness limit of
  the Matern family),
* ``dot_product``, a finite nonnegative power series in the inner product,
  positive-definite on the unit sphere.

Gram matrices are symmetric bit for bit. For matern/rbf kernels, Euclidean
distances are computed in numpy one panel of rows at a time, by summing the
squared coordinate differences in coordinate order and taking the square root
(the order of ``scipy.spatial.distance.pdist``). As ``(a - b)**2 == (b - a)**2``
in IEEE arithmetic, the distances from i to j and from j to i agree bit for
bit, and a point is at distance exactly 0 from itself, which every radial
kernel maps to exactly 1. Dot-product Gram matrices start from ``X @ X.T`` on
the C-contiguous dataset, which numpy computes with SYRK (one triangle,
copied), so no mirror pass is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import _PANEL_ROWS, _check_real, _median

_MATERN_NUS = (0.5, 1.5, 2.5)


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
        takes = {"matern": ("bandwidth", "nu"), "rbf": ("bandwidth",), "dot_product": ("coefficients",)}
        for name in ("bandwidth", "nu", "coefficients"):  # refused, not ignored; an unknown family takes all
            if name not in takes.get(self.family, (name,)) and getattr(self, name) is not None:
                raise ValueError(f"kernel family {self.family!r} takes no {name}, got {getattr(self, name)!r}")
        if self.family in ("matern", "rbf"):
            lo = "[1.0547686614863e-154" if self.family == "rbf" else "(0"  # rbf: 2 w^2 is normal
            object.__setattr__(self, "bandwidth", _check_real(self.bandwidth, "bandwidth", f"{lo}, inf)"))
            if self.family == "matern" and self.nu not in _MATERN_NUS:
                raise ValueError(f"matern smoothness nu must be one of {_MATERN_NUS}, got {self.nu!r}")
        elif self.family == "dot_product":
            if not self.coefficients:
                raise ValueError("dot_product kernel needs at least one coefficient")
            coefficients = tuple(_check_real(b, "coefficient", "[0, inf)") for b in self.coefficients)
            object.__setattr__(self, "coefficients", coefficients)
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
    return KernelSpec(family="matern", bandwidth=bandwidth, nu=nu)


def rbf(bandwidth: float) -> KernelSpec:
    """Squared-exponential kernel ``exp(-r^2 / (2 w^2))``."""
    return KernelSpec(family="rbf", bandwidth=bandwidth)


def dot_product(coefficients) -> KernelSpec:
    """Dot-product kernel ``k(x, y) = sum_i b_i <x, y>^i`` with ``b_i >= 0``.

    The coefficient list is a finite truncation chosen by the caller.
    """
    return KernelSpec(family="dot_product", coefficients=tuple(coefficients))


def as_dataset(points) -> np.ndarray:
    """Validate and return a C-contiguous ``(n, p)`` float array of row observations.

    C order keeps ``X @ X.T`` on numpy's SYRK path, which is symmetric bit for
    bit; on a strided view such as ``X[:, ::-1]`` numpy copies each operand
    and uses GEMM, which is not.
    """
    X = np.asarray(points, dtype=float, order="C")
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"dataset must be a 2-d (n, p) array with n, p >= 1, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("dataset contains non-finite entries")
    return X


def _radial(kernel: KernelSpec, r):
    """Evaluate a matern/rbf kernel on a panel of Euclidean distances, capped in place.

    Each kernel is exactly 0 in float64 beyond 1024 bandwidths (e^-t is 0 for
    t >= 746), so the cap changes no value and keeps the scaled distance finite
    at every admitted bandwidth. Matern products that round to 1 + 2^-52 are clipped.
    """
    w = kernel.bandwidth
    np.minimum(r, 1024.0 * w, out=r)  # a power of 2 times w, so exact
    if kernel.family == "rbf":
        return np.exp(-(r * r) / (2.0 * w * w))
    if kernel.nu == 0.5:
        return np.exp(-r / w)
    t = math.sqrt(2.0 * kernel.nu) * r / w
    poly = 1.0 + t if kernel.nu == 1.5 else 1.0 + t + t * t / 3.0
    return np.minimum(poly * np.exp(-t), 1.0)


def _distance_panels(X: np.ndarray):
    """Yield ``(i, D)`` per panel: the distances from ``X[i:i + _PANEL_ROWS]`` to every row."""
    XT = X.T.copy()
    for i in range(0, XT.shape[1], _PANEL_ROWS):
        rows = XT[:, i:i + _PANEL_ROWS, None]
        D = np.square(rows[0] - XT[0])
        for r, x in zip(rows[1:], XT[1:]):
            t = r - x
            D += np.square(t, out=t)
        yield i, np.sqrt(D, out=D)


def gram_matrix(kernel: KernelSpec, points) -> np.ndarray:
    """Build the read-only ``n x n`` matrix of pairwise kernel evaluations.

    The result is exactly symmetric. For matern/rbf kernels the diagonal is
    exactly 1, and the build holds one ``n x n`` array plus one panel of rows.
    """
    X = as_dataset(points)
    if kernel.family == "dot_product":
        V = X @ X.T
        # Horner in place from the highest power down, one row panel at a
        # time over a copy of the panel's inner products; elementwise on a
        # symmetric input, so the result stays symmetric bit for bit.
        *rest, top = kernel.coefficients
        for i in range(0, V.shape[0], _PANEL_ROWS):
            v = V[i:i + _PANEL_ROWS]
            g = v.copy()
            v.fill(top)
            for b in reversed(rest):
                v *= g
                v += b
    else:
        V = np.empty((X.shape[0], X.shape[0]))
        for i, D in _distance_panels(X):
            V[i:i + len(D)] = _radial(kernel, D)
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
    n = X.shape[0]
    cols = np.arange(n)
    upper = np.empty(n * (n - 1) // 2)
    end = 0
    for i, D in _distance_panels(X):
        part = D[cols > cols[i:i + len(D), None]]
        upper[end:end + part.size] = part
        end += part.size
    med = float(_median(upper))
    if med <= 0.0:
        raise ValueError("median pairwise distance is zero (coincident points)")
    return med


def standardize(points) -> np.ndarray:
    """Center each column and rescale it to unit sample variance (n-1 divisor)."""
    X = as_dataset(points)
    if X.shape[0] < 2:
        raise ValueError("standardize needs at least two rows")
    sd = X.std(axis=0, ddof=1)
    dead = np.flatnonzero(sd == 0.0)
    if dead.size:
        raise ValueError(f"column {dead[0]} has zero variance")
    return (X - X.mean(axis=0)) / sd
