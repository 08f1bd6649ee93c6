"""Numerical checks of the spectral facts behind the error analysis.

Four exact statements, made measurable: the principal-minor identity for
squared eigenvector coordinates, eigenvalue interlacing with the trailing
minor, the sqrt(n)-scaled sup-norm that separates spread-out from localized
eigenvectors, and the concentration of a random vector's distance to a
random subspace against its 4 exp(-t^2/32) tail bound.

Run:  python3 demos/spectral_identities.py
"""

import numpy as np

from kernlr import (
    EigenDecomposition,
    delocalisation_report,
    eigendecompose,
    interlacing_check,
    minor_identity_check,
    subspace_distance_experiment,
)
from kernlr.verification import TAIL_BOUNDS, TAIL_THRESHOLDS

rng = np.random.default_rng(0)

# principal-minor identity on a well-conditioned PSD matrix
G = rng.standard_normal((120, 60))
K = G.T @ G / 120.0  # bitwise symmetric: numpy computes G.T @ G with SYRK
report = minor_identity_check(K)
skipped = len(report.skipped)
print(f"principal-minor identity: max relative discrepancy {report.max_discrepancy:.2e} "
      f"({K.shape[0] - skipped} checked, {skipped} skipped near coincidences)")

# interlacing between a symmetric matrix and its trailing minor
A = rng.standard_normal((80, 80))
S = (A + A.T) / 2.0  # bitwise symmetric: a + b == b + a in floating point
violation = interlacing_check(S)
print(f"interlacing violation: {violation:.2e} (0 means it holds)")

# the delocalisation statistic: sqrt(n) for coordinate vectors, ~sqrt(2 log n)
# for a generic orthonormal basis
n = 400
print(f"identity matrix (fully localized): statistic = "
      f"{delocalisation_report(eigendecompose(np.eye(n)), 0):.2f} = sqrt({n})")
Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
haar = EigenDecomposition(eigenvalues=np.arange(n, 0, -1, dtype=float), eigenvectors=Q)
print(f"random orthonormal basis: statistic = {delocalisation_report(haar, 0):.2f} "
      f"(compare sqrt(2 log n) = {np.sqrt(2 * np.log(n)):.2f})")

# distance between a random 0/1 vector and a random 256-dimensional subspace
p0, q = 0.5, 256
frequencies = subspace_distance_experiment(n=1024, q=q, p0=p0, trials=5000, seed=1)
print(f"\nsubspace distance concentration (sigma sqrt(q) = {np.sqrt(p0 * (1 - p0) * q):.0f}):")
print(f"{'t':>4} {'empirical':>10} {'bound':>10}")
for t, f, b in zip(TAIL_THRESHOLDS, frequencies, TAIL_BOUNDS):
    print(f"{t:>4.0f} {f:>10.4f} {b:>10.4f}")
