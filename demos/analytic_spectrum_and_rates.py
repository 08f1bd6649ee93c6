"""Closed-form spectrum of the squared-exponential kernel under Gaussian data.

Shows the geometric eigenvalue sequence, checks the truncated eigenfunction
expansion against the kernel itself, and tabulates how many components a
truncation needs (and the error it then achieves) as the sample grows.

Run:  python3 demos/analytic_spectrum_and_rates.py
"""

import numpy as np

from kernlr import (
    GaussianRbfSpectrum,
    entrywise_error_rate,
    eigendecompose,
    eigenvalue_deviation_report,
    exponential_decay,
    gaussian_rbf_eigenfunction,
    gaussian_rbf_eigenvalue,
    gaussian_synthetic,
    gram_matrix,
    rbf,
    required_rank,
    tensor_spectrum,
)

spec = GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0)
print(f"bandwidth ratio upsilon = {spec.upsilon:g}")
print(f"decay rate beta = {spec.beta:.7f} (eigenvalues shrink by e^-beta per index)")
print("leading eigenvalues:", ", ".join(f"{gaussian_rbf_eigenvalue(i, spec):.7f}" for i in range(6)))

# the expansion really is the kernel: 50 terms reproduce it to ~1e-15
xs = np.linspace(-2, 2, 41)
XX, YY = np.meshgrid(xs, xs)
total = np.zeros_like(XX)
for i in range(50):
    ux = gaussian_rbf_eigenfunction(i, XX.ravel(), spec).reshape(XX.shape)
    uy = gaussian_rbf_eigenfunction(i, YY.ravel(), spec).reshape(YY.shape)
    total += gaussian_rbf_eigenvalue(i, spec) * ux * uy
err = np.abs(total - np.exp(-((XX - YY) ** 2) / 2.0)).max()
print(f"50-term expansion vs kernel, uniform error on [-2,2]^2: {err:.2e}\n")

# sample eigenvalues over n approach the analytic ones
n = 1500
X = gaussian_synthetic(n, 1, sigma=1.0, seed=0)
eig = eigendecompose(gram_matrix(rbf(1.0), X), k=5)  # the leading 5 pairs only
sample, analytic = eig.eigenvalues[:5] / n, tensor_spectrum(spec, 5)
deviation = eigenvalue_deviation_report(eig, spec, count=5)
print(f"{'i':>3} {'sample/n':>12} {'analytic':>12} {'rel dev':>10}")
for i, (s, a, r) in enumerate(zip(sample, analytic, deviation), start=1):
    print(f"{i:>3} {s:>12.6f} {a:>12.6f} {r:>10.4f}")

# predicted rank requirement and error rate as n grows
hyp = exponential_decay(spec.beta)
print(f"\n{'n':>8} {'required rank':>14} {'predicted rate':>15}")
for m in (100, 1000, 10000, 100000):
    print(f"{m:>8} {required_rank(m, hyp):>14} {entrywise_error_rate(m, hyp):>15.2e}")
