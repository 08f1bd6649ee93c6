"""Rank sweep of truncation errors on Gaussian-mixture data.

Builds the four standard kernels on a 1000-point, 10-dimensional mixture
(bandwidth from the median heuristic), decomposes each Gram matrix, and
tracks how the worst matrix entry of the rank-d reconstruction improves
as d grows. Smooth kernels drop fast; the rough exponential kernel lags.

Run:  python3 demos/truncation_error_sweep.py
"""

import numpy as np

from kernlr import (
    eigendecompose,
    error_sweep,
    gmm_synthetic,
    gram_matrix,
    matern,
    median_heuristic,
    rbf,
)
from kernlr.svgplot import line_plot

X = gmm_synthetic(n=1000, p=10, seed=0)
bandwidth = median_heuristic(X)
print(f"dataset: {X.shape[0]} points in {X.shape[1]} dimensions")
print(f"median-heuristic bandwidth: {bandwidth:.4f}\n")

ranks = sorted({0, 1000} | set(np.unique(np.rint(np.geomspace(1, 1000, 25)).astype(int)).tolist()))
kernels = [matern(0.5, bandwidth), matern(1.5, bandwidth), matern(2.5, bandwidth), rbf(bandwidth)]

curves = []
sweeps = {}
for spec in kernels:
    gram = gram_matrix(spec, X)
    eig = eigendecompose(gram)
    sweep = error_sweep(gram, eig, ranks)
    sweeps[spec.label] = sweep
    curves.append((spec.label, ranks, sweep.max_entry_error.tolist()))

print(f"{'rank':>6}  " + "  ".join(f"{label:>10}" for label in sweeps))
for i, d in enumerate(ranks):
    if d in (0, 1, 10, 50, 100, 300, 1000):
        row = "  ".join(f"{sweeps[label].max_entry_error[i]:10.3e}" for label in sweeps)
        print(f"{d:>6}  {row}")

# entrywise error never exceeds tail mass times the squared tail sup-norm
sw = sweeps["rbf"]
chain_ok = np.all(sw.max_entry_error <= sw.tail_abs_sum * sw.sup_norm_tail**2 + 1e-12)
print(f"\nmax-entry error <= tail mass * sup-norm^2 at every rank: {chain_ok}")

line_plot("truncation_error_sweep.svg", curves, xlabel="rank",
          ylabel="max-entry error", title="Truncation error against rank")
print("wrote truncation_error_sweep.svg")
