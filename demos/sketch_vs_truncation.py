"""Optimal truncation against randomized sketching, rank for rank.

A random-projection sketch X R R^T X^T needs polynomially many columns to
drive the worst-entry error down (it shrinks like sqrt(log n / d)); the
spectral truncation of a smooth kernel matrix gets there with a handful of
components. This script measures both on the same Gram matrix.

Run:  python3 demos/sketch_vs_truncation.py
"""

import numpy as np

from kernlr import compare_methods, gaussian_synthetic, gram_matrix, median_heuristic, rbf

X = gaussian_synthetic(300, 5, sigma=1.0, seed=3)
gram = gram_matrix(rbf(median_heuristic(X)), X)

ranks = [4, 16, 64, 256]
result = compare_methods(gram, ranks, trials=50, seed=11)

print(f"{'rank':>6} {'truncation':>12} {'sketch median':>14} {'rate shape':>12}")
for d, s, j, r in zip(result.ranks, result.spectral_max_error,
                      result.jl_median_max_error, result.jl_rate_shape):
    print(f"{d:>6} {s:>12.3e} {j:>14.3e} {r:>12.3f}")

slope = np.polyfit(np.log(result.ranks), np.log(result.jl_median_max_error), 1)[0]
print(f"\nsketch error log-log slope vs rank: {slope:.3f} (theory: -1/2)")

# the sketch is reproducible: same seed, same sketch errors
same = np.array_equal(compare_methods(gram, [16], trials=5, seed=0).jl_median_max_error,
                      compare_methods(gram, [16], trials=5, seed=0).jl_median_max_error)
print(f"sketch reproducible bit-for-bit given the seed: {same}")
