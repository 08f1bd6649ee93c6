"""Low-rank approximation of kernel matrices.

Build Gram matrices, compute optimal rank-d spectral truncations and their
entrywise/Frobenius/spectral errors, compare against randomized-projection
approximations, evaluate analytic spectra and decay-rate predictions, and
numerically verify the spectral identities and concentration phenomena that
underpin the error analysis.

The public API is ``__all__``. Each name is imported from its module on first
access (PEP 562), so ``import kernlr`` loads no submodule and a caller pays
only for the modules it uses.
"""

import importlib

_EXPORTS = {
    "analytic": ("DecayHypothesis", "GaussianRbfSpectrum", "beta_from_upsilon",
                 "entrywise_error_rate", "exp_tail_bound", "exponential_decay",
                 "gaussian_rbf_eigenfunction", "gaussian_rbf_eigenvalue", "poly_tail_bound",
                 "polynomial_decay", "required_rank", "sphere_decay_hypothesis",
                 "sphere_harmonic_count", "tensor_spectrum"),
    "datasets": ("gaussian_synthetic", "gmm_synthetic", "load_csv", "sphere_uniform",
                 "subsample"),
    "kernels": ("KernelSpec", "as_dataset", "dot_product", "gram_matrix", "matern",
                "median_heuristic", "rbf", "standardize"),
    "random_projection": ("MethodComparison", "compare_methods", "factor_from_eigendecomposition",
                          "jl_error_bound"),
    "spectral": ("EigenDecomposition", "EigensolverError", "RankSweepResult", "eigendecompose",
                 "error_sweep", "truncate"),
    "verification": ("MinorIdentityReport", "delocalisation_report",
                     "eigenvalue_deviation_report", "interlacing_check", "minor_identity_check",
                     "subspace_distance_experiment"),
}
# Public name -> the module that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
