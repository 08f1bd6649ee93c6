"""Low-rank approximation of kernel matrices.

Build Gram matrices, compute optimal rank-d spectral truncations and their
entrywise/Frobenius/spectral errors, compare against randomized-projection
approximations, evaluate analytic spectra and decay-rate predictions, and
numerically verify the spectral identities and concentration phenomena that
underpin the error analysis.

The public API is the set of names imported below.
"""

from .analytic import (
    DecayHypothesis,
    GaussianRbfSpectrum,
    SphereSpectrumParams,
    beta_from_upsilon,
    entrywise_error_rate,
    exp_tail_bound,
    exponential_decay,
    gaussian_rbf_eigenfunction,
    gaussian_rbf_eigenvalue,
    poly_tail_bound,
    polynomial_decay,
    required_rank,
    sphere_decay_hypothesis,
    sphere_harmonic_count,
    tensor_spectrum,
)
from .datasets import (
    gaussian_synthetic,
    gmm_synthetic,
    load_csv,
    sphere_uniform,
    subsample,
)
from .errors import CapabilityError, DegenerateDataError, EigensolverError, HypothesisError
from .kernels import (
    KernelSpec,
    as_dataset,
    dot_product,
    gram_matrix,
    matern,
    median_heuristic,
    rbf,
    standardize,
)
from .random_projection import (
    MethodComparison,
    PsdFactor,
    compare_methods,
    factor_from_eigendecomposition,
    jl_approximation,
    jl_error_bound,
)
from .spectral import (
    EigenDecomposition,
    RankSweepResult,
    eigendecompose,
    error_sweep,
    truncate,
)
from .verification import (
    EntryLaw,
    MinorIdentityReport,
    TailFrequencyReport,
    bernoulli,
    delocalisation_report,
    eigenvalue_deviation_report,
    interlacing_check,
    minor_identity_check,
    subspace_distance_experiment,
)

__version__ = "0.1.0"
