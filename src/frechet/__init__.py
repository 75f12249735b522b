"""Set-valued means of probability measures on metric spaces.

The package computes minimizer sets of the renormalized p-th-power
distance objective over pluggable metric spaces, and ships desk-scale
experiments for their convergence behavior: laws of large numbers,
single-trajectory ergodic averages, and large-deviations rates.
"""

__version__ = "0.1.0"

from .core import (
    ConfigurationError,
    ConvergenceFailure,
    DiscreteMeasure,
    FrechetConfig,
    MeanSetApprox,
    Space,
    frechet_functional,
    moment,
    relaxed_mean_set,
)
from .spaces import (
    BuresWassersteinSpace,
    EuclideanSpace,
    LqSequenceSpace,
    Measure1D,
    PersistenceDiagramSpace,
    QuantileTable,
    SpiderSpace,
    Wasserstein1D,
    matrix_sqrt,
    quantile_barycenter,
)
from .constructions import (
    GroupSpec,
    ProductSpace,
    QuotientSpace,
    RegularizedSpace,
)
from .solvers import (
    SolverConfig,
    bw_barycenter,
    euclidean_pmean,
    grid_mean_set,
    grid_oracle,
    weiszfeld_median,
)
from .convergence import (
    ConvergenceReport,
    gamma_convergence_probe,
    one_sided_hausdorff,
)
from .stochastics import (
    ExperimentConfig,
    LdpResult,
    SamplerSpec,
    ergodic_experiment,
    ldp_experiment,
    ldp_rate_function,
    relative_entropy,
    sample_empirical,
    slln_experiment,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "ConvergenceFailure",
    "DiscreteMeasure",
    "FrechetConfig",
    "MeanSetApprox",
    "Space",
    "frechet_functional",
    "moment",
    "relaxed_mean_set",
    "BuresWassersteinSpace",
    "EuclideanSpace",
    "LqSequenceSpace",
    "Measure1D",
    "PersistenceDiagramSpace",
    "QuantileTable",
    "SpiderSpace",
    "Wasserstein1D",
    "matrix_sqrt",
    "quantile_barycenter",
    "GroupSpec",
    "ProductSpace",
    "QuotientSpace",
    "RegularizedSpace",
    "SolverConfig",
    "bw_barycenter",
    "euclidean_pmean",
    "grid_mean_set",
    "grid_oracle",
    "weiszfeld_median",
    "ConvergenceReport",
    "gamma_convergence_probe",
    "one_sided_hausdorff",
    "ExperimentConfig",
    "LdpResult",
    "SamplerSpec",
    "ergodic_experiment",
    "ldp_experiment",
    "ldp_rate_function",
    "relative_entropy",
    "sample_empirical",
    "slln_experiment",
]
