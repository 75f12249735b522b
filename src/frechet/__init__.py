"""Set-valued means of probability measures on metric spaces.

The package computes minimizer sets of the renormalized p-th-power
distance objective over pluggable metric spaces, and ships desk-scale
experiments for their convergence behavior: laws of large numbers,
single-trajectory ergodic averages, and large-deviations rates.

``import frechet`` loads no submodule: each exported name, and each
submodule named in ``_EXPORTS``, is imported on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "core": ("ConfigurationError", "ConvergenceFailure", "DiscreteMeasure", "FrechetConfig",
             "MeanSetApprox", "Space", "frechet_functional", "moment", "relaxed_mean_set"),
    "spaces": ("BuresWassersteinSpace", "EuclideanSpace", "LqSequenceSpace", "Measure1D",
               "PersistenceDiagramSpace", "QuantileTable", "SpiderSpace", "Wasserstein1D",
               "matrix_sqrt", "quantile_barycenter"),
    "constructions": ("GroupSpec", "ProductSpace", "QuotientSpace", "RegularizedSpace"),
    "solvers": ("SolverConfig", "bw_barycenter", "euclidean_pmean", "grid_mean_set",
                "grid_oracle", "weiszfeld_median"),
    "convergence": ("ConvergenceReport", "gamma_convergence_probe", "one_sided_hausdorff"),
    "stochastics": ("ExperimentConfig", "LdpResult", "SamplerSpec", "ergodic_experiment",
                    "ldp_experiment", "ldp_rate_function", "sample_empirical",
                    "slln_experiment"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
