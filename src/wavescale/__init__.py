"""Wavelet-packet scaling descriptors for 1-D signals.

Core pieces: periodic filter-bank decompositions (DWT and full wavelet
packets), entropy best-basis search, three Hurst/slope estimators, an
exact fractional Brownian motion simulator with an estimator benchmark,
and a rolling-window feature-extraction plus classification pipeline for
mass-spectra-style data matrices.
"""

import importlib

# ``best_basis`` names both a submodule and its main function; binding the
# function here, after the submodule has loaded, keeps it the package
# attribute whatever is imported later.  Every subcommand needs the module.
from .best_basis import best_basis

__version__ = "0.1.0"

# Public name -> owning submodule, grouped by module.  Names resolve on
# first access (PEP 562), so a subcommand loads only what it runs.
_EXPORTS = {
    "best_basis": ("BasisSelection", "basis_coefficients", "best_basis",
                   "shannon_cost"),
    "classify": ("ClassifierSpec", "EvalReport", "EvalSpec", "LogisticModel",
                 "SplitSpec", "StandardizeTransform",
                 "accuracy_vs_feature_count", "evaluate",
                 "evaluate_classifiers", "feature_correlation", "knn_predict",
                 "logistic_gradient", "logistic_objective",
                 "predict_logistic", "standardize", "train_logistic"),
    "errors": ("ConfigurationError", "EstimationError", "IngestionError",
               "ShapeError"),
    "estimators": ("METHODS", "ScalingDescriptor", "SlopeFit", "SpectrumPoint",
                   "fit_slope", "hurst_dwt", "hurst_jones", "hurst_wang",
                   "rank_size_fit", "scaling_descriptor", "spectrum_dwt",
                   "spectrum_wang"),
    "fbm": ("BenchmarkEntry", "BenchmarkReport", "FbmSpec", "fbm_from_fgn",
            "fgn_autocovariance", "fgn_sample", "run_estimator_benchmark"),
    "pipeline": ("LEVEL_PLANS", "FeatureMatrix", "MethodConfig",
                 "SpectraDataset", "WindowGrid", "balance_classes",
                 "extract_features", "fisher_scores", "load_dataset",
                 "make_windows", "rank_sum_test", "select_top",
                 "window_mz_ranges"),
    "synthetic": ("two_class_fbm_dataset",),
    "wavelets": ("DwtDecomposition", "FilterPair", "PacketTree",
                 "analysis_step", "dwt_forward", "make_filter",
                 "synthesis_step", "wpd_full"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_OWNER[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
