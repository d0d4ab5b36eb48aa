"""Wavelet-packet scaling descriptors for 1-D signals.

Core pieces: periodic filter-bank decompositions (DWT and full wavelet
packets), entropy best-basis search, three Hurst/slope estimators, an
exact fractional Brownian motion simulator with an estimator benchmark,
and a rolling-window feature-extraction plus classification pipeline for
mass-spectra-style data matrices.
"""

from .best_basis import BasisSelection, basis_coefficients, best_basis, shannon_cost
from .classify import (
    ClassifierSpec,
    EvalReport,
    LogisticModel,
    SplitSpec,
    StandardizeTransform,
    accuracy_vs_feature_count,
    evaluate,
    evaluate_classifiers,
    feature_correlation,
    knn_predict,
    logistic_gradient,
    logistic_objective,
    predict_logistic,
    standardize,
    train_logistic,
)
from .errors import ConfigurationError, EstimationError, IngestionError, ShapeError
from .estimators import (
    METHODS,
    ScalingDescriptor,
    SlopeFit,
    SpectrumPoint,
    fit_slope,
    hurst_dwt,
    hurst_jones,
    hurst_wang,
    rank_size_fit,
    scaling_descriptor,
    spectrum_dwt,
    spectrum_wang,
)
from .fbm import (
    BenchmarkEntry,
    BenchmarkReport,
    FbmSpec,
    fbm_from_fgn,
    fgn_autocovariance,
    fgn_sample,
    run_estimator_benchmark,
)
from .pipeline import (
    LEVEL_PLANS,
    FeatureMatrix,
    MethodConfig,
    SpectraDataset,
    WindowGrid,
    balance_classes,
    default_method_config,
    extract_features,
    fisher_scores,
    load_dataset,
    make_windows,
    rank_sum_test,
    select_top,
    window_mz_ranges,
)
from .synthetic import two_class_fbm_dataset
from .wavelets import (
    DwtDecomposition,
    FilterPair,
    PacketTree,
    analysis_step,
    dwt_forward,
    make_filter,
    synthesis_step,
    wpd_full,
)

__version__ = "0.1.0"

__all__ = [
    "analysis_step", "accuracy_vs_feature_count", "balance_classes",
    "basis_coefficients", "best_basis", "BasisSelection", "BenchmarkEntry",
    "BenchmarkReport", "ClassifierSpec", "ConfigurationError",
    "default_method_config", "dwt_forward", "DwtDecomposition",
    "EstimationError", "EvalReport", "evaluate", "evaluate_classifiers",
    "extract_features",
    "FbmSpec", "FeatureMatrix", "feature_correlation", "fgn_autocovariance",
    "fgn_sample", "fbm_from_fgn", "FilterPair", "fisher_scores", "fit_slope",
    "hurst_dwt", "hurst_jones", "hurst_wang", "IngestionError",
    "knn_predict", "LEVEL_PLANS", "load_dataset", "logistic_gradient",
    "logistic_objective", "LogisticModel", "make_filter", "make_windows",
    "MethodConfig", "METHODS", "PacketTree",
    "predict_logistic", "rank_size_fit", "rank_sum_test", "run_estimator_benchmark",
    "scaling_descriptor", "ScalingDescriptor", "select_top", "shannon_cost",
    "ShapeError", "SlopeFit", "SpectraDataset", "SpectrumPoint",
    "spectrum_dwt", "spectrum_wang", "SplitSpec", "standardize",
    "StandardizeTransform", "synthesis_step", "train_logistic",
    "two_class_fbm_dataset", "window_mz_ranges", "WindowGrid", "wpd_full",
]
