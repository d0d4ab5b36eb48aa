"""The count rule: every public entry that takes a count refuses a float, a
bool or a negative by name, before any work, and takes a numpy integer as
an int.  A seed is a count from 0."""

import re

import numpy as np
import pytest

import wavescale.classify as classify
import wavescale.fbm as fbm
from wavescale import (ClassifierSpec, ConfigurationError, EvalSpec, FbmSpec,
                       FeatureMatrix, MethodConfig, SpectraDataset, SplitSpec,
                       balance_classes, evaluate, evaluate_classifiers,
                       extract_features, fgn_sample, make_filter,
                       make_windows, run_estimator_benchmark, select_top,
                       two_class_fbm_dataset)
from wavescale.classify import check_evaluation
from wavescale.pipeline import balance_feature_rows, extract_settings
from wavescale.wavelets import packet_cascade

_RNG = np.random.default_rng(3)
_LABELS = np.array([0, 1] * 10, dtype=np.int8)
_FEATURES = FeatureMatrix(
    method="dwt", slopes=_RNG.standard_normal((20, 4)) + _LABELS[:, None],
    hurst=np.full((20, 4), np.nan), labels=_LABELS,
    sample_ids=tuple(f"s{i}" for i in range(20)))
_SPECTRA = SpectraDataset(
    intensities=_RNG.standard_normal((4, 64)).cumsum(axis=1),
    labels=np.array([0, 1, 0, 1], dtype=np.int8),
    sample_ids=("a", "b", "c", "d"))
_UNEVEN = np.array([0, 1, 1, 1, 0, 1], dtype=np.int8)  # 2 vs 4 samples
_SPLIT = SplitSpec(n_repeats=3)
_KNN = ClassifierSpec("knn", k=3)

# (the name the error starts with, a valid count, the call of a count)
_ENTRIES = {
    "SplitSpec.n_repeats": ("n_repeats", 3, lambda v: evaluate(
        _FEATURES, _KNN, 2, SplitSpec(n_repeats=v))),
    "ClassifierSpec.max_iters": ("max_iters", 5, lambda v: evaluate(
        _FEATURES, ClassifierSpec(max_iters=v), 2, _SPLIT)),
    "ClassifierSpec.k": ("k", 3, lambda v: evaluate(
        _FEATURES, ClassifierSpec("knn", k=v), 2, _SPLIT)),
    "evaluate_classifiers.ps": ("ps[0]", 2, lambda v: evaluate_classifiers(
        _FEATURES, [_KNN], EvalSpec([v]), _SPLIT)),
    "evaluate_classifiers.repeats": ("repeats[0]", 2, lambda v:
                                     evaluate_classifiers(
        _FEATURES, [_KNN], EvalSpec([2], [v]), _SPLIT)),
    "evaluate_classifiers.threads": ("threads", 2, lambda v:
                                     evaluate_classifiers(
        _FEATURES, [_KNN], EvalSpec([2]), _SPLIT, threads=v)),
    "evaluate_classifiers.threads.no_ps": ("threads", 2, lambda v:
                                           evaluate_classifiers(
        _FEATURES, [_KNN], EvalSpec([]), _SPLIT, threads=v)),
    "extract_features.threads": ("threads", 2, lambda v: extract_features(
        _SPECTRA, "dwt", make_windows(64, 32, 16), threads=v).slopes),
    "run_estimator_benchmark.n_reps": ("n_reps", 2, lambda v:
                                       run_estimator_benchmark(
        [0.5], v, 64, methods=["dwt"])),
    "run_estimator_benchmark.threads": ("threads", 2, lambda v:
                                        run_estimator_benchmark(
        [0.5], 2, 64, methods=["dwt"], threads=v)),
    "run_estimator_benchmark.length": ("length", 64, lambda v:
                                       run_estimator_benchmark(
        [0.5], 2, v, methods=["dwt"])),
    "make_windows.window_len": ("window_len", 32, lambda v: make_windows(
        64, v, 16)),
    "make_windows.stride": ("stride", 16, lambda v: make_windows(64, 32, v)),
    "select_top": ("p", 2, lambda v: select_top(np.arange(4.0), v)),
    "check_evaluation": ("p", 2, lambda v: check_evaluation(
        [_KNN], [v], 4, 10, 10, _SPLIT)),
    "MethodConfig.check": ("depth", 4, lambda v: MethodConfig(
        "dwt", 64, "haar", v)),
    "MethodConfig.check.window_len": ("window length", 64, lambda v:
                                      MethodConfig("dwt", v, "haar", 4)),
    "extract_settings": ("window length", 64, lambda v: extract_settings(
        "dwt", window_len=v, stride_source="stride")),
    "extract_features.window_len": ("window_len", 32, lambda v:
                                    extract_features(
        _SPECTRA, "dwt", make_windows(64, v, 16)).slopes),
    "FbmSpec.length": ("length", 64, lambda v: fgn_sample(FbmSpec(
        0.5, v, 0))),
    "packet_cascade": ("depth", 3, lambda v: list(packet_cascade(
        _SPECTRA.intensities, make_filter("haar"), v))),
    "two_class_fbm_dataset": ("n_per_class", 2, lambda v:
                              two_class_fbm_dataset(
        v, n_bins=64).intensities),
    "two_class_fbm_dataset.n_bins": ("n_bins", 64, lambda v:
                                     two_class_fbm_dataset(
        2, n_bins=v).intensities),
}
_ENTRIES.update({  # a seed is a count from 0
    "SplitSpec.master_seed": ("master_seed", 3, lambda v: evaluate(
        _FEATURES, _KNN, 2, SplitSpec(n_repeats=3, master_seed=v))),
    "run_estimator_benchmark.master_seed": ("master_seed", 3, lambda v:
                                            run_estimator_benchmark(
        [0.5], 2, 64, methods=["dwt"], master_seed=v)),
    "two_class_fbm_dataset.seed": ("seed", 3, lambda v: two_class_fbm_dataset(
        2, n_bins=64, seed=v).intensities),
    "balance_classes": ("seed", 3, lambda v: balance_classes(SpectraDataset(
        intensities=_RNG.standard_normal((6, 8)), labels=_UNEVEN,
        sample_ids=tuple("abcdef")), v).sample_ids),
    "balance_feature_rows": ("seed", 3, lambda v: balance_feature_rows(
        FeatureMatrix(method="dwt", slopes=np.zeros((6, 2)),
                      hurst=np.zeros((6, 2)), labels=_UNEVEN,
                      sample_ids=tuple("abcdef")), v).sample_ids),
})


@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_counts_are_integers(monkeypatch, entry):
    name, valid, call = _ENTRIES[entry]
    with monkeypatch.context() as m:
        def fail(*args, **kwargs):
            raise AssertionError("work started before the count was checked")

        m.setattr(classify, "_draw_splits", fail)
        m.setattr(fbm, "_fgn_rows", fail)
        for bad in (2.5, True, np.float64(2.0), -1):
            with pytest.raises(ConfigurationError,
                               match=f"^{re.escape(name)} "):
                call(bad)
    np.testing.assert_equal(call(np.int64(valid)), call(valid))

