"""One refusal per setting, whatever the path.

Each row of ``_ROWS`` gives one bad value of a setting and every path that
takes the setting: the CLI flag through ``cli.main``, the YAML key through
``load_run_config`` (or through ``pipeline``, for a check that needs the
data or the output directory), and the library spec or call.  Every path
refuses the value with a ConfigurationError (exit code 2 on the CLI), and
the messages agree once each path's source prefix, the flag, key or field
it names, is taken off.

A flag such as ``--balance`` or ``--standardize`` takes no value, and a
library flag is read by its truth, so a bool setting's row holds its YAML
key alone.
"""

import io
from contextlib import redirect_stderr
from typing import NamedTuple

import numpy as np
import pytest
import yaml

from wavescale import (ClassifierSpec, ConfigurationError, EvalSpec,
                       FeatureMatrix, IngestionError, MethodConfig, SplitSpec,
                       accuracy_vs_feature_count, evaluate,
                       evaluate_classifiers, extract_features, knn_predict,
                       load_dataset, make_windows, run_estimator_benchmark,
                       train_logistic, two_class_fbm_dataset)
from wavescale.classify import _SETTINGS
from wavescale.cli import main
from wavescale.config import _DATASET_KEYS, _TOP_KEYS, load_run_config

_DATA = two_class_fbm_dataset(n_per_class=5, n_bins=1536, seed=3)
_GRID = make_windows(1536, 512, 512)  # 3 windows
_FEATURES = FeatureMatrix(
    method="wang", hurst=np.full((10, 3), np.nan), labels=_DATA.labels,
    slopes=np.random.default_rng(1).standard_normal((10, 3)),
    sample_ids=_DATA.sample_ids)
_SPLIT = SplitSpec(n_repeats=2)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The inputs the CLI and YAML paths read, by name: a matrix CSV and
    its labels of ``_DATA``, ``_FEATURES`` as a feature CSV, a plain file
    and a missing output directory."""
    tmp = tmp_path_factory.mktemp("parity")
    paths = {name: tmp / name for name in
             ("matrix.csv", "labels.csv", "features.csv", "afile", "out")}
    np.savetxt(paths["matrix.csv"],
               np.column_stack([np.arange(1.0, 1537), _DATA.intensities.T]),
               delimiter=",", header="mz," + ",".join(_DATA.sample_ids),
               comments="")
    paths["labels.csv"].write_text("sample_id,label\n" + "".join(
        f"{sid},{label}\n" for sid, label in zip(_DATA.sample_ids,
                                                  _DATA.labels)))
    _FEATURES.write_csv(paths["features.csv"])
    paths["afile"].write_text("a file\n")
    return {name.split(".")[0]: str(path) for name, path in paths.items()}


def _cli(*argv):
    """``cli.main(argv)``, the ``{name}`` fields of argv taken from the
    files, as (exit code, the message after ``error: ``)."""
    def run(files):
        err = io.StringIO()
        with redirect_stderr(err):
            code = main([arg.format(**files) for arg in argv])
        return code, err.getvalue().removeprefix("error: ").rstrip("\n")
    return run


def _extract(*flags):
    return _cli("extract", "--matrix", "{matrix}", "--labels", "{labels}",
                "--method", "wang", "--window-len", "512", "--stride", "512",
                "--out", "{out}-features.csv", *flags)


def _classify(*flags):
    return _cli("classify", "--features", "{features}", "--p", "2",
                "--repeats", "2", "--out-dir", "{out}", *flags)


def _simulate(*flags):
    return _cli("simulate", "--h", "0.5", "--n", "64", "--reps", "2",
                "--methods", "dwt", "--out", "{out}.csv", *flags)


def _yaml(key, value, command=False, **more):
    """``load_run_config`` (with ``command``, ``pipeline``) of a valid
    config whose dotted ``key`` is set to ``value``, and each dotted key of
    ``more`` to its value."""
    def run(files):
        value_ = value.format(**files) if isinstance(value, str) else value
        config = {"dataset": {"matrix": files["matrix"],
                              "labels": files["labels"]},
                  "method": "wang", "window": {"length": 512, "stride": 512},
                  "split": {"repeats": 2}, "features": {"p": 2},
                  "output_dir": files["out"]}
        for dotted, setting in {key: value_, **more}.items():
            *parents, last = dotted.split(".")
            node = config
            for name in parents:
                node = node.setdefault(name, {})
            node[last] = setting
        path = f"{files['out']}.yaml"
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(config, fh)
        if command:
            return _cli("pipeline", path)(files)
        return _library(lambda: load_run_config(path))(files)
    return run


def _library(call):
    def run(files):
        try:
            call()
        except ConfigurationError as exc:
            return ConfigurationError.exit_code, str(exc)
        return 0, ""  # accepted
    return run


class Row(NamedTuple):
    """A bad value of ``setting``, set by the YAML key ``key`` (None when
    no key sets it), and its paths: (source prefix, path) pairs."""

    setting: str
    key: str
    paths: list


_ROWS = [
    Row("train_fraction", "split.train_fraction", [
        ("--train-fraction", _classify("--train-fraction", "1.5")),
        ("split.train_fraction", _yaml("split.train_fraction", 1.5)),
        ("train_fraction", _library(lambda: SplitSpec(train_fraction=1.5)))]),
    Row("train_fraction (samples)", "split.train_fraction", [
        # 3 training rows of 5 cases and 5 controls
        ("", _classify("--train-fraction", "0.3", "--classifiers",
                       "logistic")),
        ("", _yaml("split.train_fraction", 0.3, command=True,
                   classifiers=["logistic"])),
        ("", _library(lambda: evaluate(_FEATURES, ClassifierSpec(), 1,
                                       SplitSpec(0.3, 2))))]),
    Row("n_repeats", "split.repeats", [
        ("--repeats", _classify("--repeats", "0")),
        ("split.repeats", _yaml("split.repeats", 0)),
        ("n_repeats", _library(lambda: SplitSpec(n_repeats=0))),
        ("n_repeats", _library(lambda: accuracy_vs_feature_count(
            _FEATURES, ClassifierSpec(), [1], SplitSpec(n_repeats=0))))]),
    Row("curve_repeats", "features.curve_repeats", [
        ("--curve-repeats", _classify("--curve", "1..2",
                                      "--curve-repeats", "0")),
        ("features.curve_repeats", _yaml("features.curve_repeats", 0)),
        ("repeats[0]", _library(lambda: EvalSpec([1], [0])))]),
    Row("p", "features.p", [
        ("--p", _classify("--p", "0")),
        ("features.p", _yaml("features.p", 0)),
        ("ps[0]", _library(lambda: EvalSpec([0]))),
        ("ps[0]", _library(lambda: evaluate(_FEATURES, ClassifierSpec(), 0,
                                            _SPLIT)))]),
    Row("curve (low)", "features.curve", [
        ("--curve", _classify("--curve", "0..3")),
        ("features.curve", _yaml("features.curve", [0, 3])),
        ("ps[0]", _library(lambda: accuracy_vs_feature_count(
            _FEATURES, ClassifierSpec(), range(0, 4), _SPLIT)))]),
    Row("curve", "features.curve", [  # a count past the 3 windows
        ("", _classify("--curve", "1..4")),
        ("", _yaml("features.curve", [1, 4], command=True)),
        ("", _library(lambda: accuracy_vs_feature_count(
            _FEATURES, ClassifierSpec(), range(1, 5), _SPLIT)))]),
    Row("selection_mode", "selection", [
        ("--selection", _classify("--selection", "globl")),
        ("selection", _yaml("selection", "globl")),
        ("selection_mode", _library(lambda: EvalSpec([1], None, "globl"))),
        ("selection_mode", _library(lambda: evaluate(
            _FEATURES, ClassifierSpec(), 1, _SPLIT,
            selection_mode="globl")))]),
    Row("kind", "classifiers", [
        ("--classifiers", _classify("--classifiers", "foo")),
        ("classifiers[0]", _yaml("classifiers", ["foo"])),
        ("kind", _library(lambda: ClassifierSpec("foo")))]),
    Row("l2_c", "classifiers", [
        ("classifiers[0].C", _yaml("classifiers", [{"kind": "logistic",
                                                    "C": 0}])),
        ("l2_c", _library(lambda: ClassifierSpec(l2_c=0.0))),
        ("l2_c", _library(lambda: train_logistic(
            _FEATURES.slopes, _FEATURES.labels, l2_c=0.0)))]),
    Row("max_iters", "classifiers", [
        ("classifiers[0].max_iters", _yaml("classifiers", [
            {"kind": "logistic", "max_iters": 0}])),
        ("max_iters", _library(lambda: ClassifierSpec(max_iters=0)))]),
    Row("tol", "classifiers", [
        ("classifiers[0].tol", _yaml("classifiers", [{"kind": "logistic",
                                                      "tol": -1e-6}])),
        ("tol", _library(lambda: ClassifierSpec(tol=-1e-6)))]),
    Row("k", "classifiers", [
        ("classifiers[0].k", _yaml("classifiers", [{"kind": "knn", "k": 0}])),
        ("k", _library(lambda: ClassifierSpec("knn", k=0))),
        ("k", _library(lambda: knn_predict(
            _FEATURES.slopes, _FEATURES.labels, _FEATURES.slopes, k=0)))]),
    Row("master_seed", "seed", [
        ("--seed", _classify("--seed", "-1")),
        ("seed", _yaml("seed", -1)),
        ("master_seed", _library(lambda: SplitSpec(master_seed=-1)))]),
    Row("method", "method", [
        ("", _extract("--method", "foo")),
        ("", _yaml("method", "foo")),
        ("", _library(lambda: MethodConfig("foo"))),
        ("", _library(lambda: extract_features(_DATA, "foo", _GRID)))]),
    Row("wavelet", "wavelet", [
        ("", _extract("--wavelet", "db2")),
        ("", _yaml("wavelet", "db2")),
        ("", _library(lambda: MethodConfig("wang", 512, "db2")))]),
    Row("depth", "depth", [
        ("", _extract("--depth", "0")),
        ("", _yaml("depth", 0)),
        ("", _library(lambda: MethodConfig("wang", 512, depth=0)))]),
    Row("levels", "levels", [
        ("", _yaml("levels", [{"windows": [3, 1], "levels": [5, 6]}])),
        ("", _library(lambda: MethodConfig(
            "wang", 512, level_plan=((3, 1, (5, 6)),))))]),
    Row("levels (tag plan)", "dataset.tag", [  # too shallow for the plan
        ("", _extract("--dataset-tag", "ovarian-8-7-02", "--depth", "3",
                      "--window-len", "1024")),
        ("", _yaml("dataset.tag", "ovarian-8-7-02", depth=3,
                   **{"window.length": 1024})),
        ("", _library(lambda: MethodConfig("wang", 1024, depth=3,
                                           dataset_tag="ovarian-8-7-02")))]),
    Row("dataset_tag", "dataset.tag", [
        ("", _extract("--dataset-tag", "bogus")),
        ("", _yaml("dataset.tag", "bogus")),
        ("", _library(lambda: MethodConfig("wang", dataset_tag="bogus")))]),
    Row("window_len", "window.length", [
        ("", _extract("--window-len", "500")),
        ("", _yaml("window.length", 500)),
        ("", _library(lambda: MethodConfig("wang", 500))),
        ("", _library(lambda: extract_features(
            _DATA, "wang", make_windows(1536, 500, 500))))]),
    Row("window_len (data)", "window.length", [  # past the 1536 bins
        ("", _extract("--window-len", "2048")),
        ("", _yaml("window.length", 2048, command=True)),
        ("", _library(lambda: make_windows(1536, 2048, 512)))]),
    Row("stride", "window.stride", [
        ("--stride", _extract("--stride", "0")),
        ("window.stride", _yaml("window.stride", 0)),
        ("stride", _library(lambda: make_windows(1536, 512, 0)))]),
    Row("threads", "threads", [
        ("--threads", _extract("--threads", "0")),
        ("--threads", _classify("--threads", "0")),
        ("threads", _yaml("threads", 0)),
        ("threads", _library(lambda: extract_features(
            _DATA, "wang", _GRID, threads=0))),
        ("threads", _library(lambda: evaluate_classifiers(
            _FEATURES, [ClassifierSpec()], EvalSpec([1]), _SPLIT,
            threads=0))),
        ("threads", _library(lambda: run_estimator_benchmark(
            [0.5], 2, 64, ["dwt"], threads=0)))]),
    Row("output_dir", "output_dir", [
        ("", _classify("--out-dir", "{afile}")),
        ("", _yaml("output_dir", "{afile}", command=True))]),
    Row("balance", "balance", [
        ("balance", _yaml("balance", 3))]),
    Row("standardize", "standardize", [
        ("standardize", _yaml("standardize", 3))]),
    Row("per_repeat_log", "per_repeat_log", [
        ("per_repeat_log", _yaml("per_repeat_log", 3))]),
    # simulate's flags are run_estimator_benchmark's parameters, which its
    # refusals name, but for --seed
    Row("simulate --h", None, [
        ("", _simulate("--h", "1.5")),
        ("", _library(lambda: run_estimator_benchmark([1.5], 2, 64,
                                                      ["dwt"])))]),
    Row("simulate --n", None, [
        ("", _simulate("--n", "48")),
        ("", _library(lambda: run_estimator_benchmark([0.5], 2, 48,
                                                      ["dwt"])))]),
    Row("simulate --reps", None, [
        ("", _simulate("--reps", "1")),
        ("", _library(lambda: run_estimator_benchmark([0.5], 1, 64,
                                                      ["dwt"])))]),
    Row("simulate --methods", None, [
        ("", _simulate("--methods", "dwt,foo")),
        ("", _library(lambda: run_estimator_benchmark([0.5], 2, 64,
                                                      ["dwt", "foo"])))]),
    Row("simulate --seed", None, [
        ("--seed", _simulate("--seed", "-1")),
        ("master_seed", _library(lambda: run_estimator_benchmark(
            [0.5], 2, 64, ["dwt"], master_seed=-1)))]),
]


@pytest.mark.parametrize("row", _ROWS, ids=[row.setting for row in _ROWS])
def test_every_path_refuses_a_bad_setting_alike(files, row):
    """One ConfigurationError per setting, whatever the path: the same
    message after the flag, key or field each path names."""
    refusals = []
    for source, path in row.paths:
        code, message = path(files)
        assert code == ConfigurationError.exit_code, (source, message)
        assert message.startswith(source), (source, message)
        refusals.append(message[len(source):])
    assert len(set(refusals)) == 1, refusals


# Each input file, by its config key and its extract flag
_INPUTS = {"dataset.matrix": "--matrix", "dataset.labels": "--labels"}


@pytest.mark.parametrize("key", _INPUTS)
def test_a_missing_input_is_refused_alike_on_every_path(files, key):
    """A missing input file is an IngestionError (exit code 3) with one
    message, whether a flag, a config key or a library call names it."""
    missing = files["out"] + "-missing.csv"
    inputs = {"--matrix": files["matrix"], "--labels": files["labels"],
              _INPUTS[key]: missing}
    refusals = [
        _cli("extract", *[arg for pair in inputs.items() for arg in pair],
             "--method", "wang", "--out", "{out}-features.csv")(files),
        _yaml(key, missing, command=True)(files)]
    with pytest.raises(IngestionError) as exc:
        load_dataset(inputs["--matrix"], inputs["--labels"])
    refusals.append((IngestionError.exit_code, str(exc.value)))
    assert refusals == [(3, f"cannot read {missing}: [Errno 2] No such "
                            f"file or directory: {missing!r}")] * 3


def test_every_setting_and_config_key_has_a_row():
    """A classification setting or a config key added later cannot skip
    the table, nor an input key both the table and the missing-input
    test."""
    assert set(_SETTINGS) <= {row.setting for row in _ROWS}
    keys = {row.key for row in _ROWS if row.key} | set(_INPUTS)
    assert set(_TOP_KEYS.split()) <= {key.split(".")[0] for key in keys}
    assert {f"dataset.{key}" for key in _DATASET_KEYS.split()} <= keys
