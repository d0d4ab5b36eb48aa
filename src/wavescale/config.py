"""Pipeline run configuration: a YAML file mapped onto a dataclass.

Only the dataset paths and the method are mandatory; everything else has
the per-method defaults applied when omitted.  Referenced paths, the
selection mode and key names are checked at load time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .classify import SELECTION_MODES, ClassifierSpec, SplitSpec
from .errors import ConfigurationError
from .estimators import METHODS
from .pipeline import MethodConfig, default_method_config


@dataclass(frozen=True)
class RunConfig:
    matrix_path: Path
    labels_path: Path
    method: str
    method_config: MethodConfig
    window_len: int
    stride: int
    balance: bool
    classifiers: tuple
    split: SplitSpec
    p: int
    curve: tuple  # (lo, hi) inclusive or None
    curve_repeats: int
    standardize: bool
    selection_mode: str
    seed: int
    threads: int
    output_dir: Path
    dataset_tag: str = None
    per_repeat_log: bool = False


_TOP_KEYS = ("dataset method wavelet depth levels window balance classifiers "
             "split features standardize selection seed threads output_dir "
             "per_repeat_log")
_CLASSIFIER_KEYS = {"logistic": "kind C l2_c max_iters tol", "knn": "kind k"}


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigurationError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _known(mapping, where: str, keys: str) -> dict:
    """``mapping``, checked to hold only the space-separated ``keys``."""
    if not isinstance(mapping, dict):
        raise ConfigurationError(f"{where}: expected a mapping, got {mapping!r}")
    unknown = [k for k in mapping if k not in keys.split()]
    if unknown:
        raise ConfigurationError(f"{where}: unknown key(s) "
                                 f"{', '.join(map(repr, unknown))}; allowed: {keys}")
    return mapping


def _parse_level_plan(raw) -> tuple:
    plan = []
    for i, entry in enumerate(raw):
        _known(entry, f"levels entry {i}", "windows levels")
        try:
            lo, hi = entry["windows"]
            levels = tuple(int(v) for v in entry["levels"])
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError(
                f"levels entry {i}: expected windows: [lo, hi] and a "
                "levels list") from None
        plan.append((int(lo), int(hi), levels))
    return tuple(plan)


def _parse_classifiers(raw) -> tuple:
    specs = []
    for i, entry in enumerate(raw):
        if isinstance(entry, str):
            entry = {"kind": entry}
        where = f"classifiers[{i}]"
        kind = _require(entry, "kind", where)
        if kind not in _CLASSIFIER_KEYS:
            raise ConfigurationError(f"{where}: unknown kind {kind!r}")
        _known(entry, where, _CLASSIFIER_KEYS[kind])
        if kind == "logistic":
            specs.append(ClassifierSpec(
                kind="logistic",
                l2_c=float(entry.get("C", entry.get("l2_c", 1.0))),
                max_iters=int(entry.get("max_iters", 500)),
                tol=float(entry.get("tol", 1e-6))))
        else:
            specs.append(ClassifierSpec(kind="knn", k=int(entry.get("k", 5))))
    if not specs:
        raise ConfigurationError("classifier list is empty")
    return tuple(specs)


def load_run_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: invalid YAML: {exc}") from exc
    _known(raw, str(path), _TOP_KEYS)

    dataset = _known(_require(raw, "dataset", str(path)), "dataset",
                     "matrix labels tag")
    matrix_path = Path(_require(dataset, "matrix", "dataset"))
    labels_path = Path(_require(dataset, "labels", "dataset"))
    for p in (matrix_path, labels_path):
        if not p.exists():
            raise ConfigurationError(f"referenced path does not exist: {p}")
    dataset_tag = dataset.get("tag")

    method = _require(raw, "method", str(path))
    if method not in METHODS:
        raise ConfigurationError(
            f"method must be one of {METHODS}, got {method!r}")

    base = default_method_config(method, dataset_tag)
    family = raw.get("wavelet", base.family)
    depth = int(raw.get("depth", base.depth))
    plan = _parse_level_plan(raw["levels"]) if "levels" in raw else base.level_plan
    method_config = MethodConfig(family=family, depth=depth, level_plan=plan)

    window = _known(raw.get("window", {}), "window", "length stride")
    window_len = int(window.get("length", 1024))
    stride = int(window.get("stride", 500))

    split_raw = _known(raw.get("split", {}), "split", "train_fraction repeats")
    split = SplitSpec(
        train_fraction=float(split_raw.get("train_fraction", 0.67)),
        n_repeats=int(split_raw.get("repeats", 10_000)),
        master_seed=int(raw.get("seed", 0)))

    features = _known(raw.get("features", {}), "features", "p curve curve_repeats")
    p = int(features.get("p", 10))
    curve = features.get("curve")
    if curve is not None:
        try:
            lo, hi = (int(curve[0]), int(curve[1]))
        except (TypeError, ValueError, IndexError):
            raise ConfigurationError(
                "features.curve must be a [lo, hi] pair") from None
        curve = (lo, hi)
    curve_repeats = int(features.get("curve_repeats", 1000))

    classifiers = _parse_classifiers(
        raw.get("classifiers", [{"kind": "logistic"}, {"kind": "knn"}]))

    selection_mode = raw.get("selection", "per-split")
    if selection_mode not in SELECTION_MODES:
        raise ConfigurationError(f"selection must be one of {SELECTION_MODES}, "
                                 f"got {selection_mode!r}")

    return RunConfig(
        matrix_path=matrix_path,
        labels_path=labels_path,
        method=method,
        method_config=method_config,
        window_len=window_len,
        stride=stride,
        balance=bool(raw.get("balance", False)),
        classifiers=classifiers,
        split=split,
        p=p,
        curve=curve,
        curve_repeats=curve_repeats,
        standardize=bool(raw.get("standardize", True)),
        selection_mode=selection_mode,
        seed=int(raw.get("seed", 0)),
        threads=int(raw["threads"]) if "threads" in raw else None,
        output_dir=Path(raw.get("output_dir", ".")),
        dataset_tag=dataset_tag,
        per_repeat_log=bool(raw.get("per_repeat_log", False)),
    )
