"""Pipeline run configuration: a YAML file mapped onto a dataclass.

Only the dataset paths and the method are mandatory; everything else has
the per-method defaults applied when omitted.  Referenced paths, the
selection mode, key names, value types, the window length, stride, depth
and wavelet family, the level plan, and the feature counts are checked at
load time.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import yaml

from .classify import (SELECTION_MODES, ClassifierSpec, SplitSpec,
                       check_repeats, check_train_fraction)
from .errors import ConfigurationError
from .estimators import METHODS
from .pipeline import MethodConfig, default_method_config
from .utils import check_threads


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
    per_repeat_log: bool = False


_TOP_KEYS = ("dataset method wavelet depth levels window balance classifiers "
             "split features standardize selection seed threads output_dir "
             "per_repeat_log")
_CLASSIFIER_KEYS = {"logistic": "kind C max_iters tol", "knn": "kind k"}


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


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", list: "a list"}


def _get(mapping: dict, key: str, where: str, kind: type, default=None):
    """``mapping[key]`` (``default`` when absent), checked to be a ``kind``.

    A float key also takes an integer or a numeric string (YAML reads
    ``1e-6`` as a string).  A mistyped value is a ConfigurationError
    naming ``where.key``.
    """
    if key not in mapping:
        return default
    value = mapping[key]
    if kind is float and not isinstance(value, bool):
        with suppress(TypeError, ValueError):
            return float(value)
    elif isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ConfigurationError(f"{where + '.' if where else ''}{key}: expected "
                             f"{_KIND_NAMES[kind]}, got {value!r}")


def _parse_level_plan(raw) -> tuple:
    plan = []
    for i, entry in enumerate(raw):
        _known(entry, f"levels entry {i}", "windows levels")
        try:
            lo, hi = (int(v) for v in entry["windows"])
            levels = tuple(int(v) for v in entry["levels"])
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError(
                f"levels entry {i}: expected windows: [lo, hi] and a "
                "levels list") from None
        if not 1 <= lo <= hi:
            raise ConfigurationError(
                f"levels entry {i}: windows must satisfy 1 <= lo <= hi, "
                f"got [{lo}, {hi}]")
        plan.append((lo, hi, levels))
    return tuple(plan)


def _parse_classifiers(raw) -> tuple:
    specs = []
    for i, entry in enumerate(raw):
        where = f"classifiers[{i}]"
        if isinstance(entry, str):
            entry = {"kind": entry}
        if not isinstance(entry, dict):
            raise ConfigurationError(f"{where}: expected a mapping or a "
                                     f"classifier name, got {entry!r}")
        kind = _get(entry, "kind", where, str)
        if kind is None:
            raise ConfigurationError(f"{where}: missing required key 'kind'")
        if kind not in _CLASSIFIER_KEYS:
            raise ConfigurationError(f"{where}: unknown kind {kind!r}")
        # each kind writes its own per-repeat log and curve file
        if any(spec.kind == kind for spec in specs):
            raise ConfigurationError(f"{where}: repeated classifier kind {kind!r}")
        _known(entry, where, _CLASSIFIER_KEYS[kind])
        if kind == "logistic":
            specs.append(ClassifierSpec(
                kind="logistic",
                l2_c=_get(entry, "C", where, float, ClassifierSpec.l2_c),
                max_iters=_get(entry, "max_iters", where, int,
                               ClassifierSpec.max_iters),
                tol=_get(entry, "tol", where, float, ClassifierSpec.tol)))
        else:
            specs.append(ClassifierSpec(kind="knn", k=_get(
                entry, "k", where, int, ClassifierSpec.k)))
    if not specs:
        raise ConfigurationError("classifier list is empty")
    return tuple(specs)


def load_run_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration.

    Besides key names and value types, the window length, stride,
    decomposition depth and wavelet family, the level plan's windows and
    levels, ``features.p``, ``features.curve``, ``features.curve_repeats``
    and ``threads`` are checked here, before any input is read.
    """
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
    _require(dataset, "matrix", "dataset")
    _require(dataset, "labels", "dataset")
    matrix_path = Path(_get(dataset, "matrix", "dataset", str))
    labels_path = Path(_get(dataset, "labels", "dataset", str))
    for p in (matrix_path, labels_path):
        if not p.exists():
            raise ConfigurationError(f"referenced path does not exist: {p}")

    method = _require(raw, "method", str(path))
    if method not in METHODS:
        raise ConfigurationError(
            f"method must be one of {METHODS}, got {method!r}")

    base = default_method_config(method, _get(dataset, "tag", "dataset", str))
    plan = (_parse_level_plan(_get(raw, "levels", "", list))
            if "levels" in raw else base.level_plan)
    method_config = MethodConfig(
        family=_get(raw, "wavelet", "", str, base.family),
        depth=_get(raw, "depth", "", int, base.depth), level_plan=plan)

    window = _known(raw.get("window", {}), "window", "length stride")
    window_len = _get(window, "length", "window", int, 1024)
    stride = _get(window, "stride", "window", int, 500)
    method_config.check(window_len)
    if stride < 1:
        raise ConfigurationError(f"window.stride must be >= 1, got {stride}")

    seed = _get(raw, "seed", "", int, 0)
    split_raw = _known(raw.get("split", {}), "split", "train_fraction repeats")
    split = SplitSpec(
        train_fraction=check_train_fraction(_get(
            split_raw, "train_fraction", "split", float,
            SplitSpec.train_fraction), "split.train_fraction"),
        n_repeats=check_repeats(_get(split_raw, "repeats", "split", int,
                                     SplitSpec.n_repeats), "split.repeats"),
        master_seed=seed)

    features = _known(raw.get("features", {}), "features", "p curve curve_repeats")
    p = _get(features, "p", "features", int, 10)
    if p < 1:
        raise ConfigurationError(f"features.p must be >= 1, got {p}")
    curve = features.get("curve")
    if curve is not None:
        try:
            lo, hi = (int(curve[0]), int(curve[1]))
        except (TypeError, ValueError, IndexError, KeyError):
            raise ConfigurationError(
                "features.curve must be a [lo, hi] pair") from None
        if not 1 <= lo <= hi:
            raise ConfigurationError(
                f"features.curve must satisfy 1 <= lo <= hi, got [{lo}, {hi}]")
        curve = (lo, hi)
    curve_repeats = _get(features, "curve_repeats", "features", int, 1000)
    if curve_repeats < 1:
        raise ConfigurationError(
            f"features.curve_repeats must be >= 1, got {curve_repeats}")

    classifiers = _parse_classifiers(_get(
        raw, "classifiers", "", list, [{"kind": "logistic"}, {"kind": "knn"}]))

    selection_mode = _get(raw, "selection", "", str, "per-split")
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
        balance=_get(raw, "balance", "", bool, False),
        classifiers=classifiers,
        split=split,
        p=p,
        curve=curve,
        curve_repeats=curve_repeats,
        standardize=_get(raw, "standardize", "", bool, True),
        selection_mode=selection_mode,
        seed=seed,
        threads=check_threads(_get(raw, "threads", "", int, 1)),
        output_dir=Path(_get(raw, "output_dir", "", str, ".")),
        per_repeat_log=_get(raw, "per_repeat_log", "", bool, False),
    )
