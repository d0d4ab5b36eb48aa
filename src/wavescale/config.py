"""Pipeline run configuration: a YAML file mapped onto a dataclass.

Only the dataset paths and the method are mandatory.  A key that an
``extract`` or ``classify`` flag also sets is defaulted and checked by the
same code as that flag.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import yaml

from .classify import (ClassifierSpec, SplitSpec, check_classifiers,
                       check_setting)
from .errors import ConfigurationError
from .pipeline import MethodConfig, extract_settings
from .utils import check_count, first_repeat


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
_DATASET_KEYS = "matrix labels tag"
# each kind's entry keys: config key -> (ClassifierSpec field, value type)
_CLASSIFIER_KEYS = {"logistic": {"C": ("l2_c", float),
                                 "max_iters": ("max_iters", int),
                                 "tol": ("tol", float)},
                    "knn": {"k": ("k", int)}}


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


def _typed(value, kind: type, name: str):
    """``value``, checked to be a ``kind``, else a ConfigurationError naming
    ``name``.  An integer is never a bool; a float also takes an integer or
    a numeric string (YAML reads ``1e-6`` as a string)."""
    if kind is float and not isinstance(value, bool):
        with suppress(TypeError, ValueError):
            return float(value)
    elif isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ConfigurationError(
        f"{name}: expected {_KIND_NAMES[kind]}, got {value!r}")


def _get(mapping: dict, key: str, where: str, kind: type, default=None):
    """``mapping[key]`` (``default`` when absent), ``_typed`` as ``where.key``."""
    if key not in mapping:
        return default
    return _typed(mapping[key], kind, f"{where + '.' if where else ''}{key}")


def _int_list(value, name: str) -> tuple:
    """The list ``value`` as a tuple of integers, entry j named ``name[j]``."""
    return tuple(_typed(v, int, f"{name}[{j}]")
                 for j, v in enumerate(_typed(value, list, name)))


def _pair(value, name: str) -> tuple:
    """The integer pair ``value = [lo, hi]``."""
    pair = _int_list(value, name)
    if len(pair) != 2:
        raise ConfigurationError(f"{name} must be a [lo, hi] pair")
    return pair


def _span(value, name: str) -> tuple:
    """The integer pair ``value = [lo, hi]``: lo a feature count p, and
    hi >= lo."""
    span = lo, hi = _pair(value, name)
    check_setting("p", lo, name)
    if hi < lo:
        raise ConfigurationError(
            f"{name} must satisfy 1 <= lo <= hi, got [{lo}, {hi}]")
    return span


def _parse_level_plan(raw) -> tuple:
    plan = []
    for i, entry in enumerate(raw):
        where = f"levels entry {i}"
        _known(entry, where, "windows levels")
        # MethodConfig holds the bounds to 1 <= lo <= hi
        lo, hi = _pair(_require(entry, "windows", where), f"{where}: windows")
        plan.append((lo, hi, _int_list(_require(entry, "levels", where),
                                       f"{where}: levels")))
    return tuple(plan)


def _parse_classifiers(raw) -> tuple:
    if raw is None:
        return check_classifiers(None, "classifiers")
    specs = []
    for i, entry in enumerate(raw):
        where = f"classifiers[{i}]"
        if isinstance(entry, str):
            entry = {"kind": entry}
        if not isinstance(entry, dict):
            raise ConfigurationError(f"{where}: expected a mapping or a "
                                     f"classifier name, got {entry!r}")
        _require(entry, "kind", where)
        kind = check_setting("kind", _get(entry, "kind", where, str), where)
        keys = _CLASSIFIER_KEYS[kind]
        _known(entry, where, " ".join(["kind", *keys]))
        specs.append(ClassifierSpec(kind, **{
            field: _get(entry, key, where, type_)
            for key, (field, type_) in keys.items()}, sources={
            field: f"{where}.{key}" for key, (field, _) in keys.items()}))
    return check_classifiers(specs, "classifiers", "classifiers[{}]")


class _Loader(yaml.SafeLoader):
    """yaml.safe_load's loader of the config ``path``, except that a key
    written twice in one mapping, of which yaml.safe_load would keep the
    last, is refused, naming the line of its second writing; a key that a
    ``<<`` merge brings in may still be overridden."""

    def __init__(self, text: str, path: Path):
        super().__init__(text)
        self.path = path

    def construct_mapping(self, node, deep=False):
        written = [key for key, _ in node.value
                   if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)  # refuses unhashables
        keys = [self.construct_object(key) for key in written]
        repeat = first_repeat(keys)
        if repeat:
            j = repeat[1]
            raise ConfigurationError(
                f"{self.path}: line {written[j].start_mark.line + 1}: "
                f"repeated key {keys[j]!r}")
        return mapping


def load_run_config(path) -> RunConfig:
    """Parse and check a YAML run configuration: key names, value types and
    every value that can be checked before any input is read.  The dataset
    paths are checked by ``load_dataset``, which reads them."""
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"),
                        partial(_Loader, path=path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: invalid YAML: {exc}") from exc
    _known(raw, str(path), _TOP_KEYS)

    dataset = _known(_require(raw, "dataset", str(path)), "dataset",
                     _DATASET_KEYS)
    _require(dataset, "matrix", "dataset")
    _require(dataset, "labels", "dataset")
    matrix_path = Path(_get(dataset, "matrix", "dataset", str))
    labels_path = Path(_get(dataset, "labels", "dataset", str))

    method = _require(raw, "method", str(path))
    levels = _get(raw, "levels", "", list)
    window = _known(raw.get("window", {}), "window", "length stride")
    method_config, window_len, stride = extract_settings(
        method, _get(dataset, "tag", "dataset", str),
        wavelet=_get(raw, "wavelet", "", str),
        depth=_get(raw, "depth", "", int),
        level_plan=None if levels is None else _parse_level_plan(levels),
        window_len=_get(window, "length", "window", int),
        stride=_get(window, "stride", "window", int),
        stride_source="window.stride")

    seed = _get(raw, "seed", "", int, 0)
    split_raw = _known(raw.get("split", {}), "split", "train_fraction repeats")
    split = SplitSpec(_get(split_raw, "train_fraction", "split", float),
                      _get(split_raw, "repeats", "split", int), seed, {
                          "train_fraction": "split.train_fraction",
                          "n_repeats": "split.repeats", "master_seed": "seed"})

    features = _known(raw.get("features", {}), "features", "p curve curve_repeats")
    p = check_setting("p", _get(features, "p", "features", int), "features.p")
    curve = (_span(features["curve"], "features.curve")
             if "curve" in features else None)
    curve_repeats = check_setting(
        "curve_repeats", _get(features, "curve_repeats", "features", int),
        "features.curve_repeats")

    return RunConfig(
        matrix_path=matrix_path,
        labels_path=labels_path,
        method=method,
        method_config=method_config,
        window_len=window_len,
        stride=stride,
        balance=_get(raw, "balance", "", bool, False),
        classifiers=_parse_classifiers(_get(raw, "classifiers", "", list)),
        split=split,
        p=p,
        curve=curve,
        curve_repeats=curve_repeats,
        standardize=_get(raw, "standardize", "", bool, True),
        selection_mode=check_setting("selection_mode",
                                     _get(raw, "selection", "", str),
                                     "selection"),
        seed=seed,
        threads=check_count(_get(raw, "threads", "", int, 1), "threads"),
        output_dir=Path(_get(raw, "output_dir", "", str, ".")),
        per_repeat_log=_get(raw, "per_repeat_log", "", bool, False),
    )
