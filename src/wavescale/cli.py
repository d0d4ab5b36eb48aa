"""Command-line surface: simulate, extract, classify, pipeline.

Every command is deterministic given its seed flags and emits CSV files
only (plot-ready data, no graphics).  Exit codes: 0 success, 2 usage or
configuration problem, 3 ingestion problem, 4 estimation or convergence
problem.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, EstimationError, IngestionError, ShapeError
from .utils import check_count, check_distinct, first_repeat, write_csv

# Each cmd_* imports the modules it runs, so a subcommand loads only those.


_MAX_RANGE_VALUES = 10**6


def _parse_grid(text: str, kind) -> list:
    """The ``kind`` (float or int) values of a grid: "v", "a,b,..." or
    "lo..hi", where only a float range takes ":step" (default 0.1).  A
    range has finite bounds lo <= hi and a finite positive step, and holds
    at most _MAX_RANGE_VALUES values."""
    text = text.strip()
    if ".." not in text:
        try:
            return [kind(v) for v in text.split(",") if v.strip()]
        except ValueError:
            raise ConfigurationError(f"bad value list {text!r}") from None
    span, colon, step_s = text.partition(":")
    lo_s, _, hi_s = span.partition("..")
    try:
        lo, hi = kind(lo_s), kind(hi_s)
        step = float(step_s) if step_s else 0.1 if kind is float else 1.0
        # Python floats: OverflowError for an int bound past the float
        # range, and inf, with no warning, for a span that overflows
        lo_f, hi_f = float(lo), float(hi)
    except (ValueError, OverflowError):
        raise ConfigurationError(f"bad range {text!r}") from None
    if not ((not colon or kind is float) and lo <= hi and step > 0
            and np.isfinite([lo_f, hi_f, step]).all()):
        raise ConfigurationError(f"bad range {text!r}")
    count = np.round((hi_f - lo_f) / step) + 1
    if not count <= _MAX_RANGE_VALUES:
        raise ConfigurationError(f"bad range {text!r}: {count:.7g} values, "
                                 f"more than {_MAX_RANGE_VALUES}")
    if kind is int:
        return list(range(lo, hi + 1))
    vals = [round(lo + i * step, 12) for i in range(int(count))]
    return [v for v in vals if v <= hi + 1e-12]


def parse_float_range(text: str) -> list:
    """Grid syntax: "0.3", "0.1,0.5,0.9", "0.1..0.9" or "0.1..0.9:0.2"."""
    return _parse_grid(text, float)


def parse_int_range(text: str) -> list:
    """Grid syntax: "10", "1,5,10" or "1..29"."""
    return _parse_grid(text, int)


def _add_threads(p: argparse.ArgumentParser):
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads (default 1)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wavescale",
        description="Wavelet-packet scaling descriptors and the windowed "
                    "classification pipeline")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate",
                         help="benchmark the Hurst estimators on simulated fBm")
    sim.add_argument("--h", default="0.1..0.9",
                     help="Hurst grid, e.g. 0.1..0.9 or 0.3,0.5 (default 0.1..0.9)")
    sim.add_argument("--reps", type=int, default=1000)
    sim.add_argument("--n", type=int, default=None, help="signal length")
    sim.add_argument("--methods", default=None)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default="hurst_benchmark.csv")

    ext = sub.add_parser("extract", help="rolling-window feature extraction")
    ext.add_argument("--matrix", required=True,
                     help="matrix CSV or per-sample directory")
    ext.add_argument("--labels", required=True, help="labels CSV")
    ext.add_argument("--method", required=True, help="dwt, wang or jones")
    ext.add_argument("--wavelet", default=None)
    ext.add_argument("--depth", type=int, default=None)
    ext.add_argument("--window-len", type=int, default=None)
    ext.add_argument("--stride", type=int, default=None)
    ext.add_argument("--dataset-tag", default=None,
                     help="named level plan, e.g. ovarian-8-7-02")
    ext.add_argument("--out", default="features.csv")
    ext.add_argument("--meta", default=None,
                     help="window metadata CSV (default: <out>_windows.csv)")
    _add_threads(ext)

    cls = sub.add_parser("classify",
                         help="repeated-split evaluation of a feature matrix")
    cls.add_argument("--features", required=True, help="feature CSV from extract")
    cls.add_argument("--p", type=int, default=None)
    cls.add_argument("--repeats", type=int, default=None)
    cls.add_argument("--classifiers", default=None)
    cls.add_argument("--train-fraction", type=float, default=None)
    cls.add_argument("--curve", default=None,
                     help="feature counts to sweep, e.g. 1..29 or 1,5,10")
    cls.add_argument("--curve-repeats", type=int, default=None)
    cls.add_argument("--balance", action="store_true",
                     help="subsample the larger class first")
    cls.add_argument("--standardize", dest="standardize",
                     action=argparse.BooleanOptionalAction, default=True)
    cls.add_argument("--selection", default=None,
                     help="where windows are ranked: per-split or global")
    cls.add_argument("--per-repeat-log", action="store_true")
    cls.add_argument("--seed", type=int, default=0)
    cls.add_argument("--out-dir", default=".")
    _add_threads(cls)

    pipe = sub.add_parser("pipeline", help="full run from a YAML config")
    pipe.add_argument("config", help="path to the YAML run configuration")
    return ap


@contextmanager
def _output_set(paths, out_dir=None):
    """Stage the output files ``paths``; make them visible only together.

    Checks every destination before the body runs (a missing directory
    other than ``out_dir``, an ``out_dir`` that is or lies under a file, a
    path that is a directory, cannot be resolved, as in a symlink loop, or
    names the same file as another is a ConfigurationError) and yields one
    staged path per destination.  Each
    directory's destinations share one staging directory, made in it or
    in a missing ``out_dir``'s nearest existing ancestor, so each
    ``os.replace`` stays on one filesystem.  When the body returns,
    ``out_dir`` is created and the staged files replace the destinations;
    on any exception, an interrupt too, only the staging is removed.
    """
    paths = [Path(p) for p in paths]
    stage_in = {}  # a missing out_dir -> its nearest existing ancestor
    if out_dir is not None and not out_dir.is_dir():
        ancestor = next(a for a in (out_dir, *out_dir.parents)
                        if a.is_symlink() or a.exists())
        if not ancestor.is_dir():
            raise ConfigurationError(
                f"output directory {str(out_dir)!r} " + ("is an existing file"
                if ancestor == out_dir else "lies under a file"))
        stage_in[out_dir] = ancestor
    resolved = []
    for path in paths:
        try:
            resolved.append(path.resolve())
        except (RuntimeError, OSError) as exc:  # a symlink loop, by version
            raise ConfigurationError(f"output path {str(path)!r} cannot be "
                                     f"resolved: {exc}") from None
    repeat = first_repeat(resolved)
    # each path is checked before a repeat at it, as if in one scan
    for path in paths[:repeat[1] + 1] if repeat else paths:
        if path.is_dir():
            raise ConfigurationError(f"output path {str(path)!r} is a directory")
        if not (path.parent.is_dir() or path.parent in stage_in):
            raise ConfigurationError(
                f"output directory {str(path.parent)!r} for {str(path)!r} does "
                "not exist")
    if repeat:
        i, j = repeat
        raise ConfigurationError(f"output paths {str(paths[i])!r} and "
                                 f"{str(paths[j])!r} name the same file")
    with ExitStack() as stack:
        stages = {parent: Path(stack.enter_context(tempfile.TemporaryDirectory(
                      prefix=".wavescale-", dir=stage_in.get(parent, parent))))
                  for parent in dict.fromkeys(p.parent for p in paths)}
        staged = [stages[p.parent] / p.name for p in paths]
        yield staged
        for directory in stage_in:
            directory.mkdir(parents=True, exist_ok=True)
        for path, tmp in zip(paths, staged):
            tmp.replace(path)


def cmd_simulate(args) -> int:
    from .fbm import run_estimator_benchmark

    h_grid = parse_float_range(args.h)
    check_count(args.seed, "--seed", least=0)
    methods = None if args.methods is None else tuple(
        m.strip() for m in args.methods.split(",") if m.strip())
    with _output_set([args.out]) as (out,):
        report = run_estimator_benchmark(
            h_grid, n_reps=args.reps, length=args.n, methods=methods,
            master_seed=args.seed)
        report.write_csv(out)
    print(f"wrote {args.out} ({len(report.entries)} cells)")
    return 0


def _extract(dataset, grid, method_config, threads, out, meta):
    """The features of ``dataset`` on the windows ``grid``, written to
    ``out`` with the window table in ``meta``."""
    from .pipeline import extract_features, write_window_metadata_csv

    features = extract_features(dataset, method_config.method, grid,
                                method_config, threads=threads)
    features.write_csv(out)
    write_window_metadata_csv(grid, dataset.mz_values, meta)
    return features


def cmd_extract(args) -> int:
    from .pipeline import extract_settings, load_dataset, make_windows

    method_config, window_len, stride = extract_settings(  # before ingest
        args.method, args.dataset_tag, args.wavelet, args.depth,
        window_len=args.window_len, stride=args.stride,
        stride_source="--stride")
    meta = args.meta or str(Path(args.out).with_suffix("")) + "_windows.csv"
    with _output_set([args.out, meta]) as (out, staged_meta):
        dataset = load_dataset(args.matrix, args.labels)
        grid = make_windows(dataset.n_bins, window_len, stride)
        features = _extract(dataset, grid, method_config, args.threads, out,
                            staged_meta)
    print(f"wrote {args.out} ({features.slopes.shape[0]} samples x "
          f"{features.n_windows} windows) and {meta}")
    return 0


def _classify_outputs(classifiers, curve, per_repeat_log) -> list:
    """Names of the files ``_classify`` writes, in order."""
    kinds = [spec.kind for spec in classifiers]
    return ([f"per_repeat_{kind}.csv" for kind in kinds if per_repeat_log]
            + ["accuracy.csv"]
            + [f"accuracy_vs_features_{kind}.csv" for kind in kinds if curve]
            + ["feature_correlation.csv", "selected_features.csv"])


def _classify(features, classifiers, evaluation, split, staged, threads,
              per_repeat_log=False) -> None:
    """Evaluate every classifier on ``features`` at the p and the curve
    counts of the EvalSpec ``evaluation``, p first, in one pass of the
    evaluation core; write each file ``_classify_outputs`` names to its
    path in ``staged``."""
    from .classify import (evaluate_classifiers, feature_correlation,
                           write_correlation_csv, write_eval_csv,
                           write_per_repeat_csv)
    from .pipeline import fisher_scores, select_top

    p, *curve = evaluation.ps
    paths = {path.name: path for path in staged}
    results = evaluate_classifiers(features, classifiers, evaluation, split,
                                   keep_per_repeat=per_repeat_log,
                                   threads=threads)
    reports = [r[0] for r in results]
    if per_repeat_log:
        for spec, rep in zip(classifiers, reports):
            write_per_repeat_csv(rep, paths[f"per_repeat_{spec.kind}.csv"])
    write_eval_csv(reports, paths["accuracy.csv"])

    if curve:
        for spec, spec_reports in zip(classifiers, results):
            write_eval_csv(spec_reports[1:],
                           paths[f"accuracy_vs_features_{spec.kind}.csv"])

    selected = select_top(fisher_scores(features), p)
    corr = feature_correlation(features, selected)
    write_correlation_csv(corr, selected, paths["feature_correlation.csv"])
    _write_selected_features(features, selected, paths["selected_features.csv"])


def _write_selected_features(features, selected, path):
    """Top-p slope columns for external classifiers."""
    write_csv(path,
              ["sample_id", "label", *(f"w{int(i) + 1}" for i in selected)],
              ([sid, int(label), *row] for sid, label, row
               in zip(features.sample_ids, features.labels,
                      features.slopes[:, selected])))


def cmd_classify(args) -> int:
    from .classify import (ClassifierSpec, EvalSpec, SplitSpec,
                           check_classifiers, check_setting)
    from .pipeline import balance_feature_rows, read_feature_csv

    specs = None
    if args.classifiers is not None:
        specs = [ClassifierSpec(name, sources={"kind": "--classifiers"})
                 for name in map(str.strip, args.classifiers.split(","))
                 if name]
    classifiers = check_classifiers(specs, "--classifiers")
    p = check_setting("p", args.p, "--p")
    curve = []
    if args.curve is not None:
        curve = parse_int_range(args.curve)
        if not curve:
            raise ConfigurationError(f"--curve: no values in {args.curve!r}")
        check_setting("p", min(curve), "--curve")
        check_distinct(curve, "p", "--curve: ")  # one row per p
    split = SplitSpec(args.train_fraction, args.repeats, args.seed, {
        "train_fraction": "--train-fraction", "n_repeats": "--repeats",
        "master_seed": "--seed"})
    curve_repeats = check_setting("curve_repeats", args.curve_repeats,
                                  "--curve-repeats")
    evaluation = EvalSpec(
        [p, *curve], [split.n_repeats, *[curve_repeats] * len(curve)],
        args.selection, args.standardize, {"selection_mode": "--selection"})
    out_dir = Path(args.out_dir)
    outputs = [out_dir / name for name in
               _classify_outputs(classifiers, curve, args.per_repeat_log)]
    with _output_set(outputs, out_dir) as staged:
        features = read_feature_csv(args.features)
        if args.balance:
            features = balance_feature_rows(features, args.seed)
        _classify(features, classifiers, evaluation, split, staged,
                  args.threads, per_repeat_log=args.per_repeat_log)
    print("wrote " + ", ".join(str(p) for p in outputs))
    return 0


def cmd_pipeline(args) -> int:
    from .classify import EvalSpec, check_evaluation
    from .config import load_run_config
    from .pipeline import (balance_classes, check_rank_sum_sizes,
                           load_dataset, make_windows, write_screen_csv)

    cfg = load_run_config(args.config)
    curve = () if cfg.curve is None else range(cfg.curve[0], cfg.curve[1] + 1)
    outputs = [cfg.output_dir / name for name in
               ["features.csv", "windows.csv", "rank_sum_screen.csv",
                *_classify_outputs(cfg.classifiers, curve, cfg.per_repeat_log)]]
    with _output_set(outputs, cfg.output_dir) as (
            features_csv, windows_csv, screen_csv, *staged):
        dataset = load_dataset(cfg.matrix_path, cfg.labels_path)
        grid = make_windows(dataset.n_bins, cfg.window_len, cfg.stride)
        if cfg.balance:
            dataset = balance_classes(dataset, cfg.seed)
        # the checks of the screen and of the evaluation core, made before
        # extraction, in the order their writers would make them
        n_case = int(np.sum(dataset.labels == 1))
        n_control = dataset.n_samples - n_case
        check_rank_sum_sizes(n_case, n_control)
        # a curve lo..hi, lo >= 1, holds a count past the windows, if any,
        # in its first grid.count + 1 counts
        check_evaluation(cfg.classifiers, [cfg.p, *curve[:grid.count + 1]],
                         grid.count, n_case, n_control, cfg.split)
        # made once the check above has bounded the curve by the windows
        evaluation = EvalSpec(
            [cfg.p, *curve],
            [cfg.split.n_repeats, *[cfg.curve_repeats] * len(curve)],
            cfg.selection_mode, cfg.standardize)
        features = _extract(dataset, grid, cfg.method_config, cfg.threads,
                            features_csv, windows_csv)
        write_screen_csv(features, screen_csv)
        _classify(features, cfg.classifiers, evaluation, cfg.split, staged,
                  cfg.threads, per_repeat_log=cfg.per_repeat_log)
    print("pipeline complete; wrote " + ", ".join(str(p) for p in outputs))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "extract": cmd_extract,
        "classify": cmd_classify,
        "pipeline": cmd_pipeline,
    }
    try:
        if hasattr(args, "threads"):  # pipeline checks its config's count
            check_count(args.threads, "--threads")
        return handlers[args.command](args)
    except (ConfigurationError, IngestionError, EstimationError,
            ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
