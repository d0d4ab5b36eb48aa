"""Span tracer and the traced in-process replay of each workload.

The replay calls the package's public functions in the order the CLI
does, wrapping each call in a span, and then replays a subsample of
windows, splits and paths one layer at a time.  Every replayed slope,
accuracy and cell statistic is compared with what the library returned
for the same item, so the per-layer numbers are known to describe the
computation the end-to-end run performs.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from wavescale import (FbmSpec, FeatureMatrix, SplitSpec,
                       accuracy_vs_feature_count, balance_classes,
                       basis_coefficients, best_basis, evaluate,
                       extract_features, fbm_from_fgn, fgn_sample,
                       fisher_scores, fit_slope, hurst_dwt, hurst_wang,
                       knn_predict, load_dataset, make_filter, make_windows,
                       predict_logistic, rank_size_fit,
                       run_estimator_benchmark, select_top, spectrum_dwt,
                       spectrum_wang, standardize, train_logistic, wpd_full)
from wavescale.config import load_run_config
from wavescale.pipeline import write_screen_csv, write_window_metadata_csv


class Tracer:
    """In-memory spans: id, name, parent id, run id, start, end, counts.

    A disabled tracer hands out no-op contexts, so the same replay code
    runs traced and untraced and the difference is the tracing cost.
    """

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans = []
        self._stack = []

    def span(self, name: str, **counts):
        if not self.enabled:
            return nullcontext(counts)
        return self._span(name, counts)

    @contextmanager
    def _span(self, name, counts):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": time.perf_counter(),
               "end": None, "counts": counts}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield counts
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _warned(caught, text) -> int:
    """Recorded warnings whose message contains ``text``."""
    return sum(text in str(w.message) for w in caught)


# ------------------------------------------------------------ pipeline


def _draw_split(n, n_train, labels, master_seed, rep):
    """The documented split draw of ``evaluate``: a permutation from spawn
    key (rep,), redrawn until training holds two rows of each class."""
    rng = np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(rep,)))
    redraws = 0
    while True:
        perm = rng.permutation(n)
        ones = int(labels[perm[:n_train]].sum())
        if 2 <= ones <= n_train - 2:
            return perm[:n_train], perm[n_train:], redraws
        redraws += 1


def _decompose(tr, signal, f, depth, stats):
    key = f"wavelets.wpd_full.{f.family}_d{depth}"
    with tr.span(key):
        tree = wpd_full(signal, f, depth)
    stats[key + ".coeff_bytes"] = sum(lv.nbytes for lv in tree.levels)
    stats[key + ".mults"] = depth * len(signal) * f.length
    return tree


def _slope(tr, method, tree, levels=None):
    """The estimator's fitted slope, as scaling_descriptor computes it."""
    if method == "jones":
        with tr.span("best_basis.best_basis", nodes_costed=sum(
                lv.shape[0] for lv in tree.levels)) as c:
            sel = best_basis(tree)
            c["selected_nodes"] = len(sel.nodes)
        with tr.span("estimators.rank_size_fit") as c:
            fit = rank_size_fit(basis_coefficients(tree, sel))
            c["points_used"] = fit.n_points
        return fit.slope
    spectrum = spectrum_wang if method == "wang" else spectrum_dwt
    with tr.span(f"estimators.{spectrum.__name__}"):
        pts = spectrum(tree, levels)
    with tr.span("estimators.fit_slope") as c:
        fit = fit_slope(pts)
        c["points_used"] = fit.n_points
    return fit.slope


def _replay_window(tr, row, method, f, depth, levels, stats):
    with tr.span("replay.window"):
        return _slope(tr, method, _decompose(tr, row, f, depth, stats), levels)


def _replay_split(tr, slopes, labels, train, test, classifiers, p):
    """Per-classifier test accuracy of one split, one layer at a time."""
    out = {}
    with tr.span("replay.split"):
        with tr.span("pipeline.fisher_scores"):
            scores = fisher_scores(FeatureMatrix(
                method="replay", slopes=slopes[train], hurst=slopes[train],
                labels=labels[train], sample_ids=()))
        selected = select_top(scores, p)
        with tr.span("classify.standardize"):
            x_train, x_test, _ = standardize(
                slopes[np.ix_(train, selected)], slopes[np.ix_(test, selected)])
        y_train, y_test = labels[train], labels[test]
        for spec in classifiers:
            if spec.kind == "logistic":
                with tr.span("classify.train_logistic") as c:
                    model = train_logistic(x_train, y_train, l2_c=spec.l2_c,
                                           max_iters=spec.max_iters,
                                           tol=spec.tol)
                    c["logistic_iters"] = model.n_iters
                pred, _ = predict_logistic(model, x_test)
            else:
                with tr.span("classify.knn_predict"):
                    pred = knn_predict(x_train, y_train, x_test, k=spec.k)
            out[spec.kind] = float(np.mean(pred == y_test)) * 100.0
    return out


def replay_pipeline(tr: Tracer, config_path: Path, out_dir: Path,
                    input_bytes: int, n_windows: int, n_splits: int,
                    seed: int):
    """Traced re-run of ``wavescale pipeline``; returns (stats, mismatches)."""
    stats, mismatches = {}, []
    out_dir.mkdir(parents=True, exist_ok=True)
    with tr.span("config.load_run_config"):
        cfg = load_run_config(config_path)
    with tr.span("pipeline.load_dataset") as c:
        dataset = load_dataset(cfg.matrix_path, cfg.labels_path)
        c["bytes"] = input_bytes
    if cfg.balance:
        dataset = balance_classes(dataset, cfg.seed)
    grid = make_windows(dataset.n_bins, cfg.window_len, cfg.stride)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tr.span("pipeline.extract_features"):
            features = extract_features(dataset, cfg.method, grid,
                                        cfg.method_config, threads=1)
    stats["estimators.zero_energy_dropped"] = _warned(caught, "zero energy")
    written = [out_dir / "features.csv", out_dir / "windows.csv",
               out_dir / "rank_sum_screen.csv"]
    with tr.span("pipeline.write_csv"):
        features.write_csv(written[0])
    write_window_metadata_csv(grid, dataset.mz_values, written[1])
    with tr.span("pipeline.write_screen_csv"):
        write_screen_csv(features, written[2])
    stats["pipeline.bytes_written"] = sum(p.stat().st_size for p in written)

    reports = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for spec in cfg.classifiers:
            with tr.span("classify.evaluate"):
                reports[spec.kind] = evaluate(
                    features, spec, cfg.p, cfg.split,
                    apply_standardize=cfg.standardize,
                    selection_mode=cfg.selection_mode, keep_per_repeat=True,
                    threads=1)
            if cfg.curve is not None:
                lo, hi = cfg.curve
                with tr.span("classify.curve"):
                    accuracy_vs_feature_count(
                        features, spec, range(lo, hi + 1),
                        SplitSpec(cfg.split.train_fraction, cfg.curve_repeats,
                                  cfg.split.master_seed),
                        apply_standardize=cfg.standardize,
                        selection_mode=cfg.selection_mode, threads=1)
    stats["classify.nonconverged"] = _warned(caught, "did not converge")
    stats["classify.redraws"] = sum(r.redraws for r in reports.values())
    with tr.span("pipeline.fisher_scores_all"):
        fisher_scores(features)

    rng = np.random.default_rng(seed)
    f = make_filter(cfg.method_config.family)
    cells = [(s, w) for s in range(dataset.n_samples) for w in range(grid.count)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in sorted(rng.choice(len(cells), min(n_windows, len(cells)),
                                   replace=False)):
            s, w = cells[i]
            lo, hi = grid.windows[w]
            slope = _replay_window(tr, dataset.intensities[s, lo:hi],
                                   cfg.method, f, cfg.method_config.depth,
                                   cfg.method_config.levels_for(w + 1), stats)
            if slope != features.slopes[s, w]:
                mismatches.append(f"slope sample {s} window {w + 1}")

    if cfg.selection_mode != "per-split" or not cfg.standardize:
        raise ValueError("the split replay follows per-split selection "
                         "with standardization")
    labels = features.labels.astype(np.int8)
    n = len(labels)
    n_train = min(max(int(round(cfg.split.train_fraction * n)), 1), n - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rep in sorted(rng.choice(cfg.split.n_repeats,
                                     min(n_splits, cfg.split.n_repeats),
                                     replace=False)):
            train, test, _ = _draw_split(n, n_train, labels,
                                         cfg.split.master_seed, int(rep))
            acc = _replay_split(tr, features.slopes, labels, train, test,
                                cfg.classifiers, cfg.p)
            for kind, value in acc.items():
                if value != reports[kind].per_repeat[rep][0]:
                    mismatches.append(f"{kind} accuracy split {rep}")
    return stats, mismatches


# ------------------------------------------------------------ simulate

_FAMILY = {"dwt": "haar", "wang": "haar", "jones": "symmlet4"}
_HURST = {"dwt": hurst_dwt, "wang": hurst_wang,
          "jones": lambda slope: abs(slope + 1.0)}


def _replay_path(tr, hurst, length, spawn, methods, filters, stats):
    depth = {"haar": length.bit_length() - 1,
             "symmlet4": length.bit_length() - 2}
    with tr.span("replay.path"):
        with tr.span("fbm.fgn_sample"):
            noise = fgn_sample(FbmSpec(hurst=hurst, length=length, seed=spawn))
        path = fbm_from_fgn(noise)
        trees = {fam: _decompose(tr, path, f, depth[fam], stats)
                 for fam, f in filters.items()}
        return {m: _HURST[m](_slope(tr, m, trees[_FAMILY[m]]))
                for m in methods}


def replay_simulate(tr: Tracer, h_grid, reps: int, length: int, methods,
                    seed: int):
    """Traced re-run of ``wavescale simulate``; every path is replayed and
    each cell's mean and std must equal the library's bit for bit."""
    stats, mismatches = {}, []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tr.span("fbm.run_estimator_benchmark"):
            report = run_estimator_benchmark(h_grid, n_reps=reps,
                                             length=length, methods=methods,
                                             master_seed=seed, threads=1)
    stats["estimators.zero_energy_dropped"] = _warned(caught, "zero energy")
    filters = {fam: make_filter(fam) for fam in {_FAMILY[m] for m in methods}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for ih, h in enumerate(h_grid):
            rows = [_replay_path(
                tr, h, length, np.random.SeedSequence(seed, spawn_key=(ih, r)),
                methods, filters, stats) for r in range(reps)]
            for m in methods:
                vals = np.array([r[m] for r in rows])
                cell = report.cell(h, m)
                if (float(vals.mean()), float(vals.std(ddof=1))) \
                        != (cell.mean, cell.std):
                    mismatches.append(f"cell H={h} {m}")
    return stats, mismatches

