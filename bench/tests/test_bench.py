"""Tests of the benchmark itself: tracing, replay, output gate, contract.

Run from the repository root:  PYTHONPATH=src python -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
from traced import Tracer, replay_pipeline, replay_simulate, self_times  # noqa: E402


def _assert_nested(spans):
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]
            assert p["run"] == s["run"]
    assert all(t >= 0.0 for t in self_times(spans).values())


def test_spans_nest_and_self_time_is_duration_minus_children():
    tr = Tracer("t")
    with tr.span("outer"):
        with tr.span("a"):
            time.sleep(0.01)
        time.sleep(0.005)
        with tr.span("b"):
            with tr.span("b.inner"):
                time.sleep(0.01)
    _assert_nested(tr.spans)
    outer, a, b, inner = tr.spans
    assert (a["parent"], b["parent"], inner["parent"]) == (0, 0, 2)
    selfs = self_times(tr.spans)
    children = (a["end"] - a["start"]) + (b["end"] - b["start"])
    assert selfs[0] == pytest.approx(outer["end"] - outer["start"] - children)
    assert selfs[0] >= 0.004
    assert selfs[2] == pytest.approx(0.0, abs=2e-3)


def test_disabled_tracer_records_nothing():
    tr = Tracer("t", enabled=False)
    with tr.span("x", n=1) as counts:
        counts["m"] = 2
    assert tr.spans == []


def test_simulate_replay_matches_library_and_nests():
    tr = Tracer("sim")
    stats, mismatches = replay_simulate(tr, [0.3, 0.7], reps=3, length=256,
                                        methods=["dwt", "wang", "jones"],
                                        seed=5)
    assert mismatches == []
    _assert_nested(tr.spans)
    names = {s["name"] for s in tr.spans}
    assert {"fbm.fgn_sample", "best_basis.best_basis",
            "wavelets.wpd_full.haar_d8",
            "wavelets.wpd_full.symmlet4_d7"} <= names
    assert stats["wavelets.wpd_full.haar_d8.mults"] == 8 * 256 * 2


def _pipeline_config(data, out):
    return {"dataset": {"matrix": str(data["matrix"]),
                       "labels": str(data["labels"]),
                       "tag": "ovarian-8-7-02"},
           "method": "wang", "balance": True,
           "classifiers": [{"kind": "logistic"}, {"kind": "knn", "k": 3}],
           "split": {"repeats": 12},
           "features": {"p": 4, "curve": [1, 3], "curve_repeats": 2},
           "seed": 3, "output_dir": str(out)}


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    data = inputs.write_dataset(work / "data", "dir", 7, 5, seed=11)
    return work, data


def test_pipeline_replay_matches_library(small_dataset, tmp_path):
    _, data = small_dataset
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(json.dumps(_pipeline_config(data, tmp_path / "o")))
    tr = Tracer("pipe")
    stats, mismatches = replay_pipeline(tr, cfg_path, tmp_path / "o",
                                        input_bytes=1, n_windows=15,
                                        n_splits=6, seed=2)
    assert mismatches == []
    _assert_nested(tr.spans)
    m = run.layer_metrics(tr.spans, stats)
    assert m["replay.checked"] == 15 + 6
    assert m["classify.train_logistic.calls"] == 6
    assert m["pipeline.fisher_scores.calls"] == 6
    assert m["pipeline.fisher_scores_all.ms"] > 0
    assert m["best_basis.best_basis.calls"] == 0


def test_replay_reports_a_wrong_library_value(small_dataset, tmp_path,
                                              monkeypatch):
    import traced
    _, data = small_dataset
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(json.dumps(_pipeline_config(data, tmp_path / "o")))
    real = traced.extract_features

    def skewed(*args, **kwargs):
        f = real(*args, **kwargs)
        f.slopes[:, 0] += 1e-9
        return f

    monkeypatch.setattr(traced, "extract_features", skewed)
    _, mismatches = replay_pipeline(Tracer("p"), cfg_path, tmp_path / "o",
                                    1, n_windows=29 * 10, n_splits=0, seed=2)
    assert any("window 1" in m for m in mismatches)


@pytest.fixture(scope="module")
def cli_outputs(small_dataset):
    work, data = small_dataset
    job = {"config": _pipeline_config(data, "{out}")}
    env = run._child_env(ROOT)
    wall, rss, problems, parsed = run.checked_call(
        "pipeline-wang-curve", job, work / "out", work, env, ROOT)
    assert problems == [] and wall > 0 and rss > 0
    return work / "out", parsed


def test_gate_accepts_identical_outputs(cli_outputs):
    out, parsed = cli_outputs
    again = run.read_outputs("pipeline", out)
    assert run.compare(again, parsed) == []


def test_corrupted_slope_is_a_failure(cli_outputs, tmp_path):
    out, parsed = cli_outputs
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    lines = (bad / "features.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    lines[1] = ",".join(cells)
    (bad / "features.csv").write_text("\n".join(lines) + "\n")
    assert run.digest_outputs(bad) != run.digest_outputs(out)
    problems = run.compare(run.read_outputs("pipeline", bad), parsed)
    assert problems and "feature slopes" in problems[0]


def test_accuracy_tolerances(cli_outputs):
    _, parsed = cli_outputs
    shifted = json.loads(json.dumps(parsed))
    rows = shifted["accuracy"]["accuracy.csv"]
    for r in rows:
        r["mean_test_accuracy"] += 0.1
    kinds = [p.split()[1] for p in run.compare(shifted, parsed)]
    assert kinds == ["knn(k=3)"]  # logistic is within 0.25 points, kNN exact


def test_missing_output_is_a_failure(cli_outputs, tmp_path):
    out, _ = cli_outputs
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    (bad / "selected_features.csv").unlink()
    with pytest.raises(OSError):
        run.read_outputs("pipeline", bad)


def test_truncated_row_is_a_failure(cli_outputs, tmp_path):
    out, _ = cli_outputs
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    lines = (bad / "features.csv").read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 3)[0]
    (bad / "features.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(TypeError):
        run.read_outputs("pipeline", bad)


def test_inputs_are_seeded_and_need_no_package(tmp_path):
    a = inputs.write_dataset(tmp_path / "a", "matrix", 2, 2, seed=4)
    b = inputs.write_dataset(tmp_path / "b", "matrix", 2, 2, seed=4)
    c = inputs.write_dataset(tmp_path / "c", "matrix", 2, 2, seed=5)
    assert a["sha256"] == b["sha256"] != c["sha256"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import inputs; "
            "print('wavescale' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.load_reference()) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _steady_rows(values_by_set, metric):
    return [{"set": s, "workload": "w", "correct": True, "failed": 0,
             "metrics": {metric: {"value": v}}}
            for s, values in enumerate(values_by_set) for v in values]


def test_steady_fails_wide_setup_and_drift_in_either_direction(capsys):
    import steady
    spec = {"end_to_end": [{"name": "setup_s", "better": "lower",
                            "bound": 0.25}]}
    even = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert steady.report(_steady_rows([even, even], "setup_s"), spec)
    wide = [0.5, 1.0, 1.5, 1.0, 2.0]
    assert not steady.report(_steady_rows([even, wide], "setup_s"), spec)
    faster = [0.7 * v for v in even]
    assert not steady.report(_steady_rows([even, faster], "setup_s"), spec)
    capsys.readouterr()
