import errno
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import wavescale
import wavescale.classify as classify
import wavescale.pipeline as pipeline
from wavescale import (BenchmarkReport, ConfigurationError, EstimationError,
                       FeatureMatrix, cli, two_class_fbm_dataset)
from wavescale.cli import main, parse_float_range, parse_int_range
from wavescale.config import load_run_config


# ----------------------------------------------------------- flag parsing

def test_parse_float_range():
    assert parse_float_range("0.1..0.9") == pytest.approx(
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    assert parse_float_range("0.1..0.5:0.2") == pytest.approx([0.1, 0.3, 0.5])
    assert parse_float_range("0.3,0.7") == pytest.approx([0.3, 0.7])
    assert parse_float_range("0.5") == pytest.approx([0.5])


def test_parse_int_range():
    assert parse_int_range("1..5") == [1, 2, 3, 4, 5]
    assert parse_int_range("3,9") == [3, 9]
    assert parse_int_range("7") == [7]


@pytest.mark.parametrize("parse, largest, text, count", [
    (parse_float_range, "0..0.999999:1e-6", "0..1:1e-6", "1000001"),
    (parse_int_range, "1..1000000", "1..1000001", "1000001"),
    (parse_int_range, "1..1000000", f"-1{'0' * 308}..1{'0' * 308}", "inf"),
], ids=["float", "int", "int-overflowing"])
def test_a_range_holds_at_most_a_million_values(parse, largest, text, count):
    assert len(parse(largest)) == 10**6
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"bad range {text!r}: {count} values, "
                                       "more than 1000000")):
        parse(text)


_HUGE = "1" + "0" * 309  # an int past the float range


@pytest.mark.parametrize("parse, text, want", [
    (parse_float_range, "0.3", [0.3]),
    (parse_int_range, "7", [7]),
    (parse_float_range, " 0.3, 0.7 ,", [0.3, 0.7]),
    (parse_int_range, "1, 5 ,9", [1, 5, 9]),
    (parse_float_range, "0.1..0.5", [0.1, 0.2, 0.3, 0.4, 0.5]),
    (parse_int_range, "1..5", [1, 2, 3, 4, 5]),
    (parse_float_range, "0.1..0.6:0.2", [0.1, 0.3, 0.5]),
    (parse_int_range, "1..29:2", "bad range '1..29:2'"),
    (parse_int_range, "1.5", "bad value list '1.5'"),
    (parse_float_range, "0.9..0.1", "bad range '0.9..0.1'"),
    (parse_int_range, "5..1", "bad range '5..1'"),
    (parse_float_range, "0.1..inf", "bad range '0.1..inf'"),
    (parse_int_range, f"1..{_HUGE}", f"bad range '1..{_HUGE}'"),
    (parse_float_range, "0..1:1e-6",
     "bad range '0..1:1e-6': 1000001 values, more than 1000000"),
    (parse_int_range, "1..1000001",
     "bad range '1..1000001': 1000001 values, more than 1000000"),
    (parse_float_range, "-1e308..1e308",
     "bad range '-1e308..1e308': inf values, more than 1000000"),
    (parse_int_range, f"-{_HUGE[:-1]}..{_HUGE[:-1]}",
     f"bad range '-{_HUGE[:-1]}..{_HUGE[:-1]}': inf values, "
     "more than 1000000"),
], ids=["float-value", "int-value", "float-list", "int-list", "float-range",
        "int-range", "float-step", "int-step", "int-list-float",
        "float-reversed", "int-reversed", "float-infinite-bound",
        "int-bound-past-floats", "float-too-many", "int-too-many",
        "float-overflowing-span", "int-overflowing-span"])
def test_both_grids_read_one_grammar(parse, text, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing span warns nothing
        if isinstance(want, list):
            assert parse(text) == want
        else:
            with pytest.raises(ConfigurationError,
                               match=f"^{re.escape(want)}$"):
                parse(text)


# --------------------------------------------------------------- simulate

def test_simulate_writes_deterministic_csv(tmp_path):
    args = ["simulate", "--h", "0.5", "--reps", "8", "--n", "64",
            "--methods", "dwt,wang", "--seed", "7"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "H,method,mean,std,n,failures"
    assert len(lines) == 3


def test_simulate_defaults_are_the_library_defaults(tmp_path):
    """Without --n and --methods, simulate runs every method on paths of
    run_estimator_benchmark's default length."""
    outs = []
    for flags in ([], ["--n", "1024", "--methods", "dwt,wang,jones"]):
        outs.append(tmp_path / f"s{len(outs)}.csv")
        assert main(["simulate", "--h", "0.5", "--reps", "2", "--seed", "3",
                     "--out", str(outs[-1])] + flags) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert [line.split(",")[1] for line in
            outs[0].read_text().splitlines()[1:]] == ["dwt", "wang", "jones"]


def test_simulate_zero_reps_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--h", "0.5", "--reps", "0", "--n", "64",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def _no_draws(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr("wavescale.fbm._fgn_rows", fail)


@pytest.mark.parametrize("flags, message", [
    (["--h", "0.5,1.2"], "got 1.2"),
    (["--h", "0..1"], "got 0.0"),
    (["--h", ""], "empty H grid"),
    (["--h", "0.5", "--reps", "1"], "n_reps must be >= 2"),
    (["--h", "0.5", "--methods", "dwt,wang,dwt"], "repeated method 'dwt'"),
    (["--h", "0.3,0.3", "--methods", "dwt"], "repeated H 0.3"),
    (["--h", "0.5", "--methods", "dwt,hurst"],
     "unknown method 'hurst'; known methods: dwt, wang, jones"),
    (["--h", "0.5", "--methods", ","], "no methods requested"),
    (["--h", "0.9..0.1"], "bad range '0.9..0.1'"),
    (["--h", "0.1..x"], "bad range '0.1..x'"),
    (["--h", "0.1..0.9:0"], "bad range '0.1..0.9:0'"),
    (["--h", "0.1..inf"], "bad range '0.1..inf'"),
    (["--h", "nan..0.9"], "bad range 'nan..0.9'"),
    (["--h", "0.1..0.9:nan"], "bad range '0.1..0.9:nan'"),
    (["--h", "0.1..0.9:inf"], "bad range '0.1..0.9:inf'"),
    (["--h", "0.1..0.9:1e-300"],
     "bad range '0.1..0.9:1e-300': 8e+299 values, more than 1000000"),
    (["--h=-1e308..1e308:1e-300"],
     "bad range '-1e308..1e308:1e-300': inf values, more than 1000000"),
    (["--h", "0.5", "--methods", "foo,dwt,dwt"], "unknown method 'foo'"),
    (["--h", "0.1,abc"], "bad value list '0.1,abc'"),
    (["--h", "0.5", "--n", "100"], "length 100 is not a power of two"),
    (["--h", "0.5", "--n", "4"], "length must be >= 8, got 4"),
    (["--h", "0.5", "--seed", "-1"], "--seed must be >= 0, got -1"),
], ids=["h-above-1", "h-closed-range", "h-empty", "one-rep",
        "repeated-method", "repeated-h", "unknown-method", "no-methods",
        "h-descending-range", "h-range-not-a-number", "h-range-zero-step",
        "h-range-infinite-bound", "h-range-nan-bound", "h-range-nan-step",
        "h-range-infinite-step", "h-range-too-many", "h-range-overflowing",
        "unknown-before-repeated-method", "h-list-not-a-number",
        "n-not-a-power-of-two", "n-below-8", "negative-seed"])
def test_simulate_bad_grid_or_reps_exit_2_before_drawing(
        tmp_path, capsys, monkeypatch, flags, message):
    _no_draws(monkeypatch)
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--n", "64", "--out", str(out)] + flags)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where, message", [
    ("missing/x.csv", "does not exist"),
    ("", "is a directory"),
], ids=["missing-dir", "is-dir"])
def test_simulate_unwritable_out_exit_2_before_drawing(tmp_path, capsys,
                                                       monkeypatch, where,
                                                       message):
    _no_draws(monkeypatch)
    out = tmp_path / where
    rc = main(["simulate", "--h", "0.5", "--reps", "4", "--n", "64",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and str(tmp_path) in err


def test_simulate_has_no_threads_flag(tmp_path, capsys, monkeypatch):
    _no_draws(monkeypatch)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--h", "0.5", "--reps", "4", "--n", "64",
              "--threads", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_installed():
    import shutil
    import subprocess
    exe = shutil.which("wavescale")
    if exe is None:
        pytest.skip("package not installed with console scripts")
    out = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip()


# ------------------------------------------------------- shared toy data

def _write_dataset(tmp_path, n_per_class=5, n_bins=1536, seed=3, n_case=None,
                   scale=1.0):
    """A matrix CSV and a labels CSV of ``n_per_class`` controls and
    ``n_case`` cases (default ``n_per_class``), intensities times
    ``scale``."""
    ds = two_class_fbm_dataset(n_per_class=n_per_class, n_bins=n_bins,
                               seed=seed)
    n = ds.n_samples if n_case is None else n_per_class + n_case
    ids, labels_ = ds.sample_ids[:n], ds.labels[:n]  # controls come first
    lines = ["mz," + ",".join(ids)]
    for i in range(ds.n_bins):
        lines.append(",".join([repr(float(i + 1))] +
                              [repr(float(v) * scale)
                               for v in ds.intensities[:n, i]]))
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("\n".join(lines) + "\n", encoding="utf-8")
    labels = tmp_path / "labels.csv"
    labels.write_text(
        "sample_id,label\n" + "\n".join(
            f"{sid},{'case' if lab else 'control'}"
            for sid, lab in zip(ids, labels_)) + "\n",
        encoding="utf-8")
    return matrix, labels


# ---------------------------------------------------------------- extract

def test_extract_and_classify_round_trip(tmp_path):
    matrix, labels = _write_dataset(tmp_path)
    feats = tmp_path / "features.csv"
    rc = main(["extract", "--matrix", str(matrix), "--labels", str(labels),
               "--method", "wang", "--depth", "9",
               "--window-len", "512", "--stride", "512",
               "--out", str(feats)])
    assert rc == 0
    assert feats.exists()
    meta = tmp_path / "features_windows.csv"
    assert meta.exists()
    assert len(feats.read_text().splitlines()) == 11  # header + 10 samples

    out_dir = tmp_path / "cls"
    rc = main(["classify", "--features", str(feats), "--p", "2",
               "--repeats", "25", "--seed", "5", "--out-dir", str(out_dir),
               "--per-repeat-log"])
    assert rc == 0
    log = (out_dir / "per_repeat_logistic.csv").read_text().splitlines()
    assert log[0] == "repeat,test_accuracy,train_accuracy"
    assert len(log) == 26
    acc = (out_dir / "accuracy.csv").read_text().splitlines()
    assert acc[0].startswith("classifier,p,n_repeats")
    assert len(acc) == 3  # logistic + knn
    # separated synthetic classes (tiny sample; the real accuracy gate
    # lives in the acceptance suite)
    for line in acc[1:]:
        assert float(line.split(",")[4]) > 70.0
    assert (out_dir / "feature_correlation.csv").exists()
    assert (out_dir / "selected_features.csv").exists()


def test_extract_jones_defaults(tmp_path):
    # --method jones implies symmlet4 at depth 9 without extra flags
    matrix, labels = _write_dataset(tmp_path, n_per_class=2, n_bins=1024)
    feats = tmp_path / "j.csv"
    rc = main(["extract", "--matrix", str(matrix), "--labels", str(labels),
               "--method", "jones", "--out", str(feats)])
    assert rc == 0
    lines = feats.read_text().splitlines()
    assert lines[0] == "sample_id,label,w01"
    assert len(lines) == 5


def test_extract_default_depth_follows_the_window_length(tmp_path):
    """Without --depth, wang decomposes 256-bin windows to full depth 8."""
    matrix, labels = _write_dataset(tmp_path, n_per_class=2, n_bins=1024)
    outs = []
    for depth in ([], ["--depth", "8"]):
        outs.append(tmp_path / f"f{len(outs)}.csv")
        assert main(["extract", "--matrix", str(matrix), "--labels",
                     str(labels), "--method", "wang", "--window-len", "256",
                     "--out", str(outs[-1])] + depth) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(outs[0].read_text().splitlines()[0].split(",")) == 2 + 2


def test_extract_missing_labels_file_exit_3(tmp_path, capsys):
    matrix, _ = _write_dataset(tmp_path, n_per_class=2)
    rc = main(["extract", "--matrix", str(matrix),
               "--labels", str(tmp_path / "nope.csv"),
               "--method", "dwt", "--depth", "9",
               "--window-len", "512", "--stride", "512",
               "--out", str(tmp_path / "f.csv")])
    assert rc == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,message", [
    (2, "nan", r"sample 'ctrl002' bin 5: intensity nan is not finite"),
    (0, "0.5", r"m/z axis is not ascending at bin 5"),
], ids=["nan-intensity", "descending-mz"])
def test_extract_rejects_bad_values_before_any_output(tmp_path, capsys,
                                                      field, value, message):
    matrix, labels = _write_dataset(tmp_path, n_per_class=2)
    lines = matrix.read_text().splitlines()
    cells = lines[5].split(",")
    cells[field] = value
    lines[5] = ",".join(cells)
    matrix.write_text("\n".join(lines) + "\n", encoding="utf-8")
    feats = tmp_path / "f.csv"
    rc = main(["extract", "--matrix", str(matrix), "--labels", str(labels),
               "--method", "jones", "--window-len", "512", "--stride", "512",
               "--out", str(feats)])
    assert rc == 3
    assert re.search(message, capsys.readouterr().err)
    assert not feats.exists()
    assert not (tmp_path / "f_windows.csv").exists()


@pytest.mark.parametrize("flags, message", [
    (["--stride", "0"], "--stride must be >= 1, got 0"),
    (["--meta", "{out}"], "name the same file"),
    (["--meta", "{tmp}/sub/../f.csv"], "name the same file"),
    (["--method", "jones", "--dataset-tag", "bogus"],
     "unknown dataset tag 'bogus'; known tags: ovarian-4-3-02, "
     "ovarian-8-7-02"),
], ids=["stride", "meta-is-out", "meta-resolves-to-out", "jones-unknown-tag"])
def test_extract_bad_flags_exit_2_before_ingest(tmp_path, capsys, monkeypatch,
                                                flags, message):
    _no_input(monkeypatch)
    (tmp_path / "sub").mkdir()
    out = tmp_path / "f.csv"
    flags = [f.format(out=out, tmp=tmp_path) for f in flags]
    rc = main(["extract", "--matrix", str(tmp_path / "m.csv"),
               "--labels", str(tmp_path / "l.csv"), "--method", "dwt",
               "--depth", "9", "--window-len", "512", "--out", str(out)]
              + flags)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


@pytest.mark.parametrize("flag", ["--out", "--meta"])
def test_extract_missing_out_dir_exit_2_before_ingest(tmp_path, capsys,
                                                      monkeypatch, flag):
    def no_ingest(*args, **kwargs):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr("wavescale.pipeline.load_dataset", no_ingest)
    missing = tmp_path / "missing" / "f.csv"
    rc = main(["extract", "--matrix", str(tmp_path / "m.csv"),
               "--labels", str(tmp_path / "l.csv"), "--method", "dwt",
               "--depth", "9", "--window-len", "512",
               "--out", str(tmp_path / "f.csv"), flag, str(missing)])
    assert rc == 2
    assert str(missing.parent) in capsys.readouterr().err


def test_extract_estimation_failure_exit_4(tmp_path):
    matrix = tmp_path / "flat.csv"
    matrix.write_text(
        "mz,s1,s2\n" + "\n".join(f"{i}.0,1.0,1.0" for i in range(512)) + "\n",
        encoding="utf-8")
    labels = tmp_path / "labels.csv"
    labels.write_text("sample_id,label\ns1,case\ns2,control\n",
                      encoding="utf-8")
    with pytest.warns(RuntimeWarning):
        rc = main(["extract", "--matrix", str(matrix), "--labels",
                   str(labels), "--method", "dwt", "--depth", "8",
                   "--window-len", "512", "--stride", "512",
                   "--out", str(tmp_path / "f.csv")])
    assert rc == 4


@pytest.mark.parametrize("command", ["extract", "pipeline"])
def test_non_finite_slope_fails_the_run(tmp_path, capsys, command):
    """Finite intensities whose level energies overflow give a NaN slope:
    a failed estimate that names the sample and window, as any failed fit
    does, and leaves numpy's error state as it was."""
    matrix, labels = _write_dataset(tmp_path, scale=1e160)
    first = matrix.read_text(encoding="utf-8").split("\n", 1)[0].split(",")[1]
    out_dir = tmp_path / "out"
    argv = {"extract": ["extract", "--matrix", str(matrix), "--labels",
                        str(labels), "--method", "dwt", "--window-len", "512",
                        "--stride", "512", "--out", str(tmp_path / "f.csv")],
            "pipeline": ["pipeline", str(_write_config(tmp_path, matrix,
                                                       labels, out_dir))]}
    with np.errstate(all="warn"):
        before = np.geterr()
        with pytest.warns(RuntimeWarning):
            assert main(argv[command]) == 4
        assert np.geterr() == before
    assert (f"estimate failed for sample {first!r}, window 1: fitted slope "
            "is not finite: nan") in capsys.readouterr().err
    assert not out_dir.exists() and not (tmp_path / "f.csv").exists()


# --------------------------------------------------------------- pipeline

def _write_config(tmp_path, matrix, labels, out_dir, extra=""):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"""\
# toy end-to-end run
dataset:
  matrix: {matrix}
  labels: {labels}
method: wang
depth: 9
window:
  length: 512
  stride: 512
balance: false
classifiers:
  - kind: logistic
    C: 1.0
  - kind: knn
    k: 5
split:
  repeats: 20
features:
  p: 2
  curve: [1, 3]
  curve_repeats: 10
seed: 11
output_dir: {out_dir}
{extra}""", encoding="utf-8")
    return cfg


def test_pipeline_end_to_end_and_idempotent(tmp_path):
    matrix, labels = _write_dataset(tmp_path, n_per_class=5)
    out_dir = tmp_path / "out"
    cfg = _write_config(tmp_path, matrix, labels, out_dir)
    assert main(["pipeline", str(cfg)]) == 0
    expected = ["features.csv", "windows.csv", "rank_sum_screen.csv",
                "accuracy.csv", "feature_correlation.csv",
                "selected_features.csv", "accuracy_vs_features_logistic.csv",
                "accuracy_vs_features_knn.csv"]
    for name in expected:
        assert (out_dir / name).exists(), name
    first = (out_dir / "features.csv").read_bytes()
    acc_first = (out_dir / "accuracy.csv").read_bytes()
    assert main(["pipeline", str(cfg)]) == 0
    assert (out_dir / "features.csv").read_bytes() == first
    assert (out_dir / "accuracy.csv").read_bytes() == acc_first
    curve = (out_dir / "accuracy_vs_features_knn.csv").read_text().splitlines()
    assert len(curve) == 4  # header + p in 1..3


def test_pipeline_is_extract_then_classify(tmp_path):
    """``pipeline`` writes byte for byte what ``extract`` followed by
    ``classify --balance`` writes with the matching flags and seed; the
    classifier list and the train fraction are left at their defaults on
    both sides."""
    matrix, labels = _write_dataset(tmp_path, n_per_class=14, n_bins=2048,
                                    n_case=10)
    pipe_dir, cls_dir = tmp_path / "pipe", tmp_path / "cls"
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"""\
dataset:
  matrix: {matrix}
  labels: {labels}
method: wang
depth: 8
window:
  length: 512
  stride: 256
balance: true
split:
  repeats: 30
features:
  p: 3
  curve: [1, 7]
  curve_repeats: 12
seed: 5
output_dir: {pipe_dir}
""", encoding="utf-8")
    assert main(["pipeline", str(cfg)]) == 0
    feats = tmp_path / "f.csv"
    assert main(["extract", "--matrix", str(matrix), "--labels", str(labels),
                 "--method", "wang", "--depth", "8", "--window-len", "512",
                 "--stride", "256", "--out", str(feats)]) == 0
    assert main(["classify", "--features", str(feats), "--balance",
                 "--p", "3", "--repeats", "30", "--curve", "1..7",
                 "--curve-repeats", "12", "--seed", "5",
                 "--out-dir", str(cls_dir)]) == 0
    for name in ["accuracy.csv", "accuracy_vs_features_logistic.csv",
                 "accuracy_vs_features_knn.csv", "feature_correlation.csv",
                 "selected_features.csv"]:
        assert (pipe_dir / name).read_bytes() == (cls_dir / name).read_bytes(), name
    assert ((pipe_dir / "windows.csv").read_bytes()
            == (tmp_path / "f_windows.csv").read_bytes())


def test_pipeline_failure_removes_partial_outputs(tmp_path):
    matrix, labels = _write_dataset(tmp_path, n_per_class=5)
    out_dir = tmp_path / "out"
    # p larger than the window count fails before extraction
    cfg = _write_config(tmp_path, matrix, labels, out_dir,
                        extra="").read_text()
    cfg = cfg.replace("p: 2", "p: 25")
    bad = tmp_path / "bad_p.yaml"
    bad.write_text(cfg, encoding="utf-8")
    assert main(["pipeline", str(bad)]) == 2
    assert not (out_dir / "features.csv").exists()
    assert not (out_dir / "rank_sum_screen.csv").exists()


def test_pipeline_interrupt_removes_partial_outputs(tmp_path, monkeypatch):
    matrix, labels = _write_dataset(tmp_path, n_per_class=5)
    out_dir = tmp_path / "out"
    cfg = _write_config(tmp_path, matrix, labels, out_dir)

    def interrupt(*args, **kwargs):
        assert any(tmp_path.glob(".wavescale-*/features.csv"))
        raise KeyboardInterrupt

    monkeypatch.setattr("wavescale.pipeline.write_window_metadata_csv",
                        interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["pipeline", str(cfg)])
    assert not out_dir.exists()
    assert not any(tmp_path.glob(".wavescale-*"))


def test_pipeline_rank_sum_failure_leaves_no_screen(tmp_path, capsys):
    # 3 vs 3 samples: the rank-sum screen fails after writing its header
    matrix, labels = _write_dataset(tmp_path, n_per_class=3)
    out_dir = tmp_path / "out"
    cfg = _write_config(tmp_path, matrix, labels, out_dir)
    assert main(["pipeline", str(cfg)]) == 4
    assert "rank-sum test needs at least 5" in capsys.readouterr().err
    assert not out_dir.exists()


def test_pipeline_config_missing_method_exit_2(tmp_path, capsys):
    matrix, labels = _write_dataset(tmp_path, n_per_class=2)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"dataset:\n  matrix: {matrix}\n  labels: {labels}\n",
                   encoding="utf-8")
    assert main(["pipeline", str(cfg)]) == 2
    assert "method" in capsys.readouterr().err


@pytest.mark.parametrize("kind, message", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("not-utf8", "'utf-8' codec can't decode byte 0xff in position 12"),
], ids=["missing", "directory", "not-utf8"])
def test_pipeline_config_that_cannot_be_read_exit_2(tmp_path, capsys, kind,
                                                    message):
    cfg = tmp_path / "run.yaml"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not-utf8":
        cfg.write_bytes(b"method: dwt\n\xff\n")
    assert main(["pipeline", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot read config {cfg}: " in err and message in err


def test_pipeline_config_missing_path_exit_3(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("dataset:\n  matrix: missing.csv\n  labels: also.csv\n"
                   "method: dwt\n", encoding="utf-8")
    assert main(["pipeline", str(cfg)]) == 3
    assert "error: cannot read also.csv: " in capsys.readouterr().err


@pytest.mark.parametrize("old,new,message", [
    ("  repeats: 20", "  repeat: 20", "split: unknown key(s) 'repeat'"),
    ("seed: 11", "seed: 11\nrepeat: 20", "unknown key(s) 'repeat'"),
    ("    k: 5", "    K: 5", "classifiers[1]: unknown key(s) 'K'"),
    ("  stride: 512", "  strides: 512", "window: unknown key(s) 'strides'"),
    ("  labels:", "  tags: x\n  labels:", "dataset: unknown key(s) 'tags'"),
    ("seed: 11", "seed: 11\nselection: globl", "'globl'"),
    ("    C: 1.0", "    l2_c: 1.0", "classifiers[0]: unknown key(s) 'l2_c'"),
    ("window:\n  length: 512\n  stride: 512", "window: 512",
     "window: expected a mapping, got 512"),
], ids=["split", "top-level", "classifier", "window", "dataset", "selection",
        "l2_c", "window-not-a-mapping"])
def test_pipeline_config_rejects_unknown_keys_before_ingest(tmp_path, capsys,
                                                            old, new,
                                                            message):
    _assert_config_rejected_before_ingest(tmp_path, capsys, old, new, message)


def _assert_config_rejected_before_ingest(tmp_path, capsys, old, new, message):
    matrix, labels = _write_dataset(tmp_path, n_per_class=2)
    matrix.write_text("not a matrix\n", encoding="utf-8")  # never read
    out_dir = tmp_path / "out"
    cfg = _write_config(tmp_path, matrix, labels, out_dir)
    text = cfg.read_text()
    assert old in text
    cfg.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert main(["pipeline", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("old,new,message", [
    ("seed: 11", "seed: 11\nmethod: jones",
     "run.yaml: line 23: repeated key 'method'"),
    ("split:\n  repeats: 20", "split: {repeats: 5, repeats: 20}",
     "run.yaml: line 16: repeated key 'repeats'"),
    ("    k: 5", "    k: 5\n    k: 3",
     "run.yaml: line 16: repeated key 'k'"),
], ids=["top-level", "flow-mapping", "classifier-entry"])
def test_pipeline_config_rejects_a_repeated_key_before_ingest(tmp_path, capsys,
                                                              old, new,
                                                              message):
    _assert_config_rejected_before_ingest(tmp_path, capsys, old, new, message)


def test_pipeline_config_merged_key_may_be_overridden(tmp_path):
    matrix, labels = _write_dataset(tmp_path, n_per_class=2)
    cfg = _write_config(tmp_path, matrix, labels, tmp_path / "out")
    cfg.write_text(cfg.read_text().replace(
        "split:\n", "split:\n  <<: {repeats: 5, train_fraction: 0.6}\n"),
        encoding="utf-8")
    split = load_run_config(cfg).split
    assert (split.n_repeats, split.train_fraction) == (20, 0.6)


@pytest.mark.parametrize("old,new,message", [
    ("  repeats: 20", "  repeats: ten",
     "split.repeats: expected an integer, got 'ten'"),
    ("  - kind: logistic\n    C: 1.0\n  - kind: knn\n    k: 5", "  - 5",
     "classifiers[0]: expected a mapping or a classifier name, got 5"),
    ("    C: 1.0", "    C: strong",
     "classifiers[0].C: expected a number, got 'strong'"),
    ("  - kind: knn", "  - kind: [knn]",
     "classifiers[1].kind: expected a string, got ['knn']"),
    ("balance: false", "balance: maybe",
     "balance: expected true or false, got 'maybe'"),
    ("seed: 11", "seed: 1.5", "seed: expected an integer, got 1.5"),
    ("  p: 2", "  p: [2]", "features.p: expected an integer, got [2]"),
    ("  curve: [1, 3]", "  curve: '13'",
     "features.curve: expected a list, got '13'"),
    ("  curve: [1, 3]", "  curve: [1.5, 3]",
     "features.curve[0]: expected an integer, got 1.5"),
    ("  curve: [1, 3]", "  curve: [true, 3]",
     "features.curve[0]: expected an integer, got True"),
    ("  curve: [1, 3]", "  curve: ['1', '3']",
     "features.curve[0]: expected an integer, got '1'"),
    ("seed: 11", "seed: 11\nlevels:\n  - windows: [1.7, 2]\n    levels: [7, 8]",
     "levels entry 0: windows[0]: expected an integer, got 1.7"),
    ("seed: 11", "seed: 11\nlevels:\n  - windows: '12'\n    levels: [7, 8]",
     "levels entry 0: windows: expected a list, got '12'"),
    ("seed: 11", "seed: 11\nlevels:\n  - windows: [1, 2]\n    levels: [7.5, 8]",
     "levels entry 0: levels[0]: expected an integer, got 7.5"),
    ("seed: 11", "seed: 11\nlevels:\n  - windows: [1, 2]\n    levels: [true, 8]",
     "levels entry 0: levels[0]: expected an integer, got True"),
    ("seed: 11", "seed: 11\nlevels:\n  - windows: [1, 2]\n    levels: '78'",
     "levels entry 0: levels: expected a list, got '78'"),
    ("method: wang", "method: wang\nthreads: two",
     "threads: expected an integer, got 'two'"),
    ("seed: 11", "seed: [11", "run.yaml: invalid YAML: "),
], ids=["repeats", "classifier-entry", "C", "kind", "balance", "seed", "p",
        "curve", "curve-float", "curve-bool", "curve-strings",
        "plan-windows-float", "plan-windows-string", "plan-levels-float",
        "plan-levels-bool", "plan-levels-string", "threads", "invalid-yaml"])
def test_pipeline_config_rejects_ill_typed_values_before_ingest(
        tmp_path, capsys, old, new, message):
    _assert_config_rejected_before_ingest(tmp_path, capsys, old, new, message)


@pytest.mark.parametrize("command", ["pipeline", "extract"])
@pytest.mark.parametrize("method,window,depth,wavelet,message", [
    ("wang", 500, 9, "haar", "window length 500 is not a power of two"),
    ("wang", 512, 10, "haar", "depth 10 does not fit window length 512"),
    ("wang", 512, 0, "haar", "depth 0 does not fit window length 512"),
    ("wang", 512, 9, "db2", "unknown wavelet family 'db2'"),
    ("dwt", 512, 1, "haar",
     "depth 1 does not fit window length 512: dwt needs it in 2..9"),
    ("wang", 2, None, "haar", "window length 2 is too short for the default "
     "wang depth, 1: it must be at least 2"),
    ("jones", 2, None, None, "window length 2 is too short for the default "
     "jones depth, 0: it must be at least 1"),
], ids=["window", "depth", "depth-zero", "family", "dwt-one-level",
        "wang-default-one-level", "jones-default-depth-zero"])
def test_bad_window_depth_or_family_fails_before_ingest(
        tmp_path, capsys, command, method, window, depth, wavelet, message):
    """A depth of None (and a wavelet of None) takes the method's default."""
    matrix, labels = _write_dataset(tmp_path, n_per_class=2)
    matrix.write_text("not a matrix\n", encoding="utf-8")  # never read
    out_dir = tmp_path / "out"
    if command == "pipeline":
        extra = "" if wavelet is None else f"wavelet: {wavelet}\n"
        cfg = _write_config(tmp_path, matrix, labels, out_dir, extra=extra)
        depth_line = "" if depth is None else f"depth: {depth}\n"
        cfg.write_text(cfg.read_text()
                       .replace("method: wang", f"method: {method}")
                       .replace("depth: 9\n", depth_line)
                       .replace("length: 512", f"length: {window}"),
                       encoding="utf-8")
        argv = ["pipeline", str(cfg)]
    else:
        argv = ["extract", "--matrix", str(matrix), "--labels", str(labels),
                "--method", method, "--window-len", str(window),
                "--stride", "512", "--out", str(out_dir / "f.csv")]
        if wavelet is not None:
            argv += ["--wavelet", wavelet]
        if depth is not None:
            argv += ["--depth", str(depth)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("old,new,message", [
    ("  stride: 512", "  stride: 0", "window.stride must be >= 1, got 0"),
    ("seed: 11", "seed: 11\nlevels:\n  - windows: [3, 1]\n    levels: [5, 6]",
     "levels entry 0: windows must satisfy 1 <= lo <= hi, got [3, 1]"),
    ("seed: 11", "seed: 11\nlevels:\n  - windows: [0, 1]\n    levels: [5, 6]",
     "levels entry 0: windows must satisfy 1 <= lo <= hi, got [0, 1]"),
    ("seed: 11", "seed: 11\nlevels:\n  - windows: [1, 1]\n    levels: [5, 6]\n"
     "  - windows: [2, 3]\n    levels: [8, 9]",
     "levels entry 1 (window length 512, depth 9): level 9 outside the "
     "decomposed levels 0..8"),
    ("depth: 9", "depth: 3\nlevels:\n  - windows: [1, 3]\n    levels: [5, 6]",
     "levels entry 0 (window length 512, depth 3): level 5 outside the "
     "decomposed levels 6..8"),
    ("  p: 2", "  p: 0", "features.p must be >= 1, got 0"),
    ("  curve: [1, 3]", "  curve: [3, 1]",
     "features.curve must satisfy 1 <= lo <= hi, got [3, 1]"),
    ("  curve: [1, 3]", "  curve: [0, 3]",
     "features.curve must be >= 1, got 0"),
    ("  curve: [1, 3]", "  curve: [1, 3, 5]",
     "features.curve must be a [lo, hi] pair"),
    ("seed: 11", "seed: 11\nlevels:\n  - windows: [1]\n    levels: [7, 8]",
     "levels entry 0: windows must be a [lo, hi] pair"),
    ("seed: 11", "seed: 11\nlevels:\n  - levels: [7, 8]",
     "levels entry 0: missing required key 'windows'"),
    ("seed: 11", "seed: 11\nlevels:\n  - windows: [1, 29]\n    levels: [7]",
     "levels entry 0: wang fits a slope through at least 2 distinct levels, "
     "got [7]"),
    ("seed: 11", "seed: 11\nlevels:\n  - windows: [1, 29]\n    levels: [7, 7]",
     "levels entry 0 (window length 512, depth 9): repeated level 7"),
    ("seed: 11", "seed: 11\nlevels:\n  - windows: [1, 29]\n    levels: [7, 8, 7]",
     "levels entry 0 (window length 512, depth 9): repeated level 7"),
    ("seed: 11", "seed: -1", "seed must be >= 0, got -1"),
    ("depth: 9", "depth: 1", "depth 1 does not fit window length 512: wang "
     "needs it in 2..9"),
    ("  curve_repeats: 10", "  curve_repeats: 0",
     "features.curve_repeats must be >= 1, got 0"),
    ("  repeats: 20", "  repeats: 0",
     "split.repeats must be >= 1, got 0"),
    ("  repeats: 20", "  repeats: 20\n  train_fraction: 1.5",
     "split.train_fraction must be in (0, 1), got 1.5"),
    ("method: wang", "method: wang\nthreads: 0",
     "threads must be >= 1, got 0"),
    ("  - kind: knn\n    k: 5", "  - kind: logistic",
     "classifiers[1]: repeated classifier kind 'logistic'"),
    ("  - kind: knn\n    k: 5", "  - kind: foo",
     "classifiers[1] must be one of ('logistic', 'knn'), got 'foo'"),
    ("  - kind: knn\n    k: 5", "  - foo",
     "classifiers[1] must be one of ('logistic', 'knn'), got 'foo'"),
    ("classifiers:\n  - kind: logistic\n    C: 1.0\n  - kind: knn\n    k: 5",
     "classifiers: []", "classifiers: no classifiers requested"),
    ("method: wang", "  tag: bogus\nmethod: jones",
     "unknown dataset tag 'bogus'; known tags: ovarian-4-3-02, "
     "ovarian-8-7-02"),
    ("method: wang",
     "method: jones\nlevels:\n  - windows: [1, 29]\n    levels: [7, 8]",
     "levels entry 0 (window length 512, depth 9): jones fits the whole best "
     "basis and takes no level request"),
    ("    C: 1.0", "    C: .nan",
     "classifiers[0].C must be finite and > 0, got nan"),
    ("    C: 1.0", "    C: .inf",
     "classifiers[0].C must be finite and > 0, got inf"),
    ("    C: 1.0", "    C: -1e-300",
     "classifiers[0].C must be finite and > 0, got -1e-300"),
    ("    C: 1.0", "    C: 1.0\n    max_iters: -3",
     "classifiers[0].max_iters must be >= 1, got -3"),
    ("    C: 1.0", "    C: 1.0\n    max_iters: 0",
     "classifiers[0].max_iters must be >= 1, got 0"),
    ("    C: 1.0", "    C: 1.0\n    tol: .nan",
     "classifiers[0].tol must be finite and > 0, got nan"),
    ("    C: 1.0", "    C: 1.0\n    tol: 0",
     "classifiers[0].tol must be finite and > 0, got 0.0"),
    ("    C: 1.0", "    C: 1.0\n    tol: -1e-6",
     "classifiers[0].tol must be finite and > 0, got -1e-06"),
    ("    k: 5", "    k: 0", "classifiers[1].k must be >= 1, got 0"),
    ("seed: 11", "seed: 11\nlevels:\n  - windows: [1, 10]\n    levels: [7, 8]\n"
     "  - windows: [5, 29]\n    levels: [5, 6, 7]",
     "levels entry 1: windows [5, 29] overlap levels entry 0's windows "
     "[1, 10]"),
], ids=["stride", "plan-windows-order", "plan-windows-zero", "plan-level-high",
        "plan-level-low", "p", "curve-order", "curve-zero", "curve-triple",
        "plan-windows-single", "plan-windows-missing", "plan-one-level",
        "plan-repeated-level", "plan-level-named-twice", "seed-negative",
        "depth-one-level", "curve-repeats",
        "split-repeats", "split-train-fraction", "threads", "repeated-kind",
        "unknown-kind", "unknown-kind-name", "no-classifiers",
        "jones-unknown-tag", "jones-level-plan", "C-nan", "C-inf", "C-tiny",
        "max-iters-negative", "max-iters-zero", "tol-nan", "tol-zero",
        "tol-negative", "k-zero", "plan-windows-overlap"])
def test_pipeline_config_rejects_bad_values_before_ingest(tmp_path, capsys,
                                                          old, new, message):
    _assert_config_rejected_before_ingest(tmp_path, capsys, old, new, message)


def test_extract_checks_the_stored_plan_before_ingest(tmp_path, capsys,
                                                     monkeypatch):
    """``extract`` shares the plan-level check of ``MethodConfig`` with
    ``pipeline``: a depth too shallow for the stored plan exits 2
    without reading any input."""
    import wavescale.pipeline as pipeline

    read = []
    monkeypatch.setattr(pipeline, "load_dataset",
                        lambda *args: read.append(args))
    matrix, labels = _write_dataset(tmp_path, n_per_class=2)
    out_dir = tmp_path / "out"
    assert main(["extract", "--matrix", str(matrix), "--labels", str(labels),
                 "--method", "wang", "--dataset-tag", "ovarian-8-7-02",
                 "--depth", "3", "--window-len", "1024",
                 "--out", str(out_dir / "f.csv")]) == 2
    assert ("levels entry 1 (window length 1024, depth 3): level 5 outside "
            "the decomposed levels 7..9") in capsys.readouterr().err
    assert read == [] and not out_dir.exists()


def test_config_example_keys_are_all_accepted(tmp_path):
    matrix, labels = _write_dataset(tmp_path, n_per_class=2)
    example = Path(__file__).resolve().parents[1] / "config.example.yaml"
    text = example.read_text(encoding="utf-8")
    text = text.replace("data/ovarian-8-7-02/matrix.csv", str(matrix))
    text = text.replace("data/ovarian-8-7-02/labels.csv", str(labels))
    cfg = tmp_path / "example.yaml"
    cfg.write_text(text, encoding="utf-8")
    run = load_run_config(cfg)
    assert run.method == "wang" and run.selection_mode == "per-split"
    cfg.write_text(text + "extra: 1\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_run_config(cfg)


# ------------------------------------------------------------ thread count

@pytest.mark.parametrize("value", ["0", "abc"], ids=["zero", "not-an-integer"])
@pytest.mark.parametrize("command", ["extract", "classify", "pipeline"])
def test_threads_env_checked_before_ingest(tmp_path, capsys, monkeypatch,
                                           command, value):
    """The thread count, from ``--threads`` for extract and classify and
    from the config's ``threads`` key for pipeline, is checked before any
    input is read."""
    _no_input(monkeypatch)
    matrix, labels = tmp_path / "m.csv", tmp_path / "l.csv"
    for path in (matrix, labels):
        path.write_text("not read\n", encoding="utf-8")
    threads = ["--threads", value]
    argv = {
        "extract": ["extract", "--matrix", str(matrix), "--labels",
                    str(labels), "--method", "dwt", "--depth", "9",
                    "--window-len", "512", "--out", str(tmp_path / "f.csv"),
                    *threads],
        "classify": ["classify", "--features", str(matrix),
                     "--out-dir", str(tmp_path / "out"), *threads],
        "pipeline": ["pipeline", str(_write_config(
            tmp_path, matrix, labels, tmp_path / "out",
            extra=f"threads: {value}\n"))],
    }[command]
    message = {"0": ("threads must be >= 1, got 0" if command == "pipeline"
                     else "--threads must be >= 1, got 0"),
               "abc": ("threads: expected an integer, got 'abc'"
                       if command == "pipeline"
                       else "argument --threads: invalid int value: 'abc'")}
    before = sorted(tmp_path.iterdir())
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a non-integer flag value
        code = exc.code
    assert code == 2
    assert message[value] in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


# ------------------------------------------------------------ output sets

# (owner, name) of every function that writes an output file; the path is
# always its last argument
_WRITERS = [(BenchmarkReport, "write_csv"), (FeatureMatrix, "write_csv"),
            (pipeline, "write_window_metadata_csv"),
            (pipeline, "write_screen_csv"),
            (classify, "write_per_repeat_csv"), (classify, "write_eval_csv"),
            (classify, "write_correlation_csv"),
            (cli, "_write_selected_features")]


def _output_set_argv(tmp_path, command, out_dir):
    """A small successful ``command`` run that writes into ``out_dir``."""
    if command == "simulate":
        return ["simulate", "--h", "0.5", "--reps", "4", "--n", "64",
                "--methods", "dwt", "--out", str(out_dir / "sim.csv")]
    matrix, labels = _write_dataset(tmp_path, n_per_class=5)
    if command == "pipeline":
        return ["pipeline", str(_write_config(tmp_path, matrix, labels,
                                              out_dir))]
    extract = ["extract", "--matrix", str(matrix), "--labels", str(labels),
               "--method", "wang", "--depth", "9", "--window-len", "512",
               "--stride", "512", "--out"]
    if command == "extract":
        return extract + [str(out_dir / "f.csv")]
    assert main(extract + [str(tmp_path / "f.csv")]) == 0
    return ["classify", "--features", str(tmp_path / "f.csv"), "--p", "2",
            "--repeats", "10", "--curve", "1..2", "--curve-repeats", "5",
            "--per-repeat-log", "--out-dir", str(out_dir)]


def _listing(out_dir):
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) if p.is_file()
            else "not a file" for p in out_dir.iterdir()}


@pytest.mark.parametrize("fault", ["error", "interrupt"])
@pytest.mark.parametrize("command",
                         ["simulate", "extract", "classify", "pipeline"])
def test_failed_run_leaves_previous_outputs_untouched(tmp_path, capsys,
                                                      monkeypatch, command,
                                                      fault):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = _output_set_argv(tmp_path, command, out_dir)
    assert main(argv) == 0
    before = _listing(out_dir)
    # "error": the second write (simulate's only one) stops partway with an
    # exception; "interrupt": KeyboardInterrupt right after the first write
    fail_at = 1 if command == "simulate" else 2
    calls = []

    def faulty(original):
        def writer(*args):
            calls.append(args[-1])
            if fault == "error" and len(calls) == fail_at:
                Path(args[-1]).write_text("partial\n", encoding="utf-8")
                raise EstimationError("writer failed")
            original(*args)
            if fault == "interrupt":
                raise KeyboardInterrupt
        return writer

    for owner, name in _WRITERS:
        monkeypatch.setattr(owner, name, faulty(getattr(owner, name)))
    capsys.readouterr()
    if fault == "error":
        assert main(argv) == 4
        assert "writer failed" in capsys.readouterr().err
    else:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert _listing(out_dir) == before


# ----------------------------------------------- classifier list and curve

def _no_input(monkeypatch):
    def no_input(*args, **kwargs):
        raise AssertionError("an input was read")

    for name in ("load_dataset", "read_feature_csv"):
        monkeypatch.setattr(f"wavescale.pipeline.{name}", no_input)


def test_classify_rejects_repeated_kind_before_reading(tmp_path, capsys,
                                                       monkeypatch):
    _no_input(monkeypatch)
    out_dir = tmp_path / "out"
    argv = ["classify", "--features", str(tmp_path / "f.csv"),
            "--classifiers", "knn,logistic,knn", "--per-repeat-log",
            "--out-dir", str(out_dir)]
    assert main(argv) == 2
    assert ("--classifiers: repeated classifier kind 'knn'"
            in capsys.readouterr().err)
    assert not out_dir.exists()


def _extracted_features(tmp_path):
    matrix, labels = _write_dataset(tmp_path, n_per_class=5)
    feats = tmp_path / "f.csv"
    assert main(["extract", "--matrix", str(matrix), "--labels", str(labels),
                 "--method", "wang", "--depth", "8", "--window-len", "256",
                 "--stride", "256", "--out", str(feats)]) == 0
    return feats


def test_classify_curve_writes_exactly_the_listed_p(tmp_path):
    feats = _extracted_features(tmp_path)

    def curve_rows(spec, name):
        out_dir = tmp_path / name
        assert main(["classify", "--features", str(feats), "--p", "2",
                     "--repeats", "10", "--curve", spec, "--curve-repeats",
                     "8", "--out-dir", str(out_dir)]) == 0
        return {kind: (out_dir / f"accuracy_vs_features_{kind}.csv")
                .read_text().splitlines()[1:] for kind in ("logistic", "knn")}

    listed = curve_rows("1,3", "listed")
    full = curve_rows("1..3", "full")
    for kind in ("logistic", "knn"):
        assert [row.split(",")[1] for row in listed[kind]] == ["1", "3"]
        assert listed[kind] == [full[kind][0], full[kind][2]]


@pytest.mark.parametrize("repeats, curve_repeats", [(10, 4), (4, 10)],
                         ids=["curve-fewer", "curve-more"])
def test_classify_draws_each_split_once_for_p_and_the_curve(
        tmp_path, monkeypatch, repeats, curve_repeats):
    feats = _extracted_features(tmp_path)
    drawn = []
    real = classify._draw_splits

    def recording(labels, n_train, master_seed, reps):
        drawn.extend(reps)
        return real(labels, n_train, master_seed, reps)

    monkeypatch.setattr(classify, "_draw_splits", recording)
    monkeypatch.setattr(classify, "_CHUNK", 3)
    assert main(["classify", "--features", str(feats), "--p", "2",
                 "--repeats", str(repeats), "--curve", "1..3",
                 "--curve-repeats", str(curve_repeats),
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert sorted(drawn) == list(range(max(repeats, curve_repeats)))


def test_classify_curve_is_the_first_curve_repeats_splits(tmp_path):
    # overlapping classes, so the per-repeat accuracies differ
    rng = np.random.default_rng(5)
    labels = rng.permutation([0] * 15 + [1] * 15)
    slopes = rng.standard_normal((30, 6)) + 0.5 * labels[:, None]
    feats = tmp_path / "f.csv"
    feats.write_text("sample_id,label," + ",".join(
        f"w{j + 1}" for j in range(6)) + "\n" + "".join(
        f"s{i},{lab}," + ",".join(repr(float(v)) for v in row) + "\n"
        for i, (lab, row) in enumerate(zip(labels, slopes))), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["classify", "--features", str(feats), "--p", "2",
                 "--repeats", "12", "--curve", "1..3", "--curve-repeats", "5",
                 "--per-repeat-log", "--out-dir", str(out_dir)]) == 0
    for kind in ("logistic", "knn"):
        per_repeat = (out_dir / f"per_repeat_{kind}.csv").read_text()
        test_acc = [float(line.split(",")[1])
                    for line in per_repeat.splitlines()[1:]]
        assert len(test_acc) == 12 and len(set(test_acc[:5])) > 1
        curve = (out_dir / f"accuracy_vs_features_{kind}.csv").read_text()
        header, *rows = [line.split(",") for line in curve.splitlines()]
        at_p = dict(zip(header, next(row for row in rows if row[1] == "2")))
        assert at_p["n_repeats"] == "5"
        assert float(at_p["mean_test_accuracy"]) == float(
            np.mean(test_acc[:5]))


@pytest.mark.parametrize("flags, message, reads_features", [
    (["--curve", "1..7"], "p must be in 1..6, got 7", True),
    (["--curve", "1..3", "--curve-repeats", "0"],
     "--curve-repeats must be >= 1, got 0", False),
    (["--curve", "1..3", "--curve-repeats", "0", "--repeats", "5"],
     "--curve-repeats must be >= 1, got 0", False),
    (["--curve", "1..3", "--curve-repeats", "5", "--repeats", "0"],
     "--repeats must be >= 1, got 0", False),
    (["--train-fraction", "1.5"],
     "--train-fraction must be in (0, 1), got 1.5", False),
    (["--p", "0"], "--p must be >= 1, got 0", False),
    (["--curve", "0..3"], "--curve must be >= 1, got 0", False),
    (["--classifiers", "foo"],
     "--classifiers must be one of ('logistic', 'knn'), got 'foo'", False),
    (["--classifiers", "knn, foo"],
     "--classifiers must be one of ('logistic', 'knn'), got 'foo'", False),
    (["--classifiers", ","], "--classifiers: no classifiers requested", False),
    (["--curve", ","], "--curve: no values in ','", False),
    (["--curve", "2,2"], "--curve: repeated p 2", False),
    (["--curve", "1,3,1"], "--curve: repeated p 1", False),
    (["--curve", "1..1000000000"], "bad range '1..1000000000': 1e+09 values, "
     "more than 1000000", False),
    (["--train-fraction", "0.3", "--classifiers", "logistic"],
     "train fraction 0.3 gives 3 training rows of 5 case and 5 control "
     "samples, which can never hold two samples of each class", True),
    (["--curve", "5..1"], "bad range '5..1'", False),
    (["--curve", "a..3"], "bad range 'a..3'", False),
    (["--curve", "1,x"], "bad value list '1,x'", False),
    (["--seed", "-1"], "--seed must be >= 0, got -1", False),
    (["--seed", "-1", "--balance"], "--seed must be >= 0, got -1", False),
], ids=["curve", "curve-repeats", "curve-repeats-named", "repeats-named",
        "train-fraction-named", "p-named", "curve-low-named",
        "classifier-kind-named", "second-classifier-kind-named",
        "no-classifiers-named", "curve-empty", "curve-repeated-p",
        "curve-repeated-p-apart", "curve-range-too-many", "undrawable-split",
        "curve-descending-range", "curve-range-not-a-number",
        "curve-list-not-a-number", "seed-named", "balance-seed-named"])
def test_classify_checks_the_curve_before_evaluating(tmp_path, capsys,
                                                     monkeypatch, flags,
                                                     message, reads_features):
    feats = _extracted_features(tmp_path)

    def no_draws(*args, **kwargs):
        raise AssertionError("a split was drawn")

    monkeypatch.setattr(classify, "_draw_splits", no_draws)
    if not reads_features:  # a bad count is caught before the file is read
        _no_input(monkeypatch)
    out_dir = tmp_path / "out"
    assert main(["classify", "--features", str(feats), "--p", "2",
                 "--repeats", "10", "--out-dir", str(out_dir)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_classify_refuses_a_long_curve_in_linear_time(tmp_path):
    """60000 curve counts are checked for repeats in one pass, then refused
    at the first count past the 29 windows."""
    import subprocess
    import sys
    feats = tmp_path / "f.csv"
    rows = np.random.default_rng(0).standard_normal((10, 29)).tolist()
    feats.write_text("sample_id,label," + ",".join(
        f"w{j + 1}" for j in range(29)) + "\n" + "".join(
        f"s{i},{i % 2}," + ",".join(map(repr, row)) + "\n"
        for i, row in enumerate(rows)), encoding="utf-8")
    src = str(Path(wavescale.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "wavescale.cli", "classify", "--features",
         str(feats), "--curve", "1..60000", "--out-dir", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=10,
        env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 2
    assert "p must be in 1..29, got 30" in done.stderr


# ------------------------------------------------------- output directory

@pytest.mark.parametrize("where", ["file", "under-file", "dangling-link"])
@pytest.mark.parametrize("command", ["classify", "pipeline"])
def test_out_dir_that_is_or_lies_under_a_file_exits_2(tmp_path, capsys,
                                                      monkeypatch, command,
                                                      where):
    _no_input(monkeypatch)
    afile = tmp_path / "afile"
    afile.write_text("a file\n", encoding="utf-8")
    out_dir = {"file": afile, "under-file": afile / "sub" / "dir",
               "dangling-link": tmp_path / "link"}[where]
    if where == "dangling-link":
        out_dir.symlink_to(tmp_path / "gone")
    if command == "classify":
        argv = ["classify", "--features", str(tmp_path / "f.csv"),
                "--out-dir", str(out_dir)]
    else:
        matrix, labels = _write_dataset(tmp_path, n_per_class=2)
        argv = ["pipeline", str(_write_config(tmp_path, matrix, labels,
                                              out_dir))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"output directory {str(out_dir)!r}" in err
    assert ("lies under a file" if where == "under-file"
            else "is an existing file") in err
    assert afile.read_text(encoding="utf-8") == "a file\n"


@pytest.mark.parametrize("error", ["symlink-loop", "eloop"])
@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_output_path_in_a_symlink_loop_exits_2(tmp_path, capsys, monkeypatch,
                                               command, error):
    """An output path that is a symlink to itself is refused by name before
    any input is read or path drawn, whether ``Path.resolve`` reports the
    loop as a RuntimeError (before Python 3.13) or as an OSError."""
    _no_input(monkeypatch)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    loop = out_dir / ("x.csv" if command == "simulate" else "features.csv")
    loop.symlink_to(loop.name)
    if error == "eloop":
        resolve = Path.resolve

        def eloop(path, *args, **kwargs):
            if path == loop:
                raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), str(path))
            return resolve(path, *args, **kwargs)

        monkeypatch.setattr(Path, "resolve", eloop)
    if command == "simulate":
        argv = ["simulate", "--h", "0.3,0.7", "--n", "64", "--reps", "2",
                "--methods", "dwt", "--out", str(loop)]
    else:
        matrix, labels = _write_dataset(tmp_path, n_per_class=2)
        argv = ["pipeline", str(_write_config(tmp_path, matrix, labels,
                                              out_dir))]
    _no_draws(monkeypatch)
    assert main(argv) == 2
    assert (f"output path {str(loop)!r} cannot be resolved"
            in capsys.readouterr().err)
    assert [p.name for p in out_dir.iterdir()] == [loop.name]


_RUN_OUTPUTS = {
    "classify": ["per_repeat_logistic.csv", "per_repeat_knn.csv",
                 "accuracy.csv", "accuracy_vs_features_logistic.csv",
                 "accuracy_vs_features_knn.csv", "feature_correlation.csv",
                 "selected_features.csv"],
    "pipeline": ["features.csv", "windows.csv", "rank_sum_screen.csv",
                 "accuracy.csv", "accuracy_vs_features_logistic.csv",
                 "accuracy_vs_features_knn.csv", "feature_correlation.csv",
                 "selected_features.csv"]}


@pytest.mark.parametrize("command,fault,code,message", [
    ("classify", None, 0, ""),
    ("classify", "p", 2, "p must be in 1..3, got 40"),
    ("classify", "input", 3, "missing.csv"),
    ("pipeline", None, 0, ""),
    ("pipeline", "input", 3, "matrix.csv"),
], ids=["classify", "classify-p", "classify-missing-input", "pipeline",
        "pipeline-unreadable-input"])
def test_missing_out_dir_is_created_only_by_a_successful_run(
        tmp_path, capsys, command, fault, code, message):
    out_dir = tmp_path / "new" / "sub"
    argv = _output_set_argv(tmp_path, command, out_dir)
    if fault == "p":  # fails once the 3-window feature file is read
        argv += ["--p", "40"]
    elif fault == "input" and command == "classify":
        argv[argv.index("--features") + 1] = str(tmp_path / "missing.csv")
    elif fault == "input":
        (tmp_path / "matrix.csv").write_text("not a matrix\n",
                                             encoding="utf-8")
    before = set(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == code
    assert message in capsys.readouterr().err
    if fault:  # no new directory and no staging directory
        assert set(tmp_path.iterdir()) == before
    else:
        assert set(tmp_path.iterdir()) == before | {tmp_path / "new"}
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            _RUN_OUTPUTS[command])


# ----------------------------------------- pipeline checks before extraction

@pytest.mark.parametrize("n_per_class,old,new,code,message", [
    (5, "  p: 2", "  p: 25", 2, "p must be in 1..3, got 25"),
    (5, "  curve: [1, 3]", "  curve: [1, 9]", 2, "p must be in 1..3, got 4"),
    (5, "  curve: [1, 3]", "  curve: [1, 8000000]", 2,
     "p must be in 1..3, got 4"),
    (5, "  curve: [1, 3]", "  curve: [5, 8000000]", 2,
     "p must be in 1..3, got 5"),
    (5, "    k: 5", "    k: 8", 2, "k=8 exceeds 7 training rows"),
    (5, "  - kind: knn\n    k: 5\nsplit:\n  repeats: 20",
     "split:\n  repeats: 20\n  train_fraction: 0.3", 2,
     "train fraction 0.3 gives 3 training rows of 5 case and 5 control "
     "samples, which can never hold two samples of each class"),
    (3, "  p: 2", "  p: 2", 4,
     "rank-sum test needs at least 5 observations per sample"),
], ids=["p", "curve", "curve-long", "curve-past-the-windows", "knn-k",
        "undrawable-split", "rank-sum"])
def test_pipeline_fails_before_extraction(tmp_path, capsys, monkeypatch,
                                          n_per_class, old, new, code,
                                          message):
    def no_extraction(*args, **kwargs):
        raise AssertionError("extraction was reached")

    monkeypatch.setattr("wavescale.pipeline.extract_features", no_extraction)
    matrix, labels = _write_dataset(tmp_path, n_per_class=n_per_class)
    out_dir = tmp_path / "out"
    cfg = _write_config(tmp_path, matrix, labels, out_dir)
    text = cfg.read_text()
    assert old in text
    cfg.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert main(["pipeline", str(cfg)]) == code
    assert message in capsys.readouterr().err
    assert not out_dir.exists()
