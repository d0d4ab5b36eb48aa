"""The bytes of every output CSV: UTF-8, Python's csv dialect (``\\r\\n``
row ends, quoting only where a field needs it), floats in shortest
round-trip form, and an empty field for a missing m/z or an undefined
correlation."""

import numpy as np
import pytest

from wavescale import classify, cli
from wavescale.classify import EvalReport
from wavescale.fbm import BenchmarkEntry, BenchmarkReport
from wavescale.pipeline import (FeatureMatrix, WindowGrid, write_screen_csv,
                                write_window_metadata_csv)

_T = 0.1 + 0.2  # 0.30000000000000004, 17 significant digits

_SLOPES = np.array([[_T, -1.5], [1e-07, 2.0], [0.5, 0.25], [0.75, -0.125],
                    [1.0, 3.0], [-0.5, 0.0], [-0.25, 1.5], [-1.0, -2.0],
                    [-0.75, 0.5], [-2.0, 1.0]])
_FEATURES = FeatureMatrix(
    method="wang", slopes=_SLOPES, hurst=np.full_like(_SLOPES, np.nan),
    labels=np.array([1] * 5 + [0] * 5, dtype=np.int8),
    sample_ids=("s,1", "sé2") + tuple(f"s{i}" for i in range(3, 11)))
_GRID = WindowGrid(window_len=4, stride=2, windows=((0, 4), (2, 6)))
_MZ = np.array([1e-07, 0.1, 0.2, _T, 1.0, 2.5])
_REPORT = EvalReport(
    classifier="logistic(C=1)", p=2, n_repeats=2, mean_test_accuracy=_T,
    std_test_accuracy=1e-07, mean_train_accuracy=100.0,
    std_train_accuracy=0.0, redraws=1, selection_mode="per-split",
    per_repeat=((np.float64(_T), 100.0), (np.float64(1e-07), 50.0)))
_BENCHMARK = BenchmarkReport(entries=(
    BenchmarkEntry(_T, "dwt", 1e-07, 0.5, 10, 0),
    BenchmarkEntry(0.7, "jones", np.float64(0.6875), float("nan"), 1, 9)))

_FEATURE_ROWS = ("s6,0,-0.5,0.0\r\ns7,0,-0.25,1.5\r\ns8,0,-1.0,-2.0\r\n"
                 "s9,0,-0.75,0.5\r\ns10,0,-2.0,1.0\r\n")

# name: (writer of one file at ``path``, the file's text)
_CASES = {
    "features": (
        lambda path: _FEATURES.write_csv(path),
        'sample_id,label,w01,w02\r\n"s,1",1,0.30000000000000004,-1.5\r\n'
        "sé2,1,1e-07,2.0\r\ns3,1,0.5,0.25\r\ns4,1,0.75,-0.125\r\n"
        "s5,1,1.0,3.0\r\n" + _FEATURE_ROWS),
    "windows": (
        lambda path: write_window_metadata_csv(_GRID, _MZ, path),
        "window,first_index,last_index,mz_lo,mz_hi\r\n"
        "1,1,4,1e-07,0.30000000000000004\r\n2,3,6,0.2,2.5\r\n"),
    "windows without m/z": (
        lambda path: write_window_metadata_csv(_GRID, None, path),
        "window,first_index,last_index,mz_lo,mz_hi\r\n1,1,4,,\r\n2,3,6,,\r\n"),
    "rank-sum screen": (
        lambda path: write_screen_csv(_FEATURES, path),
        "window,rank_sum_statistic,p_value\r\n1,40.0,0.012185780355344818\r\n"
        "2,29.0,0.8345316227109287\r\n"),
    "benchmark": (
        lambda path: _BENCHMARK.write_csv(path),
        "H,method,mean,std,n,failures\r\n0.30000000000000004,dwt,1e-07,0.5,"
        "10,0\r\n0.7,jones,0.6875,nan,1,9\r\n"),
    "accuracy": (
        lambda path: classify.write_eval_csv([_REPORT], path),
        "classifier,p,n_repeats,selection_mode,mean_test_accuracy,"
        "std_test_accuracy,mean_train_accuracy,std_train_accuracy,redraws\r\n"
        "logistic(C=1),2,2,per-split,0.30000000000000004,1e-07,100.0,0.0,1"
        "\r\n"),
    "per-repeat log": (
        lambda path: classify.write_per_repeat_csv(_REPORT, path),
        "repeat,test_accuracy,train_accuracy\r\n0,0.30000000000000004,100.0"
        "\r\n1,1e-07,50.0\r\n"),
    "correlation": (
        lambda path: classify.write_correlation_csv(
            np.array([[1.0, _T], [_T, np.nan]]), np.array([1, 0]), path),
        ",w2,w1\r\nw2,1.0,0.30000000000000004\r\nw1,0.30000000000000004,\r\n"),
    "selected features": (
        lambda path: cli._write_selected_features(_FEATURES, np.array([1, 0]),
                                                  path),
        'sample_id,label,w2,w1\r\n"s,1",1,-1.5,0.30000000000000004\r\n'
        "sé2,1,2.0,1e-07\r\ns3,1,0.25,0.5\r\ns4,1,-0.125,0.75\r\n"
        "s5,1,3.0,1.0\r\ns6,0,0.0,-0.5\r\ns7,0,1.5,-0.25\r\ns8,0,-2.0,-1.0"
        "\r\ns9,0,0.5,-0.75\r\ns10,0,1.0,-2.0\r\n"),
}


@pytest.mark.parametrize("name", list(_CASES))
def test_writer_bytes(tmp_path, name):
    write, text = _CASES[name]
    path = tmp_path / "out.csv"
    write(path)
    assert path.read_bytes() == text.encode("utf-8")
