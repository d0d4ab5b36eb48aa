"""The chunked estimator benchmark against the former per-replicate loop
kept in ``oracles``: every cell bitwise equal, failures and warnings
counted alike."""

import warnings

import numpy as np
import pytest

import oracles
import wavescale.estimators as estimators
import wavescale.fbm as fbm
from oracles import reference_estimator_benchmark, reference_fgn
from wavescale import FbmSpec, fgn_sample, run_estimator_benchmark

METHODS = ("dwt", "wang", "jones")


def _cells(report):
    return {(e.hurst, e.method): (e.mean, e.std, e.n, e.failures)
            for e in report.entries}


def _with_warnings(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, sorted(str(w.message) for w in caught)


@pytest.mark.parametrize("threads", [1, 3])
def test_report_bitwise_equal_to_per_replicate_loop(threads):
    h_grid = [0.2, 0.5, 0.8]
    report = run_estimator_benchmark(h_grid, n_reps=40, length=256,
                                     methods=METHODS, master_seed=11,
                                     threads=threads)
    assert _cells(report) == reference_estimator_benchmark(
        h_grid, 40, 256, METHODS, 11)


@pytest.mark.parametrize("threads", [1, 3])
def test_partial_last_chunk(monkeypatch, threads):
    monkeypatch.setattr(fbm, "_CHUNK", 5)  # 5 + 5 + 2 replicates per H
    h_grid = [0.35, 0.65]
    report = run_estimator_benchmark(h_grid, n_reps=12, length=128,
                                     methods=METHODS, master_seed=3,
                                     threads=threads)
    assert _cells(report) == reference_estimator_benchmark(
        h_grid, 12, 128, METHODS, 3)


def test_zero_energy_warnings_and_failures_match(monkeypatch):
    # zero every level energy below a threshold, so some rows drop points
    # and some fall under two points and fail; both paths apply the same
    # threshold to the same energies, so they must drop and fail the same
    # rows
    real, reference = estimators._level_energies, oracles.reference_level_energy

    def sparse(method, level):
        e = real(method, level)
        return np.where(e < 1.0, 0.0, e)

    def reference_sparse(method, lev):
        e = reference(method, lev)
        return 0.0 if e < 1.0 else e

    monkeypatch.setattr(estimators, "_level_energies", sparse)
    monkeypatch.setattr(oracles, "reference_level_energy", reference_sparse)
    monkeypatch.setattr(fbm, "_CHUNK", 7)
    h_grid = [0.2, 0.6]
    report, got = _with_warnings(lambda: run_estimator_benchmark(
        h_grid, n_reps=20, length=64, methods=("dwt", "wang"),
        master_seed=2))
    expected, want = _with_warnings(lambda: reference_estimator_benchmark(
        h_grid, 20, 64, ("dwt", "wang"), 2))
    assert _cells(report) == expected
    assert got == want and len(got) > 0
    assert sum(c[3] for c in expected.values()) > 0


@pytest.mark.parametrize("hurst", [0.25, 0.75])
def test_fgn_sample_is_the_one_row_draw(hurst):
    for seed in (0, np.random.SeedSequence(9, spawn_key=(2, 4))):
        got = fgn_sample(FbmSpec(hurst=hurst, length=512, seed=seed))
        want = reference_fgn(hurst, 512, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


def test_batch_rows_do_not_depend_on_their_neighbours():
    seeds = [np.random.SeedSequence(4, spawn_key=(0, r)) for r in range(6)]
    rows = fbm._fgn_rows(0.6, 128, [np.random.default_rng(s) for s in seeds])
    for s, row in zip(seeds, rows):
        alone = fgn_sample(FbmSpec(hurst=0.6, length=128, seed=s))
        assert row.tobytes() == alone.tobytes()
