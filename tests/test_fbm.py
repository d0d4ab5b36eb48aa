import numpy as np
import pytest

import wavescale.estimators as estimators_mod
import wavescale.fbm as fbm_mod
from oracles import reference_fgn
from wavescale import (
    ConfigurationError,
    EstimationError,
    FbmSpec,
    fbm_from_fgn,
    fgn_autocovariance,
    fgn_sample,
    make_filter,
    run_estimator_benchmark,
    scaling_descriptor,
    wpd_full,
)


# ------------------------------------------------------------------- spec

def test_spec_validation():
    with pytest.raises(ConfigurationError):
        FbmSpec(hurst=0.0, length=64, seed=1)
    with pytest.raises(ConfigurationError):
        FbmSpec(hurst=1.0, length=64, seed=1)
    with pytest.raises(ConfigurationError):
        FbmSpec(hurst=0.5, length=48, seed=1)
    with pytest.raises(ConfigurationError):
        FbmSpec(hurst=0.5, length=4, seed=1)


# -------------------------------------------------------------- generator

def test_h_half_autocovariance_vanishes():
    k = np.arange(1, 20)
    np.testing.assert_allclose(fgn_autocovariance(0.5, k), 0.0, atol=1e-12)
    assert fgn_autocovariance(0.5, np.array([0]))[0] == pytest.approx(1.0)


def test_same_seed_same_vector():
    spec = FbmSpec(hurst=0.7, length=256, seed=123)
    np.testing.assert_array_equal(fgn_sample(spec), fgn_sample(spec))
    other = fgn_sample(FbmSpec(hurst=0.7, length=256, seed=124))
    assert not np.array_equal(fgn_sample(spec), other)


@pytest.mark.parametrize("hurst", [0.2, 0.5, 0.8])
def test_sample_autocovariance_matches_closed_form(hurst):
    # Monte-Carlo oracle against the closed-form autocovariance: each lag
    # estimate must land within 3 standard errors
    n = 64
    n_draws = 10_000
    rng = np.random.default_rng(2024)
    draws = fbm_mod._fgn_rows(hurst, n, [rng] * n_draws)
    gamma = fgn_autocovariance(hurst, np.arange(6))
    for lag in range(6):
        prods = (draws[:, : n - lag] * draws[:, lag:]).mean(axis=1)
        m = prods.mean()
        se = prods.std(ddof=1) / np.sqrt(n_draws)
        assert abs(m - gamma[lag]) < 3.0 * se, (lag, m, gamma[lag], se)


def test_embedding_eigenvalues_are_positive():
    # the evidence that fGn needs no sampler other than circulant embedding
    hursts = np.round(np.arange(1, 100) * 0.01, 2)
    for k in range(3, 15):
        for hurst in hursts:
            assert fbm_mod._embedding_eigenvalues(2 ** k, hurst).min() > 0.0


def test_eigenvalue_below_the_floor_fails_before_drawing(monkeypatch):
    monkeypatch.setattr(fbm_mod, "_EIGENVALUE_FLOOR", np.inf)
    message = "circulant embedding failed for H=0.3 at length 64"
    with pytest.raises(EstimationError, match=message):
        fgn_sample(FbmSpec(hurst=0.3, length=64, seed=1))

    def no_draw(*args, **kwargs):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(fbm_mod, "_fgn_rows", no_draw)
    with pytest.raises(EstimationError, match=message):
        run_estimator_benchmark([0.3], n_reps=4, length=64)


# ------------------------------------------------------------------- fbm

def test_fbm_is_cumulative_sum():
    np.testing.assert_allclose(fbm_from_fgn([1.0, 1.0, 1.0]), [1.0, 2.0, 3.0])
    assert fbm_from_fgn([]).size == 0


def test_fbm_increments_roundtrip():
    noise = fgn_sample(FbmSpec(hurst=0.3, length=128, seed=5))
    path = fbm_from_fgn(noise)
    # cumulative-sum rounding keeps this at float precision, not bit-exact
    np.testing.assert_allclose(np.diff(path), noise[1:], atol=1e-12)
    assert path[0] == noise[0]


@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_increment_variance_self_similarity(hurst):
    # Var(B[t+l] - B[t]) = l**(2H); a log-log fit over l in {1,2,4,8}
    # averaged across draws recovers H
    n = 256
    lags = np.array([1, 2, 4, 8])
    acc = np.zeros(len(lags))
    n_draws = 200
    for rep in range(n_draws):
        path = fbm_from_fgn(fgn_sample(FbmSpec(hurst, n, 300 + rep)))
        for i, lag in enumerate(lags):
            inc = path[lag:] - path[:-lag]
            acc[i] += np.mean(inc ** 2)
    acc /= n_draws
    slope = np.polyfit(np.log2(lags), np.log2(acc), 1)[0]
    assert slope / 2.0 == pytest.approx(hurst, abs=0.1)


# -------------------------------------------------------------- benchmark

def test_benchmark_shape_and_determinism():
    kwargs = dict(h_grid=[0.3, 0.7], n_reps=25, length=64,
                  methods=("dwt", "wang", "jones"), master_seed=99)
    r1 = run_estimator_benchmark(**kwargs)
    r2 = run_estimator_benchmark(**kwargs)
    assert r1 == r2
    assert len(r1.entries) == 6
    cell = r1.cell(0.3, "wang")
    assert cell.n == 25 and cell.failures == 0
    assert cell.std >= 0.0


def test_benchmark_thread_count_does_not_change_results():
    kwargs = dict(h_grid=[0.5], n_reps=16, length=64, methods=("dwt",),
                  master_seed=7)
    r1 = run_estimator_benchmark(threads=1, **kwargs)
    r4 = run_estimator_benchmark(threads=4, **kwargs)
    assert r1 == r4


def test_benchmark_counts_failures(monkeypatch):
    calls = {"n": 0}
    real = estimators_mod._descriptors

    def flaky(*args):
        fits = real(*args)
        for r in range(len(fits.errors)):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                fits.errors[r] = EstimationError("synthetic failure")
        return fits

    monkeypatch.setattr(estimators_mod, "_descriptors", flaky)
    report = run_estimator_benchmark([0.5], n_reps=12, length=64,
                                     methods=("dwt",), master_seed=1)
    cell = report.cell(0.5, "dwt")
    assert cell.failures == 4
    assert cell.n == 8


def test_benchmark_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        run_estimator_benchmark([0.5], n_reps=0, length=64)
    with pytest.raises(ConfigurationError):
        run_estimator_benchmark([0.5], n_reps=5, length=64, methods=("rs",))
    with pytest.raises(ConfigurationError):
        run_estimator_benchmark([0.5], n_reps=5, length=60)


@pytest.mark.parametrize("h_grid, reps, text", [
    ([], 5, "empty H grid"),
    ([0.5, 1.2], 5, "got 1.2"),
    ([0.0, 0.5], 5, "got 0.0"),
    ([float("nan")], 5, "got nan"),
    ([0.5], 1, "got 1"),
    (["0.3"], 5, "got '0.3'"),
    ([True], 5, "got True"),
])
def test_benchmark_rejects_bad_grid_before_drawing(monkeypatch, h_grid, reps,
                                                   text):
    def no_draws(*args, **kwargs):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(fbm_mod, "_fgn_rows", no_draws)
    with pytest.raises(ConfigurationError, match=text):
        run_estimator_benchmark(h_grid, n_reps=reps, length=64)


@pytest.mark.parametrize("h_grid, methods, text", [
    ([0.5], ("dwt", "dwt"), "repeated method 'dwt'"),
    ([0.5], ("jones", "wang", "jones"), "repeated method 'jones'"),
    ([0.3, 0.7, 0.3], ("dwt",), "repeated H 0.3"),
], ids=["methods0", "methods1", "h_grid"])
def test_benchmark_rejects_repeated_method_before_drawing(monkeypatch, h_grid,
                                                          methods, text):
    # a repeated method or H would compute and report the same cells twice
    def no_draws(*args, **kwargs):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(fbm_mod, "_fgn_rows", no_draws)
    with pytest.raises(ConfigurationError, match=text):
        run_estimator_benchmark(h_grid, n_reps=4, length=64, methods=methods)


def test_benchmark_csv_bytes_deterministic(tmp_path):
    report = run_estimator_benchmark([0.4], n_reps=10, length=64,
                                     methods=("dwt", "jones"), master_seed=3)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    report.write_csv(p1)
    report.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "H,method,mean,std,n,failures"


def test_benchmark_computes_eigenvalues_once_per_h(monkeypatch):
    calls = []
    real = fbm_mod._embedding_eigenvalues

    def counting(n, hurst):
        calls.append(hurst)
        return real(n, hurst)

    monkeypatch.setattr(fbm_mod, "_embedding_eigenvalues", counting)
    h_grid = [0.3, 0.7]
    report = run_estimator_benchmark(h_grid, n_reps=6, length=64,
                                     methods=("dwt",), master_seed=4)
    assert calls == h_grid
    # each replicate draws bitwise what the one-path reference draws
    f = make_filter("haar")
    for ih, h in enumerate(h_grid):
        vals = np.array([scaling_descriptor("dwt", wpd_full(fbm_from_fgn(
            reference_fgn(h, 64, np.random.default_rng(np.random.SeedSequence(
                4, spawn_key=(ih, rep))))), f, 6)).hurst for rep in range(6)])
        cell = report.cell(h, "dwt")
        assert (cell.mean, cell.std) == (float(vals.mean()),
                                         float(vals.std(ddof=1)))


def test_benchmark_resolves_each_methods_levels_once(monkeypatch):
    """Each method's level set comes from its checked default
    decomposition before any chunk is drawn: every chunk fits every row
    with that one set, and no level request is resolved per chunk."""
    kwargs = dict(h_grid=[0.3, 0.7], n_reps=40, length=64,
                  methods=("dwt", "wang", "jones"), master_seed=5)
    want = run_estimator_benchmark(**kwargs)

    def fail(*args, **kwargs):
        raise AssertionError("checked again for a chunk")

    sets, real = {}, fbm_mod.descriptor_rows

    def spy(method, rows, f, depth, level_sets):
        sets.setdefault(method, []).extend(level_sets)  # alive: ids not reused
        assert level_sets == [tuple(range(6 - depth, 6))] * len(rows)
        return real(method, rows, f, depth, level_sets)

    monkeypatch.setattr(estimators_mod, "resolve_levels", fail)
    monkeypatch.setattr(fbm_mod, "descriptor_rows", spy)
    assert run_estimator_benchmark(**kwargs) == want
    assert {m: len(set(map(id, got))) for m, got in sets.items()} == {
        "dwt": 1, "wang": 1, "jones": 1}
