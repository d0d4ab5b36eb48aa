import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavescale
from wavescale import (
    ConfigurationError,
    METHODS,
    EstimationError,
    FbmSpec,
    PacketTree,
    MethodConfig,
    SpectraDataset,
    SpectrumPoint,
    extract_features,
    fbm_from_fgn,
    fgn_sample,
    fit_slope,
    hurst_dwt,
    hurst_jones,
    hurst_wang,
    make_filter,
    make_windows,
    rank_size_fit,
    scaling_descriptor,
    spectrum_dwt,
    spectrum_wang,
    synthesis_step,
    wpd_full,
)
from wavescale.estimators import default_decomposition


# ---------------------------------------------------------------- fitting

def test_fit_slope_exact_line():
    pts = [SpectrumPoint(1, -3.0), SpectrumPoint(2, -5.0),
           SpectrumPoint(3, -7.0)]
    fit = fit_slope(pts)
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 3


def test_fit_slope_needs_two_distinct_levels():
    with pytest.raises(EstimationError):
        fit_slope([SpectrumPoint(2, -1.0), SpectrumPoint(2, -2.0)])
    with pytest.raises(EstimationError):
        fit_slope([SpectrumPoint(1, -1.0)])


@pytest.mark.parametrize("fit", [
    lambda: fit_slope([SpectrumPoint(1, np.nan), SpectrumPoint(2, 1.0)]),
    lambda: fit_slope([SpectrumPoint(1, 1.0), SpectrumPoint(2, np.inf),
                       SpectrumPoint(3, 1.0)]),
    lambda: rank_size_fit([np.nan, 1.0, 2.0]),
    lambda: rank_size_fit([1.0, 2.0, np.inf, 0.0]),
], ids=["nan-point", "inf-point", "nan-magnitude", "inf-magnitude"])
def test_non_finite_fit_is_an_estimation_error(fit):
    """A NaN or infinite point is fitted, not dropped, and its non-finite
    slope is refused as in a batched extraction."""
    with np.errstate(invalid="ignore"):
        with pytest.raises(EstimationError,
                           match=r"^fitted slope is not finite: nan$"):
            fit()


def test_slope_fit_fields_are_python_numbers():
    x = fbm_from_fgn(fgn_sample(FbmSpec(0.6, 256, 7)))
    for fit in (fit_slope([SpectrumPoint(1, -3.0), SpectrumPoint(2, -4.5)]),
                rank_size_fit([3.0, 1.0, 2.0]),
                scaling_descriptor("wang", wpd_full(x, make_filter("haar"),
                                                    8)).fit):
        assert [type(v) for v in (fit.slope, fit.intercept, fit.n_points,
                                  fit.r_squared)] == [float, float, int, float]


# ------------------------------------------------------------ affine maps

def test_hurst_map_examples():
    assert hurst_dwt(-2.0) == pytest.approx(0.5)
    assert hurst_dwt(-1.0) == pytest.approx(0.0)
    assert hurst_dwt(-3.0) == pytest.approx(1.0)
    assert hurst_wang(-1.0) == pytest.approx(0.5)
    assert hurst_wang(0.0) == pytest.approx(0.0)
    assert hurst_wang(-1.8) == pytest.approx(0.9)
    assert hurst_jones(-1.5) == pytest.approx(0.5)
    assert hurst_jones(-2.0) == pytest.approx(1.0)


@given(st.floats(min_value=-10, max_value=10))
def test_hurst_maps_are_affine(slope):
    assert hurst_dwt(slope) == -(slope + 1.0) / 2.0
    assert hurst_wang(slope) == -slope / 2.0
    assert hurst_jones(slope) == abs(slope + 1.0)


@pytest.mark.parametrize("method", METHODS)
def test_descriptor_hurst_is_the_method_slope_map(method):
    """Every method's descriptor carries hurst_<method> of its own slope."""
    family, depth = default_decomposition(method, 256)
    x = fbm_from_fgn(fgn_sample(FbmSpec(0.6, 256, 7)))
    d = scaling_descriptor(method, wpd_full(x, make_filter(family), depth))
    assert d.hurst == getattr(wavescale, f"hurst_{method}")(d.slope)

# ---------------------------------------------------------------- spectra

def test_spectrum_levels_default_to_all_decomposed():
    f = make_filter("haar")
    x = np.random.default_rng(0).standard_normal(64)
    tree = wpd_full(x, f, 6)
    pts = spectrum_dwt(tree)
    assert [p.level for p in pts] == [0, 1, 2, 3, 4, 5]


def test_spectrum_dwt_is_node1_mean_square():
    f = make_filter("haar")
    x = np.random.default_rng(1).standard_normal(32)
    tree = wpd_full(x, f, 4)
    for p in spectrum_dwt(tree):
        node = tree.coeffs(p.level, 1)
        assert p.log_energy == pytest.approx(np.log2(np.mean(node ** 2)),
                                             rel=1e-12)


def test_spectrum_wang_hand_computed_depth3():
    # level energy = mean over odd-index nodes of per-node mean square
    f = make_filter("haar")
    x = np.random.default_rng(2).standard_normal(8)
    tree = wpd_full(x, f, 3)
    for p in spectrum_wang(tree):
        d = 3 - p.level
        nodes = [tree.coeffs(p.level, n) for n in range(1, 2 ** d, 2)]
        expected = np.mean([np.mean(nd ** 2) for nd in nodes])
        assert p.log_energy == pytest.approx(np.log2(expected), rel=1e-12)


def test_wang_equals_dwt_on_first_decomposition_level():
    # the only detail node at the first level is (J-1, 1), so both spectra
    # see the same mean-square energy there
    f = make_filter("haar")
    x = np.random.default_rng(3).standard_normal(64)
    tree = wpd_full(x, f, 6)
    d = spectrum_dwt(tree, [5])[0]
    w = spectrum_wang(tree, [5])[0]
    assert w.log_energy == pytest.approx(d.log_energy, rel=1e-12)


@pytest.mark.parametrize("shape", [(1, 2, 512), (3, 6, 7), (5, 12, 3),
                                   (2, 10, 1), (4, 24, 100), (2, 3, 1000)])
@pytest.mark.parametrize("method", ["dwt", "wang"])
def test_level_energies_bitwise_equal_to_nested_mean(method, shape):
    """Sum-then-divide per axis is np.mean's own order, also for node
    counts and lengths that are not powers of two."""
    from wavescale.estimators import _level_energies

    level = np.random.default_rng(7).standard_normal(shape) * 1e3
    det = level[:, 1:2] if method == "dwt" else level[:, 1::2]
    want = np.mean(np.mean(det * det, axis=2), axis=1)
    assert _level_energies(method, level).tobytes() == want.tobytes()


def test_empty_level_set_rejected():
    f = make_filter("haar")
    tree = wpd_full(np.ones(8), f, 3)
    with pytest.raises(ConfigurationError):
        spectrum_dwt(tree, [])


@pytest.mark.parametrize("levels, message", [
    ([6.9, 5], "level 6.9 is not an integer"),
    ([6.5, 5.2], "level 6.5 is not an integer"),
    ([6.0, 5], "level 6.0 is not an integer"),
    ([True, 5], "level True is not an integer"),
    (["6", 5], "level '6' is not an integer"),
    ([[6], 5], r"level \[6\] is not an integer"),
    ([6, 6], "repeated level 6"),
    ([5, 6, 5], "repeated level 5"),
    ([7, 5], "level 7 outside the decomposed levels 0..6"),
    ([7, 7], "level 7 outside the decomposed levels 0..6"),
    ([5, 5, 7], "level 7 outside the decomposed levels 0..6"),
], ids=["float", "floats", "integral-float", "bool", "string", "list",
        "twice", "twice-apart", "missing", "missing-twice",
        "missing-after-twice"])
@pytest.mark.parametrize("call", ["spectrum_dwt", "spectrum_wang",
                                  "scaling_descriptor", "MethodConfig.check",
                                  "extract_features"])
def test_level_request_holds_distinct_integer_levels(monkeypatch, call, levels,
                                                     message):
    """A level request names distinct integer levels of the decomposed
    range; anything else is refused by name, as a repeated H is, never
    truncated or merged.  A plan entry is refused the same way, named by
    its entry, before any transform."""
    import wavescale.estimators as estimators

    f = make_filter("haar")
    x = np.random.default_rng(5).standard_normal(128).cumsum()
    spectra = SpectraDataset(np.vstack([x, -x]), np.array([0, 1]), ("a", "b"))
    calls = {
        "spectrum_dwt": lambda lv: spectrum_dwt(wpd_full(x, f, 7), lv),
        "spectrum_wang": lambda lv: spectrum_wang(wpd_full(x, f, 7), lv),
        "scaling_descriptor": lambda lv: scaling_descriptor(
            "dwt", wpd_full(x, f, 7), lv).slope,
        "MethodConfig.check": lambda lv: MethodConfig(
            "wang", 128, "haar", 7, ((1, 1, lv),)),
        "extract_features": lambda lv: extract_features(
            spectra, "dwt", make_windows(128, 128, 128),
            MethodConfig("dwt", 128, "haar", 7, ((1, 1, lv),))).slopes.tolist(),
    }
    prefix = (re.escape("levels entry 0 (window length 128, depth 7): ")
              if call in ("MethodConfig.check", "extract_features") else "")
    with monkeypatch.context() as m:
        m.setattr(estimators, "packet_cascade", None)  # no transform runs
        with pytest.raises(ConfigurationError, match=f"^{prefix}{message}$"):
            calls[call](levels)
    assert calls[call]([np.int64(6), np.int32(5)]) == calls[call]([5, 6])


def test_constant_signal_drops_all_points_then_fit_fails():
    f = make_filter("haar")
    tree = wpd_full(np.full(64, 5.0), f, 6)
    with pytest.warns(RuntimeWarning):
        pts = spectrum_dwt(tree)
    assert pts == []
    with pytest.raises(EstimationError):
        fit_slope(pts)


def _population_slope(method, hurst, levels, n_reps=200, n=512, seed=100):
    """Slope of rep-averaged level energies; the Monte-Carlo oracle for
    the population energy decay, free of per-signal log noise."""
    f = make_filter("haar")
    energies = {j: [] for j in levels}
    for rep in range(n_reps):
        x = fbm_from_fgn(fgn_sample(FbmSpec(hurst, n, seed + rep)))
        tree = wpd_full(x, f, 9)
        for j in levels:
            if method == "dwt":
                node = tree.coeffs(j, 1)
                energies[j].append(np.mean(node ** 2))
            else:
                det = tree.levels[tree.data_level - j][1::2]
                energies[j].append(np.mean(np.mean(det ** 2, axis=1)))
    pts = [SpectrumPoint(j, np.log2(np.mean(v))) for j, v in energies.items()]
    return fit_slope(pts).slope


def test_dwt_population_slope_tracks_2h_plus_1():
    # detail energies of fBm decay like 2**(-(2H+1) j); mid-tree levels
    # sit close to the asymptotic law (fine levels flatten for small H
    # because discrete sampling breaks scaling below the sample spacing)
    for hurst in (0.3, 0.5, 0.7):
        slope = _population_slope("dwt", hurst, levels=[2, 3, 4, 5, 6])
        assert slope == pytest.approx(-(2 * hurst + 1), abs=0.08)


def test_wang_population_slope_tracks_2h():
    for hurst in (0.3, 0.5, 0.7):
        slope = _population_slope("wang", hurst, levels=[3, 4, 5, 6, 7])
        assert slope == pytest.approx(-2 * hurst, abs=0.05)


# ------------------------------------------------------------------ jones

def test_rank_size_fit_exact_power_law():
    ranks = np.arange(1, 513, dtype=float)
    for exponent, expected_h in ((-1.5, 0.5), (-2.0, 1.0)):
        fit = rank_size_fit(ranks ** exponent)
        assert fit.slope == pytest.approx(exponent, abs=1e-12)
        assert abs(fit.slope + 1.0) == pytest.approx(expected_h, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_rank_size_fit_order_and_zero_handling():
    values = np.arange(1, 101, dtype=float) ** -1.5
    shuffled = np.random.default_rng(0).permutation(values)
    fit = rank_size_fit(np.concatenate([shuffled, np.zeros(28)]))
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert fit.n_points == 100  # exact zeros excluded


def test_hurst_jones_on_hand_built_tree():
    # depth-1 tree with an exact power-law detail node and a zero approx
    # node: the basis keeps the split and the fit sees the power law
    f = make_filter("symmlet4")
    n = 1024
    detail = np.arange(1, n // 2 + 1, dtype=float) ** -1.5
    approx = np.zeros(n // 2)
    root = synthesis_step(approx, detail, f)
    tree = PacketTree(depth=1, data_level=10,
                      levels=(root[None, :], np.vstack([approx, detail])))
    d = scaling_descriptor("jones", tree)
    assert d.slope == pytest.approx(-1.5, abs=1e-12)
    assert d.hurst == pytest.approx(0.5, abs=1e-12)


def test_jones_needs_nonzero_coefficients():
    f = make_filter("symmlet4")
    tree = wpd_full(np.zeros(16), f, 2)
    with pytest.raises(EstimationError):
        scaling_descriptor("jones", tree)


def test_jones_runs_on_fbm_window():
    f = make_filter("symmlet4")
    x = fbm_from_fgn(fgn_sample(FbmSpec(0.5, 1024, 42)))
    d = scaling_descriptor("jones", wpd_full(x, f, 9))
    assert d.method == "jones"
    assert 0.0 <= d.hurst <= 1.5
    assert d.fit.n_points == 1024  # real-valued coefficients, none dropped


# -------------------------------------------------- amplitude invariance

@pytest.mark.parametrize("method", ["dwt", "wang", "jones"])
def test_slopes_invariant_under_positive_scaling(method):
    family = "symmlet4" if method == "jones" else "haar"
    f = make_filter(family)
    x = fbm_from_fgn(fgn_sample(FbmSpec(0.6, 256, 7)))
    depth = 7 if method == "jones" else 8
    for a in (0.01, 3.0, 1e4):
        d0 = scaling_descriptor(method, wpd_full(x, f, depth))
        d1 = scaling_descriptor(method, wpd_full(a * x, f, depth))
        assert d1.slope == pytest.approx(d0.slope, abs=1e-9)
        assert d1.hurst == pytest.approx(d0.hurst, abs=1e-9)


def test_scaling_descriptor_rejects_unknown_method():
    f = make_filter("haar")
    tree = wpd_full(np.ones(8), f, 3)
    with pytest.raises(ConfigurationError):
        scaling_descriptor("rs", tree)


# ------------------------------------------------- default decomposition

@pytest.mark.parametrize("method", ["dwt", "wang", "jones"])
@pytest.mark.parametrize("length", [64, 128, 256, 512, 1024, 2048, 4096])
def test_default_decomposition_is_one_rule(tmp_path, monkeypatch, method,
                                           length):
    """Every caller that decomposes without an explicit family or depth
    uses the method's rule at the actual signal length: Haar at full depth
    for dwt and wang, symmlet4 one level short for jones."""
    import wavescale.fbm as fbm
    import wavescale.pipeline as pipeline
    from wavescale import (extract_features, make_windows,
                           run_estimator_benchmark, two_class_fbm_dataset)
    from wavescale.config import load_run_config

    J = length.bit_length() - 1
    want = ("symmlet4", J - 1) if method == "jones" else ("haar", J)
    used = {}
    for module in (fbm, pipeline):
        def spy(m, rows, f, depth, *args, _real=module.descriptor_rows,
                _name=module.__name__):
            used.setdefault(_name, set()).add((f.family, depth))
            return _real(m, rows, f, depth, *args)

        monkeypatch.setattr(module, "descriptor_rows", spy)

    run_estimator_benchmark([0.5], 2, length, [method])
    ds = two_class_fbm_dataset(n_per_class=1, n_bins=length, seed=1)
    extract_features(ds, method, make_windows(length, length, length))
    assert used == {"wavescale.fbm": {want}, "wavescale.pipeline": {want}}

    flags, _, _ = pipeline.extract_settings(method, window_len=length,
                                            stride_source="stride")
    for name in ("m.csv", "l.csv"):
        (tmp_path / name).write_text("", encoding="utf-8")  # never read
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"dataset: {{matrix: {tmp_path / 'm.csv'}, labels: "
                   f"{tmp_path / 'l.csv'}}}\nmethod: {method}\n"
                   f"window: {{length: {length}}}\n", encoding="utf-8")
    config = load_run_config(cfg).method_config
    assert ((flags.family, flags.depth) == (config.family, config.depth)
            == want)

    assert default_decomposition(method, length) == want
