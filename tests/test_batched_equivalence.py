"""The row-batched transform, best basis, estimators and line fits against
the former per-window, per-node, per-row path kept in ``oracles``."""

import re
import warnings

import numpy as np
import pytest

from oracles import (
    _reference_ols,
    packet_basis_vector,
    reference_best_basis,
    reference_extract_slopes,
    reference_fit,
    reference_wpd_levels,
)
from wavescale import (
    ConfigurationError,
    EstimationError,
    MethodConfig,
    SpectraDataset,
    best_basis,
    extract_features,
    make_filter,
    make_windows,
    scaling_descriptor,
    two_class_fbm_dataset,
    wpd_full,
)
from wavescale.estimators import resolve_levels

PLAN = ((1, 2, (0, 1, 2, 5)), (3, 4, (1, 2, 3, 4, 5, 6, 7, 8, 9)))
CONFIGS = {
    "dwt": MethodConfig("dwt", 1024, "haar", 10),
    "dwt-plan": MethodConfig("dwt", 1024, "haar", 10, PLAN),
    "wang": MethodConfig("wang", 1024, "haar", 10),
    "wang-plan": MethodConfig("wang", 1024, "haar", 10, PLAN),
    "jones": MethodConfig("jones", 1024, "symmlet4", 9),
}


@pytest.fixture(scope="module")
def fbm_dataset():
    return two_class_fbm_dataset(n_per_class=3, n_bins=2600, seed=8)


def _run(fn):
    """fn()'s result or error text, and the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn()
        except EstimationError as exc:
            out = str(exc)
    return out, [str(w.message) for w in caught]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fbm_slopes_bitwise_equal_to_per_window_path(fbm_dataset, name,
                                                     threads):
    method, cfg = name.split("-")[0], CONFIGS[name]
    grid = make_windows(fbm_dataset.n_bins, 1024, 500)
    assert grid.count == 4
    got = extract_features(fbm_dataset, method, grid, cfg, threads=threads)
    want = reference_extract_slopes(fbm_dataset, method, grid, cfg)
    assert got.slopes.tobytes() == want.tobytes()


def _degenerate_rows(n=1024):
    rng = np.random.default_rng(4)
    step = np.where(np.arange(n) < 384, 1.0, 2.5)  # zero fine-level details
    sparse = np.zeros(n)
    sparse[rng.choice(n, 40, replace=False)] = rng.standard_normal(40)
    half_zero = np.concatenate([np.zeros(n // 2), rng.standard_normal(n // 2)])
    return [step, sparse + step, half_zero, step * sparse]


def _dataset(rows):
    return SpectraDataset(
        intensities=np.vstack([np.concatenate(r) for r in rows]),
        labels=np.array([i % 2 for i in range(len(rows))], dtype=np.int8),
        sample_ids=tuple(f"s{i}" for i in range(len(rows))))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_degenerate_windows_match_per_window_path(name):
    method, cfg = name.split("-")[0], CONFIGS[name]
    step, mixed, half_zero, spiky = _degenerate_rows()
    ds = _dataset([[step, mixed, half_zero, spiky],
                   [spiky, half_zero, step, mixed]])
    grid = make_windows(ds.n_bins, 1024, 1024)
    got, got_warned = _run(lambda: extract_features(ds, method, grid, cfg,
                                                    threads=1).slopes)
    want, want_warned = _run(
        lambda: reference_extract_slopes(ds, method, grid, cfg))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert len(got_warned) == len(want_warned)
    if method != "jones":
        assert got_warned  # the step windows drop their fine levels


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("bad", ["constant", "zeros"])
def test_failed_window_error_matches_per_window_path(name, bad):
    method, cfg = name.split("-")[0], CONFIGS[name]
    step, mixed, _, _ = _degenerate_rows()
    fill = np.full(1024, 3.0) if bad == "constant" else np.zeros(1024)
    ds = _dataset([[step, mixed, step, mixed], [mixed, step, fill, step]])
    grid = make_windows(ds.n_bins, 1024, 1024)
    got, got_warned = _run(lambda: extract_features(ds, method, grid, cfg,
                                                    threads=1))
    want, want_warned = _run(
        lambda: reference_extract_slopes(ds, method, grid, cfg))
    if isinstance(want, str):
        assert got == want
        assert "'s1', window 3" in got
    else:
        np.testing.assert_allclose(got.slopes, want, rtol=0, atol=1e-12)
    assert len(got_warned) == len(want_warned)


@pytest.mark.parametrize("tag", ["ovarian-4-3-02", "ovarian-8-7-02"])
@pytest.mark.parametrize("method", ["dwt", "wang"])
def test_stored_plans_match_full_depth_extraction(monkeypatch, method, tag):
    """A stored plan reads levels 5..9 of 1024-point windows, so the
    cascade stops at depth 10 - 5; slopes and zero-energy warnings are
    those of the full depth-10 decomposition."""
    import wavescale.estimators as estimators

    ds = two_class_fbm_dataset(n_per_class=2, n_bins=1024 + 28 * 64, seed=6)
    x = ds.intensities.copy()
    x[1] = np.repeat(x[1, ::2], 2)  # pairwise constant: level 9 is zero
    ds = SpectraDataset(intensities=x, labels=ds.labels,
                        sample_ids=ds.sample_ids)
    grid = make_windows(ds.n_bins, 1024, 64)
    assert grid.count == 29  # every window of both plan groups
    cfg = MethodConfig(method, dataset_tag=tag)
    assert cfg.depth == 10
    depths, cascade = [], estimators.packet_cascade

    def spy(rows, f, depth, **kwargs):
        depths.append(depth)
        return cascade(rows, f, depth, **kwargs)

    monkeypatch.setattr(estimators, "packet_cascade", spy)
    got, got_warned = _run(lambda: extract_features(ds, method, grid, cfg)
                           .slopes)
    want, want_warned = _run(
        lambda: reference_extract_slopes(ds, method, grid, cfg))
    assert set(depths) == {10 - min(j for _, _, lv in cfg.level_plan
                                    for j in lv)}
    assert got.tobytes() == want.tobytes()
    assert got_warned == want_warned and got_warned


def _spy_cascade_depths(monkeypatch):
    import wavescale.estimators as estimators

    depths, cascade = [], estimators.packet_cascade

    def spy(rows, f, depth, **kwargs):
        depths.append(depth)
        return cascade(rows, f, depth, **kwargs)

    monkeypatch.setattr(estimators, "packet_cascade", spy)
    return estimators.descriptor_rows, depths


@pytest.mark.parametrize("method, sets, cascade_depth", [
    ("wang", [(7, 9), (8, 9)], 3),
    ("dwt", [(9, 8), (8, 9)], 2),
    ("wang", [(7, 9), None], 4),  # a row without a request reads every level
    ("jones", [None, None], 4),  # the best basis searches every level
    ("jones", [(8, 9), (8, 9)], None),  # and takes no request
    ("wang", [(8, 9), (8, 8.5)], None),
    ("dwt", [(8, 9), ()], None),
])
def test_scaling_descriptors_stop_at_the_deepest_requested_level(
        monkeypatch, method, sets, cascade_depth):
    """The kernel, given each row's request as ``resolve_levels`` returns
    it against the full depth, runs one cascade to the deepest level any
    row reads and fits each row as the one-tree call does.  A cascade
    depth of None: ``resolve_levels`` refuses a request as the one-tree
    call refuses it, so the kernel never runs."""
    descriptor_rows, depths = _spy_cascade_depths(monkeypatch)
    rows = np.random.default_rng(3).standard_normal((2, 1024)).cumsum(axis=1)
    f = make_filter("haar")
    if cascade_depth is None:
        with pytest.raises(ConfigurationError) as refused:
            for r, s in zip(rows, sets):
                scaling_descriptor(method, wpd_full(r, f, 4), s)
        with pytest.raises(ConfigurationError,
                           match=f"^{re.escape(str(refused.value))}$"):
            [resolve_levels(method, s, 6, 9) for s in sets]
        return
    fits = descriptor_rows(method, rows, f, 4,
                           [resolve_levels(method, s, 6, 9) for s in sets])
    got = list(zip(fits.slope.tolist(), fits.hurst.tolist()))
    want = [(d.slope, d.hurst) for d in (
        scaling_descriptor(method, wpd_full(r, f, 4), s)
        for r, s in zip(rows, sets))]
    assert depths == [cascade_depth]
    assert got == want


def test_scaling_descriptors_keep_full_depth_for_a_missing_level(monkeypatch):
    """A requested level outside the decomposed ones is reported against
    every level ``depth`` produces, by the one-tree call and by
    ``resolve_levels`` alike, so the kernel never runs a cascade."""
    tree = wpd_full(np.ones(1024), make_filter("haar"), 4)
    _, depths = _spy_cascade_depths(monkeypatch)
    refusal = r"^level 5 outside the decomposed levels 6\.\.9$"
    with pytest.raises(ConfigurationError, match=refusal):
        scaling_descriptor("dwt", tree, (5, 9))
    with pytest.raises(ConfigurationError, match=refusal):
        [resolve_levels("dwt", s, 6, 9) for s in [(5, 9), (8,)]]
    assert depths == []


def _trees_with_zero_subtrees():
    f = make_filter("symmlet4")
    haar = make_filter("haar")
    rng = np.random.default_rng(12)
    noise = rng.standard_normal(64)
    yield haar, np.full(64, 1.3), 6
    yield haar, np.zeros(64), 6
    yield haar, np.concatenate([np.zeros(32), noise[:32]]), 6
    yield haar, np.repeat(noise[:8], 8), 6  # detail subtrees vanish
    yield f, packet_basis_vector(f, 64, 3, 5), 5
    yield f, packet_basis_vector(f, 64, 2, 1) + packet_basis_vector(
        f, 64, 4, 2), 6
    yield f, noise, 6


def test_best_basis_matches_per_node_path_on_zero_subtrees():
    for f, x, depth in _trees_with_zero_subtrees():
        sel = best_basis(wpd_full(x, f, depth))
        nodes, total = reference_best_basis(
            reference_wpd_levels(x, f, depth), 6)
        assert sel.nodes == nodes
        assert sel.total_cost == pytest.approx(total, rel=0, abs=1e-12)


# ------------------------------------------------------------ line fits

def test_row_reductions_bitwise_equal_to_one_row_calls():
    """The grouped line fit relies on three reductions taking each row of
    a C-ordered (rows, n) array in the order a one-row call does: the row
    means, the stacked matmul (not the gemv form ``dy @ dx``) and the
    elementwise log.  A numpy build whose order differs fails here."""
    rng = np.random.default_rng(26)
    for n in range(2, 1025):
        xs = np.log(np.arange(1.0, n + 1))
        ys = rng.standard_normal((4, n)) * 10.0 ** rng.integers(-3, 4)
        dx = xs - xs.mean()
        ym = ys.mean(axis=1)
        dy = ys - ym[:, None]
        sxy = np.matmul(dy[:, None, :], dx[None, :, None])[:, 0, 0]
        syy = np.matmul(dy[:, None, :], dy[:, :, None])[:, 0, 0]
        logs = np.log(np.abs(ys))
        for r, row in enumerate(ys):
            row = row.copy()
            assert ym[r] == row.mean(), n
            d = row - row.mean()
            assert sxy[r] == np.dot(dx, d) and syy[r] == np.dot(d, d), n
            assert logs[r].tobytes() == np.log(np.abs(row)).tobytes(), n


def test_line_fits_bitwise_equal_to_one_row_fits_at_every_width():
    from wavescale.estimators import _TOO_FEW_COEFFS, _line_fits

    rng = np.random.default_rng(27)
    for n in range(2, 1025):
        xs = np.log(np.arange(1.0, n + 1))
        ys = np.log(np.abs(rng.standard_normal((3, n))))
        fits = _line_fits([(np.arange(3), xs, ys)], _TOO_FEW_COEFFS, [()] * 3)
        got = np.column_stack([fits.slope, fits.intercept, fits.r_squared])
        want = np.array([[s, i, r2] for s, i, _, r2 in (
            _reference_ols(xs, row.copy()) for row in ys)])
        assert got.tobytes() == want.tobytes(), n
        assert fits.n_points.tolist() == [n] * 3


def _window_rows(ds, stride, cfg):
    """Every window of ``ds`` as one row, and each row's resolved level
    set: its plan entry's, else every decomposed level."""
    grid = make_windows(ds.n_bins, 1024, stride)
    rows = np.vstack([ds.intensities[s, lo:hi] for s in range(ds.n_samples)
                      for lo, hi in grid.windows])
    every = tuple(range(10 - cfg.depth, 10))
    sets = [cfg.levels_for(w + 1) or every
            for _ in range(ds.n_samples) for w in range(grid.count)]
    return rows, sets


@pytest.mark.parametrize("rows_of", ["fbm", "degenerate"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_line_fit_arrays_bitwise_equal_to_per_row_fits(fbm_dataset, name,
                                                       rows_of):
    """Slope, intercept, r² and point count of every row equal the former
    one-row fit's bit for bit; a failed row holds that fit's error, and
    the zero-energy warnings come in the same order."""
    from wavescale.estimators import descriptor_rows

    method, cfg = name.split("-")[0], CONFIGS[name]
    if rows_of == "fbm":
        rows, sets = _window_rows(fbm_dataset, 500, cfg)
    else:
        step, mixed, half_zero, spiky = _degenerate_rows()
        rows, sets = _window_rows(_dataset(
            [[step, mixed, half_zero, spiky],
             [np.full(1024, 3.0), np.zeros(1024), spiky, step]]), 1024, cfg)
    f = make_filter(cfg.family)
    fits, at_fit = _run(lambda: descriptor_rows(
        method, rows, f, cfg.depth, sets))
    errors, got_warned = _run(lambda: list(fits.row_errors()))
    assert at_fit == []  # a row warns as row_errors reaches it
    want_warned = []
    for r, (row, levels) in enumerate(zip(rows, sets)):
        want, warned = _run(lambda: reference_fit(method, row, f, cfg.depth,
                                                  levels))
        want_warned += warned
        if isinstance(want, str):
            assert str(errors[r]) == want
            continue
        assert errors[r] is None
        slope, intercept, n_points, r2 = want
        assert fits.n_points[r] == n_points
        assert (np.array([fits.slope[r], fits.intercept[r],
                          fits.r_squared[r]]).tobytes()
                == np.array([slope, intercept, r2]).tobytes())
    assert got_warned == want_warned
    if rows_of == "degenerate":
        assert any(errors) and (method == "jones" or got_warned)
