"""The row-batched transform, best basis and estimators against the former
per-window, per-node path kept in ``oracles``."""

import warnings

import numpy as np
import pytest

from oracles import (
    packet_basis_vector,
    reference_best_basis,
    reference_extract_slopes,
    reference_wpd_levels,
)
from wavescale import (
    EstimationError,
    MethodConfig,
    SpectraDataset,
    best_basis,
    extract_features,
    make_filter,
    make_windows,
    two_class_fbm_dataset,
    wpd_full,
)

PLAN = ((1, 2, (0, 1, 2, 5)), (3, 4, (1, 2, 3, 4, 5, 6, 7, 8, 9)))
CONFIGS = {
    "dwt": MethodConfig("haar", 10),
    "dwt-plan": MethodConfig("haar", 10, PLAN),
    "wang": MethodConfig("haar", 10),
    "wang-plan": MethodConfig("haar", 10, PLAN),
    "jones": MethodConfig("symmlet4", 9),
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
