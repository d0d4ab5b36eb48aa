import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import periodic_analysis_direct, reference_analysis_rows
from wavescale import (
    ConfigurationError,
    ShapeError,
    analysis_step,
    dwt_forward,
    make_filter,
    synthesis_step,
    wpd_full,
)
from wavescale.wavelets import _analysis_rows

SQRT2 = np.sqrt(2.0)
FAMILIES = ("haar", "symmlet4")


# ---------------------------------------------------------------- filters

@pytest.mark.parametrize("family", FAMILIES)
def test_filter_invariants(family):
    f = make_filter(family)
    assert abs(f.low.sum() - SQRT2) < 1e-12
    assert abs(np.dot(f.low, f.low) - 1.0) < 1e-12
    L = f.length
    for m in range(1, L // 2):
        assert abs(np.dot(f.low[: L - 2 * m], f.low[2 * m:])) < 1e-12
    # quadrature-mirror relation
    for k in range(L):
        assert f.high[k] == pytest.approx((-1.0) ** k * f.low[L - 1 - k],
                                          abs=0.0)


def test_haar_taps_exact():
    f = make_filter("haar")
    np.testing.assert_allclose(f.low, [1 / SQRT2, 1 / SQRT2])
    np.testing.assert_allclose(f.high, [1 / SQRT2, -1 / SQRT2])


def test_symmlet4_has_eight_taps():
    f = make_filter("symmlet4")
    assert f.length == 8


def test_unknown_family_rejected():
    with pytest.raises(ConfigurationError):
        make_filter("db99")


# ---------------------------------------------------------- analysis step

def test_constant_signal_kills_high_pass():
    f = make_filter("haar")
    approx, detail = analysis_step(np.full(4, 3.0), f)
    np.testing.assert_allclose(approx, [3 * SQRT2, 3 * SQRT2])
    np.testing.assert_allclose(detail, [0.0, 0.0], atol=1e-15)


def test_alternating_signal_haar():
    # detail_k = (x[2k] - x[2k+1]) / sqrt(2) with the pinned indexing
    f = make_filter("haar")
    approx, detail = analysis_step(np.array([1.0, -1.0, 1.0, -1.0]), f)
    np.testing.assert_allclose(approx, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(detail, [SQRT2, SQRT2])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [4, 8, 64])
def test_analysis_matches_direct_convolution(family, n):
    rng = np.random.default_rng(42)
    f = make_filter(family)
    x = rng.standard_normal(n)
    approx, detail = analysis_step(x, f)
    a2, d2 = periodic_analysis_direct(x, f.low, f.high)
    np.testing.assert_allclose(approx, a2, atol=1e-12)
    np.testing.assert_allclose(detail, d2, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [2, 4, 8, 16, 1024])
@pytest.mark.parametrize("n_rows", [1, 33])
def test_strided_step_equals_gather_step_bitwise(family, n, n_rows):
    # lengths up to the 8-tap filter's make the periodic extension wrap
    # more than once; signed zeros check that the sums start alike
    f = make_filter(family)
    rng = np.random.default_rng(1000 * n + n_rows)
    level = rng.standard_normal((n_rows, 4, n))
    level[:, :, ::5] = 0.0
    level[:, :, n // 4:n // 2] = -0.0
    pyramid_view = level[:, :1].reshape(n_rows, n)  # as packet_cascade has it
    assert n_rows == 1 or not pyramid_view.flags.c_contiguous
    for rows in (level[:, 1].copy(), pyramid_view):
        got = _analysis_rows(rows, f)
        want = reference_analysis_rows(rows, f)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (n_rows, n // 2)
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_analysis_step_preserves_energy(family):
    rng = np.random.default_rng(7)
    f = make_filter(family)
    x = rng.standard_normal(32)
    approx, detail = analysis_step(x, f)
    assert np.dot(approx, approx) + np.dot(detail, detail) == pytest.approx(
        np.dot(x, x), rel=1e-12)


def test_odd_length_rejected():
    f = make_filter("haar")
    with pytest.raises(ShapeError):
        analysis_step(np.zeros(5), f)


@pytest.mark.parametrize("family", FAMILIES)
def test_perfect_reconstruction(family):
    rng = np.random.default_rng(11)
    f = make_filter(family)
    for n in (4, 16, 64):
        x = rng.standard_normal(n)
        approx, detail = analysis_step(x, f)
        np.testing.assert_allclose(synthesis_step(approx, detail, f), x,
                                   atol=1e-10)


# ------------------------------------------------------------------- dwt

def test_dwt_constant_signal_all_details_zero():
    f = make_filter("haar")
    dec = dwt_forward(np.full(16, 2.5), f, depth=4)
    for d in dec.details.values():
        np.testing.assert_allclose(d, 0.0, atol=1e-12)
    assert len(dec.approx) + sum(len(d) for d in dec.details.values()) == 16


@pytest.mark.parametrize("family", FAMILIES)
def test_dwt_parseval(family):
    rng = np.random.default_rng(3)
    f = make_filter(family)
    x = rng.standard_normal(64)
    dec = dwt_forward(x, f, depth=6)
    total = np.dot(dec.approx, dec.approx) + sum(
        np.dot(d, d) for d in dec.details.values())
    assert total == pytest.approx(np.dot(x, x), rel=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_dwt_equals_packet_tree_nodes_bitwise(family):
    rng = np.random.default_rng(5)
    f = make_filter(family)
    x = rng.standard_normal(64)
    depth = 6
    dec = dwt_forward(x, f, depth)
    tree = wpd_full(x, f, depth)
    # same arithmetic path, so equality is exact
    assert np.array_equal(dec.approx, tree.coeffs(6 - depth, 0))
    for j, d in dec.details.items():
        assert np.array_equal(d, tree.coeffs(j, 1))


def test_dwt_rejects_non_dyadic():
    f = make_filter("haar")
    with pytest.raises(ShapeError):
        dwt_forward(np.zeros(12), f, 2)


def test_dwt_rejects_bad_depth():
    f = make_filter("haar")
    with pytest.raises(ConfigurationError):
        dwt_forward(np.zeros(8), f, 4)


# ------------------------------------------------------------------- wpd

def test_wpd_level_shapes():
    f = make_filter("haar")
    tree = wpd_full(np.arange(8.0), f, 3)
    assert tree.data_level == 3
    for d in range(4):
        assert tree.levels[d].shape == (2 ** d, 8 // 2 ** d)


def test_wpd_constant_only_approx_chain_nonzero():
    f = make_filter("haar")
    tree = wpd_full(np.ones(8), f, 3)
    for j in (2, 1, 0):
        lev = tree.levels[tree.data_level - j]
        assert abs(lev[0]).max() > 0
        np.testing.assert_allclose(lev[1:], 0.0, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [8, 64, 1024])
def test_wpd_parseval_per_level(family, n):
    rng = np.random.default_rng(n)
    f = make_filter(family)
    x = rng.standard_normal(n)
    depth = n.bit_length() - 1
    tree = wpd_full(x, f, depth)
    energy = np.dot(x, x)
    for lev in tree.levels:
        assert np.sum(lev * lev) == pytest.approx(energy, rel=1e-9)


def test_wpd_full_depth_1024_runs():
    f = make_filter("haar")
    x = np.random.default_rng(0).standard_normal(1024)
    tree = wpd_full(x, f, 10)
    assert tree.levels[10].shape == (1024, 1)


def test_wpd_depth_errors():
    f = make_filter("haar")
    with pytest.raises(ConfigurationError):
        wpd_full(np.zeros(8), f, 4)
    with pytest.raises(ConfigurationError):
        wpd_full(np.zeros(8), f, 0)
    with pytest.raises(ShapeError):
        wpd_full(np.zeros(10), f, 2)


def test_node_child_relation():
    rng = np.random.default_rng(9)
    f = make_filter("symmlet4")
    x = rng.standard_normal(32)
    tree = wpd_full(x, f, 5)
    for j in range(5, 0, -1):
        for n in range(2 ** (5 - j)):
            approx, detail = analysis_step(tree.coeffs(j, n), f)
            np.testing.assert_allclose(tree.coeffs(j - 1, 2 * n), approx,
                                       atol=1e-12)
            np.testing.assert_allclose(tree.coeffs(j - 1, 2 * n + 1), detail,
                                       atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=16,
                max_size=16))
def test_parseval_property(values):
    f = make_filter("symmlet4")
    x = np.array(values)
    tree = wpd_full(x, f, 4)
    energy = float(np.dot(x, x))
    for lev in tree.levels:
        assert np.sum(lev * lev) == pytest.approx(energy, rel=1e-9, abs=1e-9)
