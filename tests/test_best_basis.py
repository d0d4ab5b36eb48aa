import numpy as np
import pytest

from oracles import enumerate_covers, min_cover_cost, packet_basis_vector
from wavescale import (
    PacketTree,
    basis_coefficients,
    best_basis,
    make_filter,
    shannon_cost,
    wpd_full,
)


# ----------------------------------------------------------- shannon_cost

def test_unit_vector_costs_nothing():
    assert shannon_cost(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0


def test_flat_vector_cost_ln4():
    cost = shannon_cost(np.array([0.5, 0.5, 0.5, 0.5]))
    assert cost == pytest.approx(np.log(4.0), rel=1e-12)


def test_zero_vector_cost_zero():
    assert shannon_cost(np.zeros(2)) == 0.0


def test_cost_nonnegative_for_unit_energy():
    # for vectors with ||x|| <= 1 every energy is <= 1, so -e*ln(e) >= 0
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(16)
        x /= np.linalg.norm(x)
        assert shannon_cost(x) >= 0.0


# ------------------------------------------------------------- best_basis

def test_cover_count_depth3():
    assert len(enumerate_covers(3)) == 26


def _assert_is_cover(tree, selection):
    # every leaf of the full tree has exactly one selected ancestor-or-self
    depth = tree.depth
    J = tree.data_level
    leaves = np.zeros(2 ** depth, dtype=int)
    for j, n in selection.nodes:
        d = J - j
        span = 2 ** (depth - d)
        leaves[n * span:(n + 1) * span] += 1
    assert (leaves == 1).all()


@pytest.mark.parametrize("family", ["haar", "symmlet4"])
@pytest.mark.parametrize("n", [8, 16])
def test_optimality_against_enumeration(family, n):
    rng = np.random.default_rng(n * 7)
    f = make_filter(family)
    depth = n.bit_length() - 1
    for _ in range(250):
        x = rng.standard_normal(n) * rng.choice([0.1, 1.0, 10.0])
        tree = wpd_full(x, f, depth)
        sel = best_basis(tree)
        _assert_is_cover(tree, sel)
        brute = min_cover_cost(tree, shannon_cost)
        assert sel.total_cost == pytest.approx(brute, abs=1e-12, rel=1e-12)
        direct = sum(shannon_cost(tree.coeffs(j, m)) for j, m in sel.nodes)
        assert sel.total_cost == pytest.approx(direct, abs=1e-9)


def test_constant_signal_selection_is_minimal():
    f = make_filter("haar")
    tree = wpd_full(np.full(8, 1.3), f, 3)
    sel = best_basis(tree)
    _assert_is_cover(tree, sel)
    assert sel.total_cost == pytest.approx(
        min_cover_cost(tree, shannon_cost), abs=1e-12)
    # tie rule: zero-cost subtrees collapse to their topmost node rather
    # than a pile of zero leaves (parent kept on cost ties)
    assert (2, 1) in sel.nodes
    assert (0, 2) not in sel.nodes and (0, 3) not in sel.nodes


def test_single_packet_signal_selected_exactly():
    # a signal equal to one packet basis function concentrates its energy
    # in a single unit coefficient, so that node (cost 0) must be kept
    f = make_filter("symmlet4")
    for (j, n) in [(1, 1), (1, 2), (2, 3), (0, 5)]:
        x = packet_basis_vector(f, 16, j, n)
        tree = wpd_full(x, f, 4)
        sel = best_basis(tree)
        assert (j, n) in sel.nodes
        coeff = tree.coeffs(j, n)
        idx = int(np.argmax(np.abs(coeff)))
        assert coeff[idx] == pytest.approx(1.0, abs=1e-10)
        assert sel.total_cost <= 1e-10


def test_depth_zero_tree_returns_root():
    x = np.arange(4.0)
    tree = PacketTree(depth=0, data_level=2, levels=(x[None, :],))
    sel = best_basis(tree)
    assert sel.nodes == ((2, 0),)
    assert sel.total_cost == pytest.approx(shannon_cost(x))


def test_cost_evaluated_once_per_node(monkeypatch):
    # the bottom-up search is linear in the node count: the level-cost
    # kernel sees every node of the table exactly once
    import importlib
    bb = importlib.import_module("wavescale.best_basis")
    seen = []
    real = bb._level_costs

    def counting(nodes):
        seen.extend(map(tuple, nodes))
        return real(nodes)

    monkeypatch.setattr(bb, "_level_costs", counting)
    f = make_filter("haar")
    tree = wpd_full(np.random.default_rng(2).standard_normal(16), f, 4)
    best_basis(tree)
    assert len(seen) == sum(2 ** d for d in range(5))
    assert sorted(seen) == sorted(tuple(row) for lv in tree.levels
                                  for row in lv)


def test_basis_coefficients_cover_all_n():
    rng = np.random.default_rng(0)
    f = make_filter("haar")
    x = rng.standard_normal(64)
    tree = wpd_full(x, f, 6)
    sel = best_basis(tree)
    c = basis_coefficients(tree, sel)
    assert len(c) == 64
    # orthonormal basis change preserves energy
    assert np.dot(c, c) == pytest.approx(np.dot(x, x), rel=1e-9)
