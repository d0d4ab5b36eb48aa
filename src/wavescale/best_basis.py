"""Entropy-minimal basis selection over a wavelet packet tree.

The additive cost is the non-normalized Shannon entropy of a coefficient
vector.  A bottom-up scan touches each node a constant number of times and
returns the cheapest set of nodes that tiles the signal axis exactly once
(a disjoint dyadic cover, hence an orthonormal basis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wavelets import PacketTree


@dataclass(frozen=True)
class BasisSelection:
    """Nodes of a disjoint dyadic cover plus its total cost.

    ``nodes`` are (level, index) pairs; together they hold exactly N
    coefficients.
    """

    nodes: tuple
    total_cost: float


def _level_costs(nodes: np.ndarray) -> np.ndarray:
    """Shannon cost of every row of a (nodes, m) matrix in one pass.

    Zero energies are masked out of the logarithm, so they add exactly 0.
    Each row reduces on its own, so a row's cost does not depend on how
    many rows are costed together.
    """
    e = nodes * nodes
    terms = e * np.log(e, out=np.zeros_like(e), where=e > 0.0)
    return 0.0 - terms.sum(axis=1)  # 0.0 - keeps an all-zero cost at +0.0


def shannon_cost(x: np.ndarray) -> float:
    """Non-normalized Shannon entropy, -sum(x_i^2 * ln(x_i^2)).

    Zero entries contribute nothing (the 0*ln 0 := 0 convention), so the
    cost of an all-zero vector is 0.  Small when energy is concentrated in
    few coefficients; can be negative when individual energies exceed 1.
    """
    return float(_level_costs(np.asarray(x, dtype=float).reshape(1, -1))[0])


def best_basis_rows(levels) -> tuple:
    """Minimal-cost dyadic covers of R packet tables at once.

    ``levels[d]`` is the (R, 2**d, m) array of depth-d nodes of every table
    (as ``packet_cascade`` yields them, preceded by the (R, 1, N) inputs).
    Each level is costed by one ``_level_costs`` call.  Bottom-up marking:
    every bottom node starts marked; a parent is marked when its own cost
    does not exceed the best combined cost of its children (ties keep the
    parent, preferring fewer, coarser nodes), otherwise it inherits the
    children's combined cost.  The topmost marked nodes form the selection.

    Returns a (R, 2**d) boolean mask of selected nodes per depth and the
    (R,) minimal total costs.
    """
    costs = [_level_costs(lv.reshape(-1, lv.shape[2])).reshape(lv.shape[:2])
             for lv in levels]
    best = costs[-1]
    marked = [np.ones(best.shape, dtype=bool)]
    for cost in costs[-2::-1]:
        combined = best[:, 0::2] + best[:, 1::2]
        marked.insert(0, cost <= combined)
        best = np.where(marked[0], cost, combined)
    selected = []
    covered = np.zeros(best.shape, dtype=bool)
    for mark in marked:
        selected.append(mark & ~covered)
        covered = np.repeat(covered | mark, 2, axis=1)
    return selected, best[:, 0]


def best_basis(tree: PacketTree) -> BasisSelection:
    """Minimal-cost dyadic cover of the packet table.

    The one-table call of ``best_basis_rows``; its total cost is minimal
    over all admissible covers.  A tree of depth 0 selects the root
    trivially.
    """
    selected, total = best_basis_rows([lv[None] for lv in tree.levels])
    nodes = tuple((tree.data_level - d, int(n))
                  for d, mask in enumerate(selected)
                  for n in np.flatnonzero(mask[0]))
    return BasisSelection(nodes=nodes, total_cost=float(total[0]))


def basis_coefficients(tree: PacketTree, selection: BasisSelection) -> np.ndarray:
    """Concatenate the selected nodes' coefficients (selection order)."""
    return np.concatenate([tree.coeffs(j, n) for j, n in selection.nodes])
