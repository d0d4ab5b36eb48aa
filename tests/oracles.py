"""Independent reference implementations used to check the package.

Everything here is deliberately brute force: direct formulas, exhaustive
enumeration, and O(n^2) searches that stay independent of the library's
own arithmetic paths.
"""

import csv
import itertools
import math
from pathlib import Path

import numpy as np


def periodic_analysis_direct(x, low, high):
    """Textbook double loop for one analysis step."""
    n = len(x)
    approx = np.zeros(n // 2)
    detail = np.zeros(n // 2)
    for k in range(n // 2):
        for i, (h, g) in enumerate(zip(low, high)):
            approx[k] += h * x[(2 * k + i) % n]
            detail[k] += g * x[(2 * k + i) % n]
    return approx, detail


def enumerate_covers(depth):
    """All disjoint dyadic covers of a full binary tree, as (d, n) lists.

    A cover either keeps a subtree root or splits into covers of the two
    children; counts follow c(0) = 1, c(d) = 1 + c(d-1)**2.
    """
    def covers(d, n, remaining):
        yield [(d, n)]
        if remaining == 0:
            return
        for left in covers(d + 1, 2 * n, remaining - 1):
            for right in covers(d + 1, 2 * n + 1, remaining - 1):
                yield left + right
    return list(covers(0, 0, depth))


def min_cover_cost(tree, cost_fn):
    """Exhaustive minimum total cost over all admissible covers."""
    best = math.inf
    for cover in enumerate_covers(tree.depth):
        total = sum(cost_fn(tree.levels[d][n]) for d, n in cover)
        best = min(best, total)
    return best


def packet_basis_vector(f, signal_length, level, index):
    """Signal equal to one packet basis function.

    Built by placing a unit coefficient at node (level, index) of an
    otherwise zero tree and synthesizing upward step by step.
    """
    from wavescale import synthesis_step

    J = signal_length.bit_length() - 1
    vec = np.zeros(signal_length >> (J - level))
    vec[0] = 1.0
    j, n = level, index
    while j < J:
        zero = np.zeros_like(vec)
        if n % 2 == 0:
            vec = synthesis_step(vec, zero, f)
        else:
            vec = synthesis_step(zero, vec, f)
        j += 1
        n //= 2
    return vec


def exact_rank_sum_p(a, b):
    """Exact two-sided rank-sum p-value by enumerating all assignments."""
    pooled = np.concatenate([a, b])
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled))
    ranks[order] = np.arange(1, len(pooled) + 1)
    sorted_vals = pooled[order]
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    na = len(a)
    observed = ranks[:na].sum()
    mean = na * (len(pooled) + 1) / 2.0
    stats = [sum(ranks[list(c)]) for c in
             itertools.combinations(range(len(pooled)), na)]
    obs_dev = abs(observed - mean) - 1e-9
    extreme = sum(1 for s in stats if abs(s - mean) >= obs_dev)
    return extreme / len(stats)


def knn_predict_bruteforce(train_x, train_y, test_x, k):
    """Independent nearest-neighbor vote with the same tie rules."""
    out = []
    for t in test_x:
        dists = [(float(np.sum((t - xr) ** 2)), i)
                 for i, xr in enumerate(train_x)]
        dists.sort()
        labels = [train_y[i] for _, i in dists[:k]]
        ones = sum(labels)
        out.append(1 if 2 * ones > k else 0)
    return np.array(out, dtype=np.int8)


def finite_difference_gradient(fn, params, eps=1e-6):
    """Central differences of a scalar function of a flat vector."""
    grad = np.zeros_like(params)
    for i in range(len(params)):
        up = params.copy()
        dn = params.copy()
        up[i] += eps
        dn[i] -= eps
        grad[i] = (fn(up) - fn(dn)) / (2 * eps)
    return grad


# ------------------------------------------------------------- CSV ingest
# The package's former row-by-row reader: csv.reader rows and one float()
# per cell.  It checks little and serves only as the parsing reference.

_LABELS = {"case": 1, "control": 0, "1": 1, "0": 0}


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def reference_load_labels(path):
    """sample_id -> 0/1 from a sample_id,label CSV."""
    return {row[0].strip(): _LABELS[row[1].strip().lower()]
            for row in _csv_rows(path)[1:]}


def reference_load_dataset(matrix_path, labels_path):
    """(ids, labels, mz, intensities) of a matrix CSV or sample directory."""
    matrix_path = Path(matrix_path)
    if matrix_path.is_dir():
        manifest = _csv_rows(matrix_path / "manifest.csv")[1:]
        ids = [row[0].strip() for row in manifest]
        bodies = []
        for row in manifest:
            body = _csv_rows(matrix_path / row[1].strip())
            try:
                float(body[0][0])
            except ValueError:
                body = body[1:]  # header line
            bodies.append(body)
        mz = np.array([float(r[0]) for r in bodies[0]])
        intens = np.array([[float(r[1]) for r in body] for body in bodies])
    else:
        rows = _csv_rows(matrix_path)
        ids = [c.strip() for c in rows[0][1:]]
        mz = np.array([float(r[0]) for r in rows[1:]])
        intens = np.array([[float(r[s + 1]) for r in rows[1:]]
                           for s in range(len(ids))])
    label_map = reference_load_labels(labels_path)
    labels = np.array([label_map[sid] for sid in ids], dtype=np.int8)
    return ids, labels, mz, intens


def reference_read_feature_csv(path):
    """(ids, labels, slopes) of a sample_id,label,w01.. feature CSV."""
    rows = _csv_rows(path)[1:]
    ids = [row[0].strip() for row in rows]
    labels = np.array([_LABELS[row[1].strip().lower()] for row in rows],
                      dtype=np.int8)
    slopes = np.array([[float(v) for v in row[2:]] for row in rows])
    return ids, labels, slopes
