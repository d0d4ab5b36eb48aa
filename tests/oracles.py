"""Independent reference implementations used to check the package.

Everything here is deliberately brute force: direct formulas, exhaustive
enumeration, and O(n^2) searches that stay independent of the library's
own arithmetic paths.
"""

import csv
import functools
import itertools
import math
import warnings
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


@functools.cache
def enumerate_covers(depth):
    """All disjoint dyadic covers of a full binary tree, as tuples of
    (d, n) pairs; built once per depth.

    A cover either keeps a subtree root or splits into covers of the two
    children; counts follow c(0) = 1, c(d) = 1 + c(d-1)**2.
    """
    def covers(d, n, remaining):
        yield ((d, n),)
        if remaining == 0:
            return
        for left in covers(d + 1, 2 * n, remaining - 1):
            for right in covers(d + 1, 2 * n + 1, remaining - 1):
                yield left + right
    return tuple(covers(0, 0, depth))


def min_cover_cost(tree, cost_fn):
    """Exhaustive minimum total cost over all admissible covers.

    Each node is costed once; each cover sums its nodes' costs in cover
    order.
    """
    cost = {(d, n): cost_fn(tree.levels[d][n])
            for d in range(tree.depth + 1) for n in range(2 ** d)}
    best = math.inf
    for cover in enumerate_covers(tree.depth):
        best = min(best, sum(cost[node] for node in cover))
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


def _reference_midranks(pooled):
    """1-based ranks of ``pooled`` with each tie group at its midrank, and
    the tie group sizes above 1, by a scan of the stably sorted values."""
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled))
    ranks[order] = np.arange(1, len(pooled) + 1)
    sorted_vals = pooled[order]
    tie_sizes = []
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
            tie_sizes.append(j - i + 1)
        i = j + 1
    return ranks, tie_sizes


def reference_rank_sum(a, b):
    """Rank-sum statistic of ``a`` and its two-sided normal-approximation
    p-value, tie- and continuity-corrected, from the scanned midranks."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = len(a), len(b)
    ranks, tie_sizes = _reference_midranks(np.concatenate([a, b]))
    w_stat = float(ranks[:na].sum())
    n = na + nb
    mean = na * (n + 1) / 2.0
    tie_term = sum(t ** 3 - t for t in tie_sizes) / ((n) * (n - 1))
    var = na * nb / 12.0 * ((n + 1) - tie_term)
    if var <= 0.0:
        return w_stat, 1.0
    diff = w_stat - mean
    cc = min(0.5, abs(diff))
    z = (abs(diff) - cc) / math.sqrt(var)
    return w_stat, min(1.0, math.erfc(z / math.sqrt(2.0)))


def exact_rank_sum_p(a, b):
    """Exact two-sided rank-sum p-value by enumerating all assignments."""
    pooled = np.concatenate([a, b])
    ranks, _ = _reference_midranks(pooled)
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


# ------------------------------------------------- per-window extraction
# The package's former one-window-at-a-time path: a packet table built by
# gathering columns per tap, a Python shannon_cost call for every node of
# the best-basis search, and one estimator call per window.  It is the
# reference for the row-batched kernels.

def reference_analysis_rows(rows, f):
    """One analysis step on every row, gathering columns (2k + i) mod n for
    each tap i and accumulating the taps in index order."""
    n = rows.shape[1]
    base = 2 * np.arange(n // 2)
    approx = np.zeros((rows.shape[0], n // 2))
    detail = np.zeros_like(approx)
    for i in range(f.length):
        cols = rows[:, (base + i) % n]
        approx += f.low[i] * cols
        detail += f.high[i] * cols
    return approx, detail


def reference_wpd_levels(x, f, depth):
    """Level matrices 0..depth of the packet table of one signal."""
    levels = [np.asarray(x, dtype=float)[None, :].copy()]
    for _ in range(depth):
        rows = levels[-1]
        n = rows.shape[1]
        approx, detail = reference_analysis_rows(rows, f)
        nxt = np.empty((2 * rows.shape[0], n // 2))
        nxt[0::2] = approx
        nxt[1::2] = detail
        levels.append(nxt)
    return levels


def reference_shannon_cost(x):
    e = np.asarray(x, dtype=float) ** 2
    e = e[e > 0.0]
    if e.size == 0:
        return 0.0
    return float(-np.sum(e * np.log(e)))


def reference_best_basis(levels, data_level):
    """(nodes, total cost) by per-node costing and a stack walk."""
    depth = len(levels) - 1
    costs = [np.array([reference_shannon_cost(row) for row in lev])
             for lev in levels]
    best = costs[depth].copy()
    marked = [None] * (depth + 1)
    marked[depth] = np.ones(best.shape, dtype=bool)
    for d in range(depth - 1, -1, -1):
        combined = best[0::2] + best[1::2]
        marked[d] = costs[d] <= combined
        best = np.where(marked[d], costs[d], combined)
    nodes = []
    stack = [(0, 0)]
    while stack:
        d, n = stack.pop()
        if marked[d][n]:
            nodes.append((data_level - d, n))
        else:
            stack.append((d + 1, 2 * n + 1))
            stack.append((d + 1, 2 * n))
    nodes.sort(key=lambda jn: (-jn[0], jn[1]))
    return tuple(nodes), float(best[0])


def _reference_ols(xs, ys):
    """(slope, intercept, n_points, r²) of one row, as the former per-row
    fit computed them; a non-finite slope fails."""
    from wavescale import EstimationError

    xm, ym = xs.mean(), ys.mean()
    dx, dy = xs - xm, ys - ym
    sxx = float(np.dot(dx, dx))
    sxy = float(np.dot(dx, dy))
    syy = float(np.dot(dy, dy))
    slope = sxy / sxx
    if not np.isfinite(slope):
        raise EstimationError(f"fitted slope is not finite: {slope}")
    r2 = min(1.0, sxy * sxy / (sxx * syy)) if syy > 0.0 else 1.0
    return slope, float(ym - slope * xm), len(xs), r2


def reference_level_energy(method, lev):
    """One level's energy from its (2**d, m) node matrix."""
    if method == "dwt":
        return float(np.mean(lev[1] * lev[1]))
    return float(np.mean(np.mean(lev[1::2] * lev[1::2], axis=1)))


def reference_fit(method, x, f, depth, levels=None):
    """(slope, intercept, n_points, r²) of one window, warning and failing
    as the old path did."""
    from wavescale import EstimationError

    tree = reference_wpd_levels(x, f, depth)
    J = len(x).bit_length() - 1
    if method == "jones":
        nodes, _ = reference_best_basis(tree, J)
        c = np.concatenate([tree[J - j][n] for j, n in nodes])
        c = np.sort(np.abs(c))[::-1]
        ranks = np.arange(1, len(c) + 1, dtype=float)
        nz = c > 0.0
        if np.count_nonzero(nz) < 2:
            raise EstimationError(
                "rank-size fit needs at least 2 nonzero coefficients")
        return _reference_ols(np.log(ranks[nz]), np.log(c[nz]))
    if levels is None:
        levels = range(J - depth, J)
    pts = []
    for j in sorted(set(levels)):
        e = reference_level_energy(method, tree[J - j])
        if e <= 0.0:
            warnings.warn(f"level {j} has zero energy; point dropped",
                          RuntimeWarning)
            continue
        pts.append((j, float(np.log2(e))))
    if len(pts) < 2:
        raise EstimationError(
            f"slope fit needs at least 2 spectrum points, got {len(pts)}")
    return _reference_ols(np.array([p[0] for p in pts], dtype=float),
                          np.array([p[1] for p in pts]))


def reference_extract_slopes(dataset, method, grid, method_config):
    """Per-window loop over every (sample, window) of a dataset."""
    from wavescale import EstimationError, make_filter

    f = make_filter(method_config.family)
    slopes = np.empty((dataset.n_samples, grid.count))
    for s in range(dataset.n_samples):
        for w, (lo, hi) in enumerate(grid.windows):
            try:
                slopes[s, w], *_ = reference_fit(
                    method, dataset.intensities[s, lo:hi], f,
                    method_config.depth, method_config.levels_for(w + 1))
            except EstimationError as exc:
                raise EstimationError(
                    f"estimate failed for sample {dataset.sample_ids[s]!r}, "
                    f"window {w + 1}: {exc}") from exc
    return slopes


# ------------------------------------------------- per-split evaluation
# The package's former evaluation path: one split at a time, Fisher
# ranking on the gathered class rows, standardization of the selected
# columns, a logistic fit by gradient descent with an Armijo line search,
# and one kNN call for the training rows and one for the test rows.  It is
# the reference for the batched evaluation core.

def reference_fisher(values, labels):
    case = values[labels == 1]
    ctrl = values[labels == 0]
    num = (case.mean(axis=0) - ctrl.mean(axis=0)) ** 2
    den = case.var(axis=0, ddof=1) + ctrl.var(axis=0, ddof=1)
    scores = np.full(values.shape[1], np.inf)
    ok = den > 0.0
    scores[ok] = num[ok] / den[ok]
    scores[(~ok) & (num == 0.0)] = 0.0
    return scores


def _reference_standardize(train_x, test_x):
    mean = train_x.mean(axis=0)
    std = train_x.std(axis=0, ddof=0)
    scale = np.where(std == 0.0, 1.0, std)
    return (train_x - mean) / scale, (test_x - mean) / scale


def reference_sigmoid(s):
    """The logistic function by boolean-mask gathers: 1 / (1 + e^-s) on
    s >= 0 and e^s / (1 + e^s) elsewhere."""
    out = np.empty_like(s, dtype=float)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


def _reference_objective(w, b, x, y, l2_c):
    s = x @ w + b
    nll = np.mean(np.logaddexp(0.0, s) - y * s)
    return float(nll + np.dot(w, w) / (2.0 * l2_c * len(y)))


def reference_train_logistic(x, y, l2_c=1.0, max_iters=500, tol=1e-6):
    """(weights, bias) by gradient descent with a backtracking line search."""
    n = len(y)
    w = np.zeros(x.shape[1])
    b = 0.0
    obj = _reference_objective(w, b, x, y, l2_c)
    step = 1.0
    for _ in range(max_iters):
        resid = reference_sigmoid(x @ w + b) - y
        gw = x.T @ resid / n + w / (l2_c * n)
        gb = float(resid.mean())
        gnorm2 = float(np.dot(gw, gw) + gb * gb)
        if np.sqrt(gnorm2) < tol:
            break
        step = min(step * 2.0, 1e6)
        for _ in range(60):
            w_new = w - step * gw
            b_new = b - step * gb
            obj_new = _reference_objective(w_new, b_new, x, y, l2_c)
            if obj_new <= obj - 0.5 * step * gnorm2:
                break
            step *= 0.5
        w, b, obj = w_new, b_new, obj_new
    return w, b


def _reference_split(slopes, labels, train_idx, test_idx, spec, p,
                    apply_standardize=True, global_selection=None):
    """(test accuracy, train accuracy, margin) of one split; margin is the
    smallest |probability - 0.5| of a logistic prediction (inf for kNN)."""
    y_train = labels[train_idx]
    if global_selection is None:
        scores = reference_fisher(slopes[train_idx], y_train)
        selected = np.lexsort((np.arange(len(scores)), -scores))[:p]
    else:
        selected = global_selection
    x_train = slopes[np.ix_(train_idx, selected)]
    x_test = slopes[np.ix_(test_idx, selected)]
    if apply_standardize:
        x_train, x_test = _reference_standardize(x_train, x_test)
    y_test = labels[test_idx]
    margin = math.inf
    if spec.kind == "logistic":
        w, b = reference_train_logistic(x_train, y_train.astype(float),
                                        spec.l2_c, spec.max_iters, spec.tol)
        probs_train = reference_sigmoid(x_train @ w + b)
        probs_test = reference_sigmoid(x_test @ w + b)
        pred_train = (probs_train > 0.5).astype(np.int8)
        pred_test = (probs_test > 0.5).astype(np.int8)
        margin = float(np.abs(np.concatenate([probs_train, probs_test])
                              - 0.5).min())
    else:
        pred_train = _reference_knn(x_train, y_train, x_train, spec.k)
        pred_test = _reference_knn(x_train, y_train, x_test, spec.k)
    return (float(np.mean(pred_test == y_test)),
            float(np.mean(pred_train == y_train)), margin)


def _reference_knn(train_x, train_y, test_x, k):
    d2 = ((test_x[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    votes = np.asarray(train_y)[nearest].sum(axis=1)
    return (votes * 2 > k).astype(np.int8)


def reference_evaluate(features, spec, p, split, apply_standardize=True,
                       selection_mode="per-split"):
    """Per-repeat (test %, train %) pairs and the smallest logistic margin,
    one split after another as the former ``evaluate`` computed them."""
    labels = features.labels.astype(np.int8)
    slopes = features.slopes
    n = len(labels)
    n_train = min(max(int(round(split.train_fraction * n)), 1), n - 1)
    global_selection = None
    if selection_mode == "global":
        scores = reference_fisher(slopes, labels)
        global_selection = np.lexsort((np.arange(len(scores)), -scores))[:p]
    per_repeat, margin = [], math.inf
    for rep in range(split.n_repeats):
        rng = np.random.default_rng(
            np.random.SeedSequence(split.master_seed, spawn_key=(rep,)))
        while True:
            perm = rng.permutation(n)
            ones = int(labels[perm[:n_train]].sum())
            if 2 <= ones <= n_train - 2:
                break
        test_acc, train_acc, m = _reference_split(
            slopes, labels, perm[:n_train], perm[n_train:], spec, p,
            apply_standardize, global_selection)
        per_repeat.append((test_acc * 100.0, train_acc * 100.0))
        margin = min(margin, m)
    return per_repeat, margin


# ------------------------------------------------ per-replicate simulate
# The package's former estimator benchmark: one fGn draw, one circulant
# FFT, one packet tree per filter family and one estimator call per
# replicate.  It is the reference for the chunked replicate batches.

def _reference_embedding_eigenvalues(n, hurst):
    from wavescale import fgn_autocovariance

    gamma = fgn_autocovariance(hurst, np.arange(n + 1))
    return np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real


def reference_fgn(hurst, n, rng):
    """One fGn draw by circulant embedding."""
    lam = np.clip(_reference_embedding_eigenvalues(n, hurst), 0.0, None)
    m = 2 * n
    z = np.empty(m, dtype=complex)
    z[0] = rng.standard_normal() * np.sqrt(2.0)
    z[n] = rng.standard_normal() * np.sqrt(2.0)
    v = rng.standard_normal((n - 1, 2))
    z[1:n] = v[:, 0] + 1j * v[:, 1]
    z[n + 1:] = np.conj(z[1:n][::-1])
    return np.fft.fft(np.sqrt(lam / (2 * m)) * z).real[:n]


def reference_estimator_benchmark(h_grid, n_reps, length, methods,
                                  master_seed):
    """(H, method) -> (mean, std, n, failures), one replicate at a time,
    through this module's own transform, spectrum and line fit."""
    import wavescale
    from wavescale import EstimationError, make_filter

    family = {"dwt": "haar", "wang": "haar", "jones": "symmlet4"}
    J = length.bit_length() - 1
    depth = {"haar": J, "symmlet4": J - 1}
    cells = {}
    for ih, h in enumerate(h_grid):
        hurst = {m: [] for m in methods}
        for rep in range(n_reps):
            rng = np.random.default_rng(
                np.random.SeedSequence(master_seed, spawn_key=(ih, rep)))
            path = np.cumsum(reference_fgn(h, length, rng))
            for m in methods:
                try:
                    slope, *_ = reference_fit(m, path, make_filter(family[m]),
                                              depth[family[m]])
                except EstimationError:
                    continue
                hurst[m].append(getattr(wavescale, f"hurst_{m}")(slope))
        for m in methods:
            vals = np.array(hurst[m])
            cells[h, m] = (float(vals.mean()), float(vals.std(ddof=1)),
                           len(vals), n_reps - len(vals))
    return cells
