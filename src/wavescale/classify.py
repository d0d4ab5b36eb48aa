"""Repeated random-split evaluation of simple classifiers.

Two classifiers are implemented from first principles: an L2-regularized
logistic regression fitted by damped Newton steps (iteratively
reweighted least squares with a backtracking line search), and a
majority-vote k-nearest-neighbors rule.  One evaluation core,
``evaluate_classifiers``, draws seeded train/test splits, ranks windows
by Fisher score on the training rows only (unless the global
compatibility mode is requested), standardizes with training statistics,
and scores every requested feature count with every requested
classifier on those same columns.

The core works on chunks of splits at once.  Its kernels take a leading
axis of splits and compute each split on its own, with no reduction
across splits, so a split's result does not depend on the chunk it is
in.  ``train_logistic``, ``predict_logistic`` and ``knn_predict`` are
the one-split calls of the same kernels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ConfigurationError, EstimationError
from .pipeline import FeatureMatrix, fisher_ratio, fisher_scores, select_top
from .utils import (check_count, first_repeat, is_integer, is_real,
                    map_ordered, write_csv)

SELECTION_MODES = ("per-split", "global")
_KINDS = ("logistic", "knn")


@dataclass(frozen=True)
class SplitSpec:
    """Repeated-holdout parameters, checked by ``check_setting``; None
    takes the setting's default.  An error names the field, or its entry
    in ``sources``: the flag or key that set it."""

    train_fraction: float = 0.67
    n_repeats: int = 10_000
    master_seed: int = 0
    sources: InitVar[dict] = None

    def __post_init__(self, sources):
        _check_fields(self, ("train_fraction", "n_repeats", "master_seed"),
                      sources)


@dataclass(frozen=True)
class ClassifierSpec:
    """Classifier choice plus hyperparameters, checked by
    ``check_setting`` and named as SplitSpec's are; None takes the
    setting's default.

    ``kind`` is "logistic" (l2_c is the inverse regularization strength;
    a fit stops after max_iters steps or once the gradient norm is below
    tol) or "knn" (k neighbors, equal weights, Euclidean distance).
    """

    kind: str = "logistic"
    l2_c: float = 1.0
    max_iters: int = 500
    tol: float = 1e-6
    k: int = 5
    sources: InitVar[dict] = None

    def __post_init__(self, sources):
        _check_fields(self, ("kind", "l2_c", "max_iters", "tol", "k"),
                      sources)

    def describe(self) -> str:
        if self.kind == "logistic":
            return f"logistic(C={self.l2_c:g})"
        return f"knn(k={self.k})"


def _rule(test, requirement: str):
    """The check ``(value, source) -> value`` of the rule ``test``, whose
    error states ``requirement``."""
    def check(value, source):
        if not test(value):
            raise ConfigurationError(
                f"{source} must be {requirement}, got {value!r}")
        return value
    return check


_FINITE_POSITIVE = _rule(lambda v: is_real(v) and math.isfinite(v) and v > 0,
                         "finite and > 0")

# Each classification setting: (default, check).  A flag, a config key
# and a spec field of one setting share its row; every count's check is
# check_count, from 0 for the seed.
_SETTINGS = {
    "train_fraction": (SplitSpec.train_fraction,
                       _rule(lambda v: is_real(v) and 0 < v < 1, "in (0, 1)")),
    "n_repeats": (SplitSpec.n_repeats, check_count),
    "curve_repeats": (1000, check_count),  # the splits of each curve point
    "p": (10, check_count),  # check_evaluation caps it at the window count
    "selection_mode": (SELECTION_MODES[0],
                       _rule(lambda v: v in SELECTION_MODES,
                             f"one of {SELECTION_MODES}")),
    "kind": (ClassifierSpec.kind, _rule(lambda v: v in _KINDS,
                                        f"one of {_KINDS}")),
    "l2_c": (ClassifierSpec.l2_c, _FINITE_POSITIVE),
    "max_iters": (ClassifierSpec.max_iters, check_count),
    "tol": (ClassifierSpec.tol, _FINITE_POSITIVE),
    "k": (ClassifierSpec.k, check_count),
    "master_seed": (SplitSpec.master_seed,
                    lambda value, source: check_count(value, source, least=0)),
}


def check_setting(name: str, value, source: str):
    """``value`` of the setting ``name`` (its default when None), if it
    meets the setting's rule; the error names the flag or key ``source``."""
    default, check = _SETTINGS[name]
    return check(default if value is None else value, source)


def _check_fields(spec, names, sources) -> None:
    """Check each of ``spec``'s fields ``names`` as its own setting, named
    by its entry in the mapping ``sources``, else by the field."""
    for name in names:
        object.__setattr__(spec, name, check_setting(
            name, getattr(spec, name), (sources or {}).get(name, name)))


@dataclass(frozen=True)
class EvalSpec:
    """What one evaluation pass scores: each feature count ``ps[i]`` on
    the first ``repeats[i]`` splits (None: the split's ``n_repeats`` for
    each), the windows ranked as ``selection_mode`` says (see ``evaluate``)
    and standardized if ``apply_standardize``.  Checked when made; a None
    count is an error, not the default."""

    ps: tuple
    repeats: tuple = None
    selection_mode: str = None
    apply_standardize: bool = True
    sources: InitVar[dict] = None  # names selection_mode as SplitSpec's do

    def __post_init__(self, sources):
        _check_fields(self, ("selection_mode",), sources)
        for name in ("ps", "repeats"):  # as Python ints, for the reports
            counts = getattr(self, name)
            if counts is not None:
                object.__setattr__(self, name, tuple(
                    int(check_count(v, f"{name}[{j}]"))
                    for j, v in enumerate(counts)))
        if self.repeats is not None and len(self.repeats) != len(self.ps):
            raise ConfigurationError(
                f"{len(self.repeats)} repeats for {len(self.ps)} ps")


def check_classifiers(classifiers, source: str, entry: str = None) -> tuple:
    """The ClassifierSpecs (default logistic, then kNN), checked to be
    non-empty and to hold each kind once, since each kind writes its own
    files.  The errors name ``source``, or for a repeated kind ``entry``
    (default ``source``), whose ``{}`` takes the index of the spec."""
    if classifiers is None:
        return (ClassifierSpec(kind="logistic"), ClassifierSpec(kind="knn"))
    if not classifiers:
        raise ConfigurationError(f"{source}: no classifiers requested")
    repeat = first_repeat(spec.kind for spec in classifiers)
    if repeat:
        i = repeat[1]
        raise ConfigurationError(f"{(entry or source).format(i)}: repeated "
                                 f"classifier kind {classifiers[i].kind!r}")
    return tuple(classifiers)


@dataclass(frozen=True)
class StandardizeTransform:
    """Per-feature affine map fitted on training rows."""

    mean: np.ndarray
    scale: np.ndarray
    degenerate: np.ndarray  # features whose training std was zero

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.scale


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float
    converged: bool
    n_iters: int


@dataclass(frozen=True)
class EvalReport:
    """Accuracy aggregates over repeated splits, in percent."""

    classifier: str
    p: int
    n_repeats: int
    mean_test_accuracy: float
    std_test_accuracy: float
    mean_train_accuracy: float
    std_train_accuracy: float
    redraws: int
    selection_mode: str
    per_repeat: tuple = field(default=None, repr=False)


def _column_stats(train: np.ndarray, stacklevel: int):
    """Mean, scale and zero-std mask of each column of ``(..., n, p)``
    training rows; a zero-std column keeps scale 1 and warns once, as
    ``warnings.warn(..., stacklevel=stacklevel)`` in the caller would."""
    mean = train.mean(axis=-2)
    std = train.std(axis=-2, ddof=0)
    degenerate = std == 0.0
    if degenerate.any():
        warnings.warn("zero training std; feature centered only",
                      RuntimeWarning, stacklevel=stacklevel + 1)
    return mean, np.where(degenerate, 1.0, std), degenerate


def standardize(train_x: np.ndarray, test_x: np.ndarray):
    """Center and scale by training statistics; apply unchanged to test.

    Features with zero training standard deviation are centered only and
    reported through the transform's ``degenerate`` mask.
    """
    train_x = np.asarray(train_x, dtype=float)
    test_x = np.asarray(test_x, dtype=float)
    if train_x.shape[0] < 2:
        raise EstimationError("standardization needs at least 2 training rows")
    mean, scale, degenerate = _column_stats(train_x, stacklevel=2)
    t = StandardizeTransform(mean=mean, scale=scale, degenerate=degenerate)
    return t.apply(train_x), t.apply(test_x), t


# ---------------------------------------------------------------- logistic
# Every kernel below takes rows x (c, n, p), labels y (c, n), weights
# w (c, p) and biases b (c,): one fit per index of the leading axis.

def _logits(x, w, b):
    return (x @ w[..., None])[..., 0] + b[..., None]


def _objective(x, y, w, b, l2_c):
    s = _logits(x, w, b)
    nll = np.mean(np.logaddexp(0.0, s) - y * s, axis=-1)
    return nll + np.sum(w * w, axis=-1) / (2.0 * l2_c * y.shape[-1])


def _gradient(x, y, w, b, l2_c):
    """(gradient in w, gradient in b, probabilities) of ``_objective``."""
    n = y.shape[-1]
    probs = _sigmoid(_logits(x, w, b))
    resid = probs - y
    gw = (resid[..., None, :] @ x)[..., 0, :] / n + w / (l2_c * n)
    return gw, resid.mean(axis=-1), probs


def _one(a) -> np.ndarray:
    """A single fit's array with the leading fit axis added."""
    return np.ascontiguousarray(np.asarray(a, dtype=float)[None])


def logistic_objective(weights, bias, x, y, l2_c) -> float:
    """Mean negative log-likelihood plus ||w||^2 / (2 * C * n)."""
    return float(_objective(_one(x), _one(y), _one(weights), _one(bias),
                            l2_c)[0])


def logistic_gradient(weights, bias, x, y, l2_c):
    """Analytic gradient of logistic_objective in (weights, bias)."""
    gw, gb, _ = _gradient(_one(x), _one(y), _one(weights), _one(bias), l2_c)
    return gw[0], float(gb[0])


def _sigmoid(s: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-s) from e = e^-|s|, which never overflows: 1 / (1 + e)
    where s >= 0 and e / (1 + e) elsewhere."""
    e = np.exp(-np.abs(s))
    return np.where(s >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _fit_logistic(x, y, l2_c, max_iters, tol):
    """Damped Newton fits of rows x (c, n, p) to 0/1 labels y (c, n).

    Each fit starts from zero weights and stops once its gradient norm
    falls below ``tol``.  A step solves the Newton system of the
    penalized objective (the bias is not penalized) and is halved until
    it gives an Armijo decrease; after 60 halvings the last trial is
    taken.  Returns weights (c, p), biases (c,), converged flags and
    step counts, and warns once per fit that has not converged within
    ``max_iters`` steps.
    """
    c, n, p = x.shape
    w = np.zeros((c, p))
    b = np.zeros(c)
    obj = _objective(x, y, w, b, l2_c)
    penalty = np.eye(p + 1) / (l2_c * n)
    penalty[p, p] = 0.0  # the bias is not penalized
    active = np.ones(c, dtype=bool)
    iters = np.zeros(c, dtype=int)
    for it in range(max_iters + 1):
        gw, gb, probs = _gradient(x, y, w, b, l2_c)
        active &= ~(np.sqrt(np.sum(gw * gw, axis=-1) + gb * gb) < tol)
        if it == max_iters or not active.any():
            break
        iters[active] = it + 1
        g = np.concatenate([gw, gb[:, None]], axis=-1)
        d = probs * (1.0 - probs) / n
        xd = np.swapaxes(x, -1, -2) * d[:, None, :]
        hess = np.empty((c, p + 1, p + 1))
        hess[:, :p, :p] = xd @ x
        hess[:, :p, p] = hess[:, p, :p] = xd.sum(axis=-1)
        hess[:, p, p] = d.sum(axis=-1)
        step = np.linalg.solve(hess + penalty, g[..., None])[..., 0]
        descent = np.sum(g * step, axis=-1)
        t = np.ones(c)
        searching = active.copy()
        for _ in range(60):
            w_try = w - t[:, None] * step[:, :p]
            b_try = b - t * step[:, p]
            obj_try = _objective(x, y, w_try, b_try, l2_c)
            searching &= ~(obj_try <= obj - 1e-4 * t * descent)
            if not searching.any():
                break
            t = np.where(searching, 0.5 * t, t)
        w = np.where(active[:, None], w_try, w)
        b = np.where(active, b_try, b)
        obj = np.where(active, obj_try, obj)
    for _ in range(int(active.sum())):
        warnings.warn(f"logistic fit did not converge in {max_iters} "
                      "iterations", RuntimeWarning, stacklevel=3)
    return w, b, ~active, iters


def train_logistic(x: np.ndarray, y: np.ndarray,
                   l2_c: float = ClassifierSpec.l2_c,
                   max_iters: int = ClassifierSpec.max_iters,
                   tol: float = ClassifierSpec.tol) -> LogisticModel:
    """Fit by damped Newton steps with a backtracking line search.

    Deterministic: starts from zero weights and stops once the gradient
    norm falls below ``tol``.  Non-convergence within ``max_iters`` steps
    returns the last iterate with ``converged`` False and a warning.
    This is the one-fit call of the solver ``evaluate`` runs on chunks
    of splits, and gives bitwise the same model.  The settings are
    checked as ClassifierSpec checks them.
    """
    ClassifierSpec("logistic", l2_c, max_iters, tol)
    w, b, converged, iters = _fit_logistic(_one(x), _one(y), l2_c,
                                           max_iters, tol)
    return LogisticModel(weights=w[0], bias=float(b[0]),
                         converged=bool(converged[0]), n_iters=int(iters[0]))


def _predict(x, w, b):
    probs = _sigmoid(_logits(x, w, b))
    return (probs > 0.5).astype(np.int8), probs


def predict_logistic(model: LogisticModel, x: np.ndarray):
    """Probabilities via the sigmoid score, labels thresholded at 0.5."""
    labels, probs = _predict(_one(x), _one(model.weights), _one(model.bias))
    return labels[0], probs[0]


# --------------------------------------------------------------------- knn

# Elements of the (queries, training rows, features) difference tensor
# that the kNN kernel builds at once (4 MB), unless one split needs more.
_KNN_BLOCK = 1 << 19


def _knn_votes(train, train_y, queries, k):
    """Majority vote of (c, m, p) queries among the k nearest of the
    (c, n, p) training rows with (c, n) labels, split by split."""
    c, m, p = queries.shape
    n = train.shape[1]
    out = np.empty((c, m), dtype=np.int8)
    step = max(1, _KNN_BLOCK // (m * n * p))
    for lo in range(0, c, step):
        blk = slice(lo, lo + step)
        diff = queries[blk, :, None, :] - train[blk, None, :, :]
        d2 = np.square(diff, out=diff).sum(axis=-1)
        nearest = np.argsort(d2, axis=-1, kind="stable")[..., :k]
        votes = np.take_along_axis(train_y[blk, None, :], nearest,
                                   axis=-1).sum(axis=-1)
        out[blk] = votes * 2 > k
    return out


def knn_predict(train_x: np.ndarray, train_y: np.ndarray,
                test_x: np.ndarray, k: int = ClassifierSpec.k) -> np.ndarray:
    """Majority vote among the k Euclidean-nearest training rows.

    Distance ties resolve toward the lower training-row index; an even
    vote split resolves to label 0.
    """
    ClassifierSpec("knn", k=k)  # checks k
    train_x = np.asarray(train_x, dtype=float)
    test_x = np.asarray(test_x, dtype=float)
    if k > train_x.shape[0]:
        raise ConfigurationError(
            f"k={k} exceeds {train_x.shape[0]} training rows")
    return _knn_votes(train_x[None], np.asarray(train_y)[None],
                      test_x[None], k)[0]


# --------------------------------------------------------- evaluation core

# Splits scored together.  Fixed, so memory does not grow with n_repeats;
# results do not depend on it.
_CHUNK = 64


def _draw_splits(labels, n_train, master_seed, reps):
    """Row orders (c, n), training rows first, of the given repeats and
    their redraw counts.  Repeat ``rep`` draws permutations from spawn key
    (rep,) until its training rows hold two samples of each class."""
    n = len(labels)
    perms = np.empty((len(reps), n), dtype=np.intp)
    redraws = np.zeros(len(reps), dtype=int)
    for i, rep in enumerate(reps):
        rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(rep,)))
        while True:
            perm = rng.permutation(n)
            ones = int(labels[perm[:n_train]].sum())
            # Fisher ranking needs two samples of each class in training
            if 2 <= ones <= n_train - 2:
                break
            redraws[i] += 1
            if redraws[i] > 1000:
                raise EstimationError(
                    "could not draw a training split with two samples "
                    "per class")
        perms[i] = perm
    return perms, redraws


def _standardized(x, n_train, p):
    """The first p columns of rows x (c, n, W), standardized by their
    first n_train rows as ``standardize`` does it for those p columns."""
    cols = x[:, :, :p]
    mean, scale, _ = _column_stats(cols[:, :n_train], stacklevel=3)
    return (cols - mean[:, None, :]) / scale[:, None, :]


def _split_features(slopes, labels, perms, n_train, ps,
                    apply_standardize: bool, order=None):
    """Each split's rows restricted to its top p windows, for every p.

    ``perms`` (c, n) holds each split's rows, training rows first.  The
    windows are ranked once per split, by Fisher score on its training
    rows (or by a given global ``order``), and standardized once.
    Returns one (c, n, p) array per p in ``ps``, bitwise what
    ``standardize`` gives the split's top p columns, and the (c, W)
    rankings.
    """
    x = slopes[perms]
    if order is None:
        order = select_top(fisher_ratio(x[:, :n_train],
                                        labels[perms[:, :n_train]]),
                           x.shape[-1])
    else:
        order = np.broadcast_to(order, (len(perms), len(order)))
    pmax = max(ps)
    x = np.take_along_axis(x, order[:, None, :pmax], axis=-1)
    if not apply_standardize:
        return [x[:, :, :p] for p in ps], order
    top = _standardized(x, n_train, pmax)
    # numpy sums a lone column pairwise but several columns row by row,
    # so p = 1 gets the statistics of its own column
    first = _standardized(x, n_train, 1) if 1 in ps and pmax > 1 else top
    return [(first if p == 1 else top)[:, :, :p] for p in ps], order


def _score_splits(features, y, n_train, classifiers):
    """Test and train accuracies, each (len(classifiers), len(features), c),
    of classifying each (c, n, p) array of ``features`` with row labels
    y (c, n) by every spec of ``classifiers``."""
    y_train, y_test = y[:, :n_train], y[:, n_train:]
    test_acc = np.empty((len(classifiers), len(features), len(y)))
    train_acc = np.empty_like(test_acc)
    for s, spec in enumerate(classifiers):
        for i, z in enumerate(features):
            if spec.kind == "logistic":
                x_train = np.ascontiguousarray(z[:, :n_train])
                x_test = np.ascontiguousarray(z[:, n_train:])
                w, b, _, _ = _fit_logistic(x_train, y_train.astype(float),
                                           spec.l2_c, spec.max_iters,
                                           spec.tol)
                pred_train, _ = _predict(x_train, w, b)
                pred_test, _ = _predict(x_test, w, b)
            else:
                rows = np.ascontiguousarray(z)
                pred = _knn_votes(rows[:, :n_train], y_train, rows, spec.k)
                pred_train, pred_test = pred[:, :n_train], pred[:, n_train:]
            test_acc[s, i] = np.mean(pred_test == y_test, axis=-1)
            train_acc[s, i] = np.mean(pred_train == y_train, axis=-1)
    return test_acc, train_acc


def _training_rows(n_samples: int, split: SplitSpec) -> int:
    """Training rows of each of ``split``'s splits of ``n_samples`` rows."""
    n_train = int(round(split.train_fraction * n_samples))
    return min(max(n_train, 1), n_samples - 1)


def check_evaluation(classifiers, ps, n_windows: int, n_case: int,
                     n_control: int, split: SplitSpec) -> None:
    """Raise ConfigurationError unless every p in ``ps`` is in
    1..n_windows, every kNN spec's k fits the training rows, and the
    training rows of ``n_case`` cases and ``n_control`` controls can hold
    two samples of each class.

    ``evaluate_classifiers`` runs this before its first draw; a pipeline
    can run it as soon as it knows the window and class counts.
    """
    for p in ps:
        if not (is_integer(p) and 1 <= p <= n_windows):
            raise ConfigurationError(f"p must be in 1..{n_windows}, got {p}")
    n_train = _training_rows(n_case + n_control, split)
    for spec in classifiers:
        if spec.kind == "knn" and spec.k > n_train:
            raise ConfigurationError(
                f"k={spec.k} exceeds {n_train} training rows")
    # the fewest and most cases a training split can hold, as _draw_splits
    # needs them
    if max(2, n_train - n_control) > min(n_train - 2, n_case):
        raise ConfigurationError(
            f"train fraction {split.train_fraction} gives {n_train} training "
            f"rows of {n_case} case and {n_control} control samples, which "
            f"can never hold two samples of each class")


def evaluate_classifiers(features: FeatureMatrix, classifiers,
                         evaluation: EvalSpec, split: SplitSpec,
                         keep_per_repeat: bool = False,
                         threads: int = 1) -> list:
    """One list of EvalReports per spec of ``classifiers``, one report
    per count of ``evaluation.ps``, all from one seeded sequence of
    splits.

    Chunks of splits end at multiples of _CHUNK and at each count of
    ``evaluation.repeats``; each is drawn, Fisher-ranked and standardized
    once, and every classifier scores the columns of each p whose count
    reaches it, so each report equals the one-spec, one-count call.  See
    ``evaluate`` for the split, the selection modes and ``threads``.
    """
    classifiers = list(classifiers)
    ps, counts = evaluation.ps, evaluation.repeats
    selection_mode = evaluation.selection_mode
    if counts is None:
        counts = (split.n_repeats,) * len(ps)
    labels = features.labels.astype(np.int8)
    n_case = int(labels.sum())
    check_evaluation(classifiers, ps, features.n_windows, n_case,
                     len(labels) - n_case, split)
    n_train = _training_rows(len(labels), split)
    order = None
    if selection_mode == "global":
        order = select_top(fisher_scores(features), features.n_windows)

    def one_chunk(reps):
        live = [i for i, count in enumerate(counts) if count > reps.start]
        perms, redraws = _draw_splits(labels, n_train, split.master_seed,
                                      reps)
        columns, _ = _split_features(features.slopes, labels, perms, n_train,
                                     [ps[i] for i in live],
                                     evaluation.apply_standardize, order)
        return (live, *_score_splits(columns, labels[perms], n_train,
                                     classifiers), redraws)

    n_splits = max(counts, default=0)
    bounds = sorted({*range(0, n_splits, _CHUNK), *counts})
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # cells past a p's own count are never set and never read
    test_acc = np.empty((len(classifiers), len(ps), n_splits))
    train_acc = np.empty_like(test_acc)
    redraws = np.empty(n_splits, dtype=int)
    for reps, (live, test, train, redrawn) in zip(
            chunks, map_ordered(one_chunk, chunks, threads=threads)):
        test_acc[:, live, reps.start:reps.stop] = test * 100.0
        train_acc[:, live, reps.start:reps.stop] = train * 100.0
        redraws[reps.start:reps.stop] = redrawn
    return [[EvalReport(
        classifier=spec.describe(),
        p=p,
        n_repeats=count,
        mean_test_accuracy=float(te[:count].mean()),
        std_test_accuracy=float(te[:count].std(ddof=1)) if count > 1 else 0.0,
        mean_train_accuracy=float(tr[:count].mean()),
        std_train_accuracy=float(tr[:count].std(ddof=1)) if count > 1 else 0.0,
        redraws=int(redraws[:count].sum()),
        selection_mode=selection_mode,
        per_repeat=(tuple(zip(te[:count], tr[:count])) if keep_per_repeat
                    else None),
    ) for p, count, te, tr in zip(ps, counts, spec_test, spec_train)]
        for spec, spec_test, spec_train in zip(classifiers, test_acc,
                                               train_acc)]


def evaluate(features: FeatureMatrix, classifier_spec: ClassifierSpec,
             p: int, split: SplitSpec, apply_standardize: bool = True,
             selection_mode: str = None, keep_per_repeat: bool = False,
             threads: int = 1) -> EvalReport:
    """Mean test accuracy over seeded repeated holdout splits.

    Each repeat draws a uniform train subset of round(train_fraction * n)
    rows, ranks windows by Fisher score on the training rows, keeps the
    top ``p``, standardizes, trains, and scores the held-out rows.  A
    repeat whose training half lacks a class is redrawn (and counted).

    ``selection_mode`` "global" (default: "per-split", the ranking just
    described) instead ranks once on the full matrix before splitting,
    reproducing pipelines that select features ahead of the split at the
    cost of information leaking into the test score.

    Per-repeat seeds spawn from the split's master seed, and each split
    is computed on its own, so reports are identical for any thread
    count.  ``threads`` maps over chunks of splits.
    """
    return evaluate_classifiers(
        features, [classifier_spec],
        EvalSpec([p], None, selection_mode, apply_standardize), split,
        keep_per_repeat, threads)[0][0]


def accuracy_vs_feature_count(features: FeatureMatrix,
                              classifier_spec: ClassifierSpec,
                              p_range=None, split: SplitSpec = None,
                              apply_standardize: bool = True,
                              selection_mode: str = None,
                              threads: int = 1) -> list:
    """Evaluate across feature counts; returns one EvalReport per p.

    ``p_range`` defaults to 1..W and ``split`` to 1,000 repeats, giving
    train and test accuracy curves against the number of kept features.
    Every p is scored on the same splits and rankings, and each report
    equals ``evaluate`` at that p.
    """
    if p_range is None:
        p_range = range(1, features.n_windows + 1)
    if split is None:
        split = SplitSpec(n_repeats=_SETTINGS["curve_repeats"][0])
    return evaluate_classifiers(
        features, [classifier_spec],
        EvalSpec(p_range, None, selection_mode, apply_standardize), split,
        threads=threads)[0]


def feature_correlation(features: FeatureMatrix, selected=None) -> np.ndarray:
    """Pearson correlation matrix of the selected feature columns.

    Zero-variance columns yield NaN rows/columns (reported missing).
    """
    x = features.slopes if selected is None else features.slopes[:, selected]
    if x.shape[0] < 2:
        raise EstimationError("correlation needs at least 2 samples")
    std = x.std(axis=0, ddof=0)
    dead = std == 0.0
    if dead.any():
        warnings.warn("zero-variance feature; correlation undefined",
                      RuntimeWarning, stacklevel=2)
    centered = x - x.mean(axis=0)
    denom = np.where(dead, 1.0, std)
    z = centered / denom
    corr = z.T @ z / x.shape[0]
    corr[dead, :] = np.nan
    corr[:, dead] = np.nan
    valid = ~dead
    corr[np.ix_(valid, valid)] = np.clip(corr[np.ix_(valid, valid)], -1.0, 1.0)
    np.fill_diagonal(corr, np.where(dead, np.nan, 1.0))
    return corr


def write_eval_csv(reports, path) -> None:
    """One row per (classifier, p): accuracy aggregates in percent."""
    write_csv(path, ["classifier", "p", "n_repeats", "selection_mode",
                     "mean_test_accuracy", "std_test_accuracy",
                     "mean_train_accuracy", "std_train_accuracy", "redraws"],
              ([r.classifier, r.p, r.n_repeats, r.selection_mode,
                r.mean_test_accuracy, r.std_test_accuracy,
                r.mean_train_accuracy, r.std_train_accuracy, r.redraws]
               for r in reports))


def write_per_repeat_csv(report: EvalReport, path) -> None:
    """Optional per-repeat log: repeat, test and train accuracy."""
    if report.per_repeat is None:
        raise ConfigurationError("report was built without per-repeat records")
    write_csv(path, ["repeat", "test_accuracy", "train_accuracy"],
              ([i, te, tr] for i, (te, tr) in enumerate(report.per_repeat)))


def write_correlation_csv(corr: np.ndarray, selected, path) -> None:
    """Correlation matrix CSV labeled by 1-based window numbers."""
    names = [f"w{int(i) + 1}" for i in selected]
    write_csv(path, ["", *names],
              ([name, *("" if np.isnan(v) else v for v in row)]
               for name, row in zip(names, corr)))
