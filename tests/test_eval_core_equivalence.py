"""The batched evaluation core against the former per-split path kept in
``oracles``: per-repeat accuracies, curve cells, thread counts, chunk
boundaries, the one-split calls of the batched kernels, and one shared
pass for several classifiers against one-classifier calls."""

import warnings

import numpy as np
import pytest

import wavescale.classify as classify
from oracles import reference_fisher, reference_evaluate
from wavescale import (
    ClassifierSpec,
    ConfigurationError,
    EvalSpec,
    FeatureMatrix,
    MethodConfig,
    SplitSpec,
    accuracy_vs_feature_count,
    evaluate,
    evaluate_classifiers,
    extract_features,
    fisher_scores,
    knn_predict,
    make_windows,
    predict_logistic,
    select_top,
    standardize,
    train_logistic,
    two_class_fbm_dataset,
)
from wavescale.pipeline import fisher_ratio

# The former gradient descent stopped short of the optimum: its
# probabilities differ from the Newton fits' by at most 9e-6 (4.5e-6 over
# 300 random problems of 12-60 rows and 1-11 features).  Labels whose
# probability lies further than this from 0.5 therefore agree.
MARGIN = 2e-5


def _features_from(slopes, labels):
    slopes = np.asarray(slopes, dtype=float)
    return FeatureMatrix(
        method="dwt", slopes=slopes, hurst=slopes,
        labels=np.asarray(labels, dtype=np.int8),
        sample_ids=tuple(f"s{i}" for i in range(len(labels))))


def _blobs(seed, n_per_class=20, n_features=8, gap=0.6):
    rng = np.random.default_rng(seed)
    slopes = rng.standard_normal((2 * n_per_class, n_features))
    slopes[n_per_class:] += gap * rng.uniform(0.0, 1.0, n_features)
    return _features_from(slopes, [0] * n_per_class + [1] * n_per_class)


def _ties(seed, n=30, n_features=5):
    # small integers: exact distance ties between training rows abound
    rng = np.random.default_rng(seed)
    labels = rng.permutation([0] * (n // 2) + [1] * (n - n // 2))
    slopes = rng.integers(0, 3, size=(n, n_features)) + labels[:, None]
    return _features_from(slopes, labels)


@pytest.fixture(scope="module")
def fbm_slopes():
    ds = two_class_fbm_dataset(n_per_class=14, hurst_control=0.45,
                               hurst_case=0.55, n_bins=2600, seed=4)
    grid = make_windows(ds.n_bins, 256, 200)
    return extract_features(ds, "wang", grid, MethodConfig("wang", 256, "haar", 8))


def _per_repeat(report):
    return [(float(te), float(tr)) for te, tr in report.per_repeat]


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_knn_per_repeat_identical_with_distance_ties(seed, standardize):
    fm = _ties(seed)
    split = SplitSpec(n_repeats=25, master_seed=seed)
    for k in (1, 4, 5):
        spec = ClassifierSpec(kind="knn", k=k)
        for p in (1, 2, 5):
            got = evaluate(fm, spec, p, split, apply_standardize=standardize,
                           keep_per_repeat=True)
            ref, _ = reference_evaluate(fm, spec, p, split, standardize)
            assert _per_repeat(got) == ref, (k, p)


@pytest.mark.parametrize("mode", ["per-split", "global"])
def test_knn_per_repeat_identical_on_fbm_slopes(fbm_slopes, mode):
    split = SplitSpec(n_repeats=30, master_seed=5)
    spec = ClassifierSpec(kind="knn")
    for p in (1, 3, fbm_slopes.n_windows):
        got = evaluate(fbm_slopes, spec, p, split, selection_mode=mode,
                       keep_per_repeat=True)
        ref, _ = reference_evaluate(fbm_slopes, spec, p, split,
                                    selection_mode=mode)
        assert _per_repeat(got) == ref, p


@pytest.mark.parametrize("fixture", ["fbm", "blobs0", "blobs1"])
def test_logistic_per_repeat_identical_beyond_margin(fbm_slopes, fixture):
    fm = fbm_slopes if fixture == "fbm" else _blobs(int(fixture[-1]))
    split = SplitSpec(n_repeats=30, master_seed=6)
    spec = ClassifierSpec(kind="logistic")
    for p in (1, 2, fm.n_windows):
        ref, margin = reference_evaluate(fm, spec, p, split)
        assert margin > MARGIN, (p, margin)
        got = evaluate(fm, spec, p, split, keep_per_repeat=True)
        assert _per_repeat(got) == ref, p


def test_split_features_equal_the_one_split_composition(fbm_slopes):
    # what the classifiers see is bitwise what fisher_scores, select_top
    # and standardize give each split on its own, for every p; a constant
    # window is centered only, with a warning
    labels = fbm_slopes.labels
    n_train = 19
    perms, _ = classify._draw_splits(labels, n_train, 9, range(6))
    ps = [1, 2, 5, fbm_slopes.n_windows]
    constant = fbm_slopes.slopes.copy()
    constant[:, 3] = 0.25
    for slopes in (fbm_slopes.slopes, constant):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            columns, _ = classify._split_features(slopes, labels, perms,
                                                  n_train, ps, True)
        assert [str(w.message) for w in caught] == (
            ["zero training std; feature centered only"]
            if slopes is constant else [])
        for i, perm in enumerate(perms):
            train, test = perm[:n_train], perm[n_train:]
            scores = fisher_scores(_features_from(slopes[train],
                                                  labels[train]))
            for p, z in zip(ps, columns):
                selected = select_top(scores, p)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # the constant window
                    x_train, x_test, _ = standardize(
                        slopes[np.ix_(train, selected)],
                        slopes[np.ix_(test, selected)])
                np.testing.assert_array_equal(z[i, :n_train], x_train)
                np.testing.assert_array_equal(z[i, n_train:], x_test)


@pytest.mark.parametrize("kind", ["logistic", "knn"])
def test_curve_cells_equal_evaluate_bitwise(fbm_slopes, kind):
    spec = ClassifierSpec(kind=kind)
    split = SplitSpec(n_repeats=12, master_seed=7)
    ps = [3, 1, fbm_slopes.n_windows, 2, 3]
    curve = accuracy_vs_feature_count(fbm_slopes, spec, ps, split)
    assert [r.p for r in curve] == ps
    for p, report in zip(ps, curve):
        assert report == evaluate(fbm_slopes, spec, p, split)


@pytest.mark.parametrize("kind", ["logistic", "knn"])
def test_threads_and_chunk_boundaries_do_not_change_results(
        fbm_slopes, kind, monkeypatch):
    spec = ClassifierSpec(kind=kind)
    split = SplitSpec(n_repeats=30, master_seed=8)

    def run(threads):
        return (evaluate(fbm_slopes, spec, 4, split, keep_per_repeat=True,
                         threads=threads),
                accuracy_vs_feature_count(fbm_slopes, spec, range(1, 6),
                                          split, threads=threads))

    base = run(1)
    monkeypatch.setattr(classify, "_CHUNK", 7)  # 7 + 7 + 7 + 7 + 2 splits
    monkeypatch.setattr(classify, "_KNN_BLOCK", 1)  # one split per block
    assert run(1) == base
    assert run(3) == base


def _skewed(seed, n=30, n_ones=6, n_features=6):
    # few positives: with a 0.3 training fraction, draws often lack two
    # of them and are redrawn
    rng = np.random.default_rng(seed)
    labels = rng.permutation([1] * n_ones + [0] * (n - n_ones))
    slopes = rng.standard_normal((n, n_features)) + 0.8 * labels[:, None]
    return _features_from(slopes, labels)


_SPECS = [ClassifierSpec(kind="logistic"), ClassifierSpec(kind="knn", k=3)]


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("mode", ["per-split", "global"])
@pytest.mark.parametrize("fixture", ["fbm", "skewed"])
def test_shared_pass_equals_one_classifier_calls(fbm_slopes, monkeypatch,
                                                 fixture, mode, standardize):
    fm = fbm_slopes if fixture == "fbm" else _skewed(3)
    split = SplitSpec(train_fraction=0.3 if fixture == "skewed" else 0.67,
                      n_repeats=30, master_seed=13)
    ps = range(1, 6)
    kwargs = dict(apply_standardize=standardize, selection_mode=mode)
    single = [evaluate(fm, spec, 4, split, keep_per_repeat=True, **kwargs)
              for spec in _SPECS]
    curves = [accuracy_vs_feature_count(fm, spec, ps, split, **kwargs)
              for spec in _SPECS]
    if fixture == "skewed":
        assert single[0].redraws > 0
    monkeypatch.setattr(classify, "_CHUNK", 7)  # 7 + 7 + 7 + 7 + 2 splits
    for threads in (1, 3):
        shared = evaluate_classifiers(fm, _SPECS,
                                      EvalSpec([4], None, mode, standardize),
                                      split, keep_per_repeat=True,
                                      threads=threads)
        assert shared == [[report] for report in single]
        assert evaluate_classifiers(fm, _SPECS,
                                    EvalSpec(ps, None, mode, standardize),
                                    split, threads=threads) == curves


@pytest.mark.parametrize("n_specs", [1, 2, 3])
def test_one_draw_and_ranking_per_chunk_for_any_classifier_count(
        fbm_slopes, monkeypatch, n_specs):
    specs = [*_SPECS, ClassifierSpec(kind="logistic", l2_c=0.1)][:n_specs]
    calls = {"_draw_splits": 0, "_split_features": 0}

    def counted(name):
        original = getattr(classify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(classify, name, counted(name))
    monkeypatch.setattr(classify, "_CHUNK", 7)
    reports = evaluate_classifiers(fbm_slopes, specs, EvalSpec(range(1, 4)),
                                   SplitSpec(n_repeats=30, master_seed=2))
    assert [len(r) for r in reports] == [3] * n_specs
    assert calls == {"_draw_splits": 5, "_split_features": 5}


def test_every_classifier_is_checked_before_the_first_draw(fbm_slopes,
                                                           monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a split was drawn")

    monkeypatch.setattr(classify, "_draw_splits", no_draw)
    split = SplitSpec(n_repeats=5)
    with pytest.raises(ConfigurationError, match="k=30 exceeds 19 training"):
        evaluate_classifiers(fbm_slopes, [_SPECS[0], ClassifierSpec(
            kind="knn", k=30)], EvalSpec([1]), split)
    with pytest.raises(ConfigurationError, match="p must be in"):
        evaluate_classifiers(fbm_slopes, _SPECS,
                             EvalSpec([1, fbm_slopes.n_windows + 1]), split)


def _batch(seed, c=9, n=24, p=4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((c, n, p))
    y = (x[:, :, 0] + rng.standard_normal((c, n)) > 0).astype(float)
    return x, y


def test_train_logistic_is_the_batched_row_bitwise(monkeypatch):
    x, y = _batch(9)
    w, b, converged, iters = classify._fit_logistic(x, y, 1.0, 500, 1e-6)
    w_sub, b_sub, _, _ = classify._fit_logistic(x[3:7], y[3:7], 1.0, 500,
                                                1e-6)
    assert converged.all()
    for i in range(len(x)):
        model = train_logistic(x[i], y[i])
        np.testing.assert_array_equal(model.weights, w[i])
        assert model.bias == b[i]
        assert (model.converged, model.n_iters) == (converged[i], iters[i])
        labels, probs = predict_logistic(model, x[i])
        batch_labels, batch_probs = classify._predict(x, w, b)
        np.testing.assert_array_equal(probs, batch_probs[i])
        np.testing.assert_array_equal(labels, batch_labels[i])
    np.testing.assert_array_equal(w_sub, w[3:7])
    np.testing.assert_array_equal(b_sub, b[3:7])
    # a problem whose Newton steps are halved by the line search
    x1 = np.random.default_rng(184).standard_normal((6, 2))
    y1 = (x1[:, 0] > np.median(x1[:, 0])).astype(float)
    objective = classify._objective
    calls = []
    monkeypatch.setattr(classify, "_objective",
                        lambda *args: calls.append(1) or objective(*args))
    model = train_logistic(x1, y1, l2_c=1e8)
    assert len(calls) > 1 + model.n_iters  # one more per halving
    rng = np.random.default_rng(3)
    xs = np.concatenate([x1[None], rng.standard_normal((3, 6, 2))])
    ys = np.concatenate([y1[None], rng.standard_normal((3, 6)) > 0]) * 1.0
    w, b, converged, iters = classify._fit_logistic(xs, ys, 1e8, 500, 1e-6)
    for i in range(len(xs)):
        model = train_logistic(xs[i], ys[i], l2_c=1e8)
        np.testing.assert_array_equal(model.weights, w[i])
        assert model.bias == b[i]
        assert (model.converged, model.n_iters) == (converged[i], iters[i])


def test_knn_predict_is_the_batched_row():
    x, y = _batch(10)
    y = y.astype(np.int8)
    queries = np.round(x[:, :7] * 2.0) / 2.0
    votes = classify._knn_votes(np.round(x * 2.0) / 2.0, y, queries, 5)
    for i in range(len(x)):
        np.testing.assert_array_equal(
            knn_predict(np.round(x[i] * 2.0) / 2.0, y[i], queries[i], k=5),
            votes[i])


def test_nonconverged_fits_warn_once_each():
    x, y = _batch(11, c=3)
    with pytest.warns(RuntimeWarning, match="did not converge") as caught:
        _, _, converged, iters = classify._fit_logistic(x, y, 1.0, 1, 1e-12)
    assert not converged.any() and (iters == 1).all()
    assert sum("did not converge" in str(w.message) for w in caught) == 3


def test_fisher_ratio_rows_equal_one_matrix_calls():
    rng = np.random.default_rng(12)
    values = rng.standard_normal((6, 20, 7)) * 10 ** rng.uniform(-3, 3, 7)
    labels = np.array([rng.permutation([0] * 9 + [1] * 11) for _ in range(6)])
    batched = fisher_ratio(values, labels)
    for i in range(6):
        one = fisher_scores(_features_from(values[i], labels[i]))
        np.testing.assert_array_equal(batched[i], one)
        np.testing.assert_array_equal(
            one, reference_fisher(values[i], labels[i].astype(np.int8)))
