import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

import wavescale.classify as classify
from oracles import (finite_difference_gradient, knn_predict_bruteforce,
                     reference_sigmoid)
from wavescale import (
    ClassifierSpec,
    ConfigurationError,
    EvalSpec,
    EstimationError,
    FeatureMatrix,
    SplitSpec,
    accuracy_vs_feature_count,
    evaluate,
    evaluate_classifiers,
    feature_correlation,
    knn_predict,
    logistic_gradient,
    logistic_objective,
    predict_logistic,
    standardize,
    train_logistic,
)
from wavescale.classify import _sigmoid, _split_features


def _features_from(slopes, labels):
    slopes = np.asarray(slopes, dtype=float)
    return FeatureMatrix(
        method="dwt", slopes=slopes, hurst=np.full_like(slopes, np.nan),
        labels=np.asarray(labels, dtype=np.int8),
        sample_ids=tuple(f"s{i}" for i in range(len(labels))))


def _gaussian_blobs(n_per_class=40, n_features=6, gap=2.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per_class, n_features))
    b = rng.standard_normal((n_per_class, n_features)) + gap
    slopes = np.vstack([a, b])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return _features_from(slopes, labels)


# ------------------------------------------------------------ standardize

def test_standardize_examples():
    train = np.array([[0.0], [2.0]])
    test = np.array([[1.0]])
    tr, te, t = standardize(train, test)
    np.testing.assert_allclose(tr, [[-1.0], [1.0]])
    np.testing.assert_allclose(te, [[0.0]])
    assert not t.degenerate.any()


def test_standardize_idempotent():
    rng = np.random.default_rng(1)
    train = rng.standard_normal((20, 3)) * 5 + 2
    tr1, _, _ = standardize(train, train)
    tr2, _, _ = standardize(tr1, tr1)
    np.testing.assert_allclose(tr2, tr1, atol=1e-12)


def test_standardize_degenerate_feature_flagged():
    train = np.array([[1.0, 2.0], [1.0, 4.0]])
    with pytest.warns(RuntimeWarning):
        tr, _, t = standardize(train, train)
    assert t.degenerate[0] and not t.degenerate[1]
    np.testing.assert_allclose(tr[:, 0], [0.0, 0.0])


def test_standardize_needs_two_rows():
    with pytest.raises(EstimationError):
        standardize(np.ones((1, 2)), np.ones((1, 2)))


# --------------------------------------------------------------- logistic

def test_sigmoid_is_the_masked_formula_bitwise():
    rng = np.random.default_rng(0)
    cases = [scale * rng.standard_normal(shape)
             for shape in [(10, 19), (64, 19), (64, 253), (1, 5)]
             for scale in (1.0, 30.0, 1000.0)]
    cases.append(np.array([0.0, -0.0, np.inf, -np.inf, 710.0, -710.0,
                           745.2, -745.2, 1e-300, -1e-300]))
    for s in cases:
        assert _sigmoid(s).tobytes() == reference_sigmoid(s).tobytes()
    assert np.isnan(_sigmoid(np.array([np.nan, -np.nan]))).all()


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 4))
    y = (rng.uniform(size=30) > 0.5).astype(float)
    for _ in range(100):
        w = rng.standard_normal(4)
        b = float(rng.standard_normal())
        gw, gb = logistic_gradient(w, b, x, y, l2_c=1.0)
        analytic = np.concatenate([gw, [gb]])

        def fn(params):
            return logistic_objective(params[:4], params[4], x, y, l2_c=1.0)

        numeric = finite_difference_gradient(fn, np.concatenate([w, [b]]))
        denom = max(1.0, np.linalg.norm(numeric))
        assert np.linalg.norm(analytic - numeric) / denom < 1e-6


def test_logistic_matches_convex_optimizer_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 3))
    truth = np.array([2.0, -1.0, 0.5])
    y = (x @ truth + 0.3 * rng.standard_normal(60) > 0).astype(float)
    model = train_logistic(x, y, l2_c=1.0, max_iters=5000, tol=1e-9)
    assert model.converged

    def objective(params):
        return logistic_objective(params[:3], params[3], x, y, l2_c=1.0)

    ref = scipy.optimize.minimize(
        objective, np.zeros(4), method="BFGS",
        options={"gtol": 1e-10, "maxiter": 2000})
    ours = logistic_objective(model.weights, model.bias, x, y, 1.0)
    assert ours == pytest.approx(ref.fun, abs=1e-8)
    np.testing.assert_allclose(model.weights, ref.x[:3], atol=1e-4)


def test_logistic_separable_data_bounded_weights():
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = train_logistic(x, y, l2_c=1.0, max_iters=4000, tol=1e-8)
    assert model.converged
    assert np.isfinite(model.weights).all()
    labels, _ = predict_logistic(model, x)
    np.testing.assert_array_equal(labels, y.astype(np.int8))


def test_logistic_degenerate_single_class():
    # all-zero labels: the optimum drives the bias toward -inf with a
    # vanishing gradient, so ask only for a loose tolerance
    rng = np.random.default_rng(4)
    x = rng.standard_normal((25, 2))
    y = np.zeros(25)
    model = train_logistic(x, y, l2_c=1.0, max_iters=3000, tol=1e-3)
    labels, probs = predict_logistic(model, x)
    assert (labels == 0).all()
    assert model.bias < -1.0
    assert np.abs(model.weights).max() < 1.0


def test_logistic_objective_convexity_endpoint():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 3))
    y = (rng.uniform(size=40) > 0.4).astype(float)
    model = train_logistic(x, y)
    final = logistic_objective(model.weights, model.bias, x, y, 1.0)
    at_zero = logistic_objective(np.zeros(3), 0.0, x, y, 1.0)
    assert final <= at_zero + 1e-12


def test_predict_logistic_trivials():
    model_zero = train_logistic(np.zeros((4, 2)), np.array([0, 1, 0, 1.0]),
                                max_iters=1)
    labels, probs = predict_logistic(model_zero, np.ones((3, 2)))
    np.testing.assert_allclose(probs, 0.5)
    np.testing.assert_array_equal(labels, 0)


@pytest.mark.parametrize("kwargs, message", [
    ({"l2_c": float("nan")}, "l2_c must be finite and > 0, got nan"),
    ({"l2_c": -1e-300}, "l2_c must be finite and > 0, got -1e-300"),
    ({"max_iters": -3}, "max_iters must be >= 1, got -3"),
    ({"tol": float("nan")}, "tol must be finite and > 0, got nan"),
    ({"tol": float("inf")}, "tol must be finite and > 0, got inf"),
    ({"tol": 0.0}, "tol must be finite and > 0, got 0.0"),
    ({"l2_c": "1"}, "l2_c must be finite and > 0, got '1'"),
    ({"l2_c": True}, "l2_c must be finite and > 0, got True"),
    ({"tol": "1e-6"}, "tol must be finite and > 0, got '1e-6'"),
    ({"tol": True}, "tol must be finite and > 0, got True"),
    ({"train_fraction": "a"}, "train_fraction must be in (0, 1), got 'a'"),
], ids=["C-nan", "C-tiny", "max-iters", "tol-nan", "tol-inf", "tol-zero",
        "C-string", "C-bool", "tol-string", "tol-bool", "train-fraction"])
def test_logistic_settings_checked_by_the_spec(kwargs, message):
    x = np.zeros((4, 2))
    y = np.array([0, 1, 0, 1.0])
    calls = ([SplitSpec] if "train_fraction" in kwargs else
             [lambda **kw: train_logistic(x, y, **kw), ClassifierSpec])
    for call in calls:
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            call(**kwargs)


# -------------------------------------------------------------------- knn

def test_knn_exact_training_point():
    x = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]])
    y = np.array([0, 1, 0])
    pred = knn_predict(x, y, np.array([[5.0, 5.0]]), k=1)
    assert pred[0] == 1


def test_knn_two_clusters():
    rng = np.random.default_rng(6)
    a = rng.normal(0.0, 0.5, size=(20, 2))
    b = rng.normal(10.0, 0.5, size=(20, 2))
    x = np.vstack([a, b])
    y = np.array([0] * 20 + [1] * 20)
    test = np.array([[0.2, -0.1], [9.8, 10.1]])
    np.testing.assert_array_equal(knn_predict(x, y, test, k=5), [0, 1])


def test_knn_agrees_with_bruteforce_oracle():
    rng = np.random.default_rng(7)
    for trial in range(25):
        x = rng.integers(0, 4, size=(12, 3)).astype(float)  # many ties
        y = rng.integers(0, 2, size=12)
        test = rng.integers(0, 4, size=(6, 3)).astype(float)
        k = int(rng.integers(1, 8))
        np.testing.assert_array_equal(
            knn_predict(x, y, test, k=k),
            knn_predict_bruteforce(x, y, test, k=k), err_msg=f"trial {trial}")


def test_knn_parameter_validation():
    x = np.zeros((3, 2))
    y = np.array([0, 1, 0])
    with pytest.raises(ConfigurationError):
        knn_predict(x, y, x, k=0)
    with pytest.raises(ConfigurationError):
        knn_predict(x, y, x, k=4)


# --------------------------------------------------------------- evaluate

def test_evaluate_separable_blobs_high_accuracy():
    fm = _gaussian_blobs(gap=3.0)
    rep = evaluate(fm, ClassifierSpec(kind="logistic"), p=4,
                   split=SplitSpec(n_repeats=60, master_seed=1))
    assert rep.mean_test_accuracy > 95.0
    assert rep.n_repeats == 60


def test_evaluate_shuffled_labels_chance_level():
    # noise features at the pipeline geometry (29 windows, 50 per class,
    # p=10): per-split selection keeps test accuracy at chance level,
    # while global pre-selection leaks and inflates it
    rng = np.random.default_rng(8)
    slopes = rng.standard_normal((100, 29))
    labels = rng.permutation(np.array([0] * 50 + [1] * 50))
    fm = _features_from(slopes, labels)
    rep = evaluate(fm, ClassifierSpec(kind="logistic"), p=10,
                   split=SplitSpec(n_repeats=200, master_seed=2))
    assert abs(rep.mean_test_accuracy - 50.0) < 5.0
    leaky = evaluate(fm, ClassifierSpec(kind="logistic"), p=10,
                     split=SplitSpec(n_repeats=200, master_seed=2),
                     selection_mode="global")
    assert leaky.mean_test_accuracy > rep.mean_test_accuracy + 3.0


def test_evaluate_deterministic_and_thread_invariant():
    fm = _gaussian_blobs()
    kwargs = dict(features=fm, classifier_spec=ClassifierSpec(kind="knn"),
                  p=3, split=SplitSpec(n_repeats=24, master_seed=5))
    r1 = evaluate(threads=1, **kwargs)
    r2 = evaluate(threads=4, **kwargs)
    assert r1 == r2


def test_evaluate_rejects_a_thread_count_below_1():
    with pytest.raises(ConfigurationError,
                       match="threads must be >= 1, got 0"):
        evaluate(_gaussian_blobs(), ClassifierSpec(kind="knn"), p=3,
                 split=SplitSpec(n_repeats=4), threads=0)


def test_evaluate_affine_rescaling_invariance():
    fm = _gaussian_blobs(seed=10)
    rng = np.random.default_rng(11)
    scale = rng.uniform(0.5, 4.0, size=fm.n_windows)
    shift = rng.uniform(-10, 10, size=fm.n_windows)
    rescaled = _features_from(fm.slopes * scale + shift, fm.labels)
    for kind in ("logistic", "knn"):
        base = evaluate(fm, ClassifierSpec(kind=kind), p=4,
                        split=SplitSpec(n_repeats=30, master_seed=3))
        other = evaluate(rescaled, ClassifierSpec(kind=kind), p=4,
                         split=SplitSpec(n_repeats=30, master_seed=3))
        assert other.mean_test_accuracy == pytest.approx(
            base.mean_test_accuracy, abs=1e-9)


def test_selection_never_reads_test_labels():
    # poisoning every held-out label must not change the selected windows
    fm = _gaussian_blobs(seed=12)
    labels = fm.labels.copy()
    n = len(labels)
    rng = np.random.default_rng(13)
    perm = rng.permutation(n)
    test_idx = perm[60:]
    _, order = _split_features(fm.slopes, labels, perm[None], 60, [4], True)
    poisoned = labels.copy()
    poisoned[test_idx] = 1 - poisoned[test_idx]
    _, order_p = _split_features(fm.slopes, poisoned, perm[None], 60, [4],
                                 True)
    np.testing.assert_array_equal(order[0, :4], order_p[0, :4])


def test_global_selection_mode_differs_and_is_reported():
    fm = _gaussian_blobs(seed=14, gap=0.8)
    per = evaluate(fm, ClassifierSpec(kind="knn"), p=2,
                   split=SplitSpec(n_repeats=40, master_seed=6),
                   selection_mode="per-split")
    glob = evaluate(fm, ClassifierSpec(kind="knn"), p=2,
                    split=SplitSpec(n_repeats=40, master_seed=6),
                    selection_mode="global")
    assert per.selection_mode == "per-split"
    assert glob.selection_mode == "global"


def test_evaluate_counts_redraws():
    # 3 cases vs 37 controls: tiny training fractions often miss the cases
    slopes = np.vstack([np.random.default_rng(15).standard_normal((40, 3))])
    labels = np.array([1] * 3 + [0] * 37)
    fm = _features_from(slopes, labels)
    rep = evaluate(fm, ClassifierSpec(kind="knn", k=1), p=1,
                   split=SplitSpec(train_fraction=0.1, n_repeats=100,
                                   master_seed=7))
    assert rep.redraws > 0


@pytest.mark.parametrize("fraction", [0.3, 0.5, 0.7])
def test_split_check_admits_exactly_the_drawable_training_sizes(fraction):
    """check_evaluation refuses a split exactly when no training subset
    holds two samples of each class, and otherwise the redraws find one."""
    split = SplitSpec(train_fraction=fraction, n_repeats=1)
    for n_case in range(7):
        for n_control in range(7):
            n_train = classify._training_rows(n_case + n_control, split)
            labels = np.array([1] * n_case + [0] * n_control, dtype=np.int8)
            if any(n_train - n_control <= ones <= n_case
                   for ones in range(2, n_train - 1)):
                classify.check_evaluation([], [], 1, n_case, n_control, split)
                classify._draw_splits(labels, n_train, 0, range(5))
                continue
            with pytest.raises(ConfigurationError, match=(
                    f"train fraction {fraction} gives {n_train} training rows "
                    f"of {n_case} case and {n_control} control samples, which "
                    f"can never hold two samples of each class")):
                classify.check_evaluation([], [], 1, n_case, n_control, split)


def test_evaluate_validates_p():
    fm = _gaussian_blobs()
    with pytest.raises(ConfigurationError):
        evaluate(fm, ClassifierSpec(), p=0, split=SplitSpec(n_repeats=2))
    with pytest.raises(ConfigurationError):
        evaluate(fm, ClassifierSpec(), p=7, split=SplitSpec(n_repeats=2))


# ------------------------------------------------------------------ curve

def test_accuracy_vs_feature_count_shape():
    fm = _gaussian_blobs(n_per_class=25, n_features=5, seed=16)
    reports = accuracy_vs_feature_count(
        fm, ClassifierSpec(kind="knn"), p_range=range(1, 6),
        split=SplitSpec(n_repeats=12, master_seed=8))
    assert len(reports) == 5
    assert [r.p for r in reports] == [1, 2, 3, 4, 5]
    single = evaluate(fm, ClassifierSpec(kind="knn"), p=5,
                      split=SplitSpec(n_repeats=12, master_seed=8))
    assert reports[-1] == single


def test_accuracy_vs_feature_count_defaults():
    """Without ``p_range`` and ``split`` the curve covers 1..W on 1,000
    splits."""
    fm = _gaussian_blobs(n_per_class=6, n_features=3, seed=4)
    spec = ClassifierSpec(kind="knn", k=3)
    reports = accuracy_vs_feature_count(fm, spec)
    assert [r.n_repeats for r in reports] == [1000] * 3
    assert reports == accuracy_vs_feature_count(
        fm, spec, range(1, 4), SplitSpec(n_repeats=1000))


@pytest.mark.parametrize("mode", ["per-split", "global"])
@pytest.mark.parametrize("curve_repeats", [5, 9, 23])
def test_per_p_repeat_counts_equal_separate_calls(monkeypatch, mode,
                                                  curve_repeats):
    # p = 3 on 9 splits and a curve on curve_repeats splits: one call gives
    # what a call per repeat count gives, per-repeat records and redraws too
    rng = np.random.default_rng(21)
    labels = rng.permutation([1] * 6 + [0] * 24)  # some draws are redrawn
    fm = _features_from(rng.standard_normal((30, 5)) + 0.8 * labels[:, None],
                        labels)
    specs = [ClassifierSpec(kind="logistic"), ClassifierSpec(kind="knn", k=3)]
    split = SplitSpec(train_fraction=0.3, n_repeats=9, master_seed=13)
    curve = [1, 3, 5, 3]
    single = evaluate_classifiers(fm, specs, EvalSpec([3], None, mode),
                                  split, keep_per_repeat=True)
    curves = evaluate_classifiers(
        fm, specs, EvalSpec(curve, None, mode),
        replace(split, n_repeats=curve_repeats), keep_per_repeat=True)
    assert all(r.redraws > 0 for r in curves[0])
    monkeypatch.setattr(classify, "_CHUNK", 4)  # and chunks end at each count
    for threads in (1, 3):
        shared = evaluate_classifiers(
            fm, specs, EvalSpec([3, *curve],
                                [9] + [curve_repeats] * len(curve), mode),
            split, keep_per_repeat=True, threads=threads)
        assert shared == [a + b for a, b in zip(single, curves)]


def test_repeat_counts_are_checked():
    fm = _gaussian_blobs()
    split = SplitSpec(n_repeats=2)
    with pytest.raises(ConfigurationError,
                       match=r"^repeats\[1\] must be >= 1, got 0$"):
        evaluate_classifiers(fm, [ClassifierSpec()], EvalSpec([1, 2], [2, 0]),
                             split)
    with pytest.raises(ConfigurationError,
                       match="1 repeats for 2 ps"):
        evaluate_classifiers(fm, [ClassifierSpec()], EvalSpec([1, 2], [2]),
                             split)
    # a count that is not an integer is refused, not truncated
    for ps, repeats, message in [
            ([2.7], [2], "ps[0] must be an integer, got 2.7"),
            ([2], [2.9], "repeats[0] must be an integer, got 2.9"),
            ([1, True], [2, 2], "ps[1] must be an integer, got True"),
            ([2], [np.float64(2.0)],
             f"repeats[0] must be an integer, got {np.float64(2.0)!r}")]:
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            evaluate_classifiers(fm, [ClassifierSpec()],
                                 EvalSpec(ps, repeats), split)
    # numpy integers are integers
    assert (evaluate_classifiers(fm, [ClassifierSpec()],
                                 EvalSpec([np.int64(2)], [np.int32(2)]), split)
            == evaluate_classifiers(fm, [ClassifierSpec()],
                                    EvalSpec([2], [2]), split))


# ------------------------------------------------------------ correlation

def test_feature_correlation_trivials():
    rng = np.random.default_rng(17)
    col = rng.standard_normal(50)
    slopes = np.column_stack([col, col * 2.0 + 1.0, rng.standard_normal(50)])
    fm = _features_from(slopes, np.array([0, 1] * 25))
    corr = feature_correlation(fm)
    assert corr.shape == (3, 3)
    np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
    assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)  # duplicated direction
    assert abs(corr[0, 2]) < 0.5
    np.testing.assert_allclose(corr, corr.T, atol=1e-15)


def test_feature_correlation_independent_columns_small():
    rng = np.random.default_rng(18)
    fm = _features_from(rng.standard_normal((1000, 4)),
                        np.array([0, 1] * 500))
    corr = feature_correlation(fm)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.abs(off).max() < 0.1


def test_feature_correlation_zero_variance_missing():
    slopes = np.column_stack([np.ones(10), np.arange(10.0)])
    fm = _features_from(slopes, np.array([0, 1] * 5))
    with pytest.warns(RuntimeWarning):
        corr = feature_correlation(fm)
    assert np.isnan(corr[0, 0]) and np.isnan(corr[0, 1])
    assert corr[1, 1] == pytest.approx(1.0)
