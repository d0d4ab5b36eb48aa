"""Repeated-split evaluation on synthetic two-class features.

Demonstrates the full harness: seeded splits, in-loop Fisher selection,
standardization, both classifiers, the accuracy-vs-feature-count curve,
and the correlation matrix of the selected windows.
"""

import numpy as np

from wavescale import (
    ClassifierSpec,
    EvalSpec,
    SplitSpec,
    accuracy_vs_feature_count,
    evaluate,
    evaluate_classifiers,
    extract_features,
    feature_correlation,
    fisher_scores,
    make_windows,
    select_top,
    two_class_fbm_dataset,
)

dataset = two_class_fbm_dataset(n_per_class=30, n_bins=8192, seed=9)
grid = make_windows(dataset.n_bins, 1024, 1024)
features = extract_features(dataset, "dwt", grid)
split = SplitSpec(train_fraction=0.67, n_repeats=300, master_seed=17)

print("classifier          p   test acc %   train acc %")
# one pass: both classifiers score the same splits, rankings and scalings
for (rep,) in evaluate_classifiers(
        features, [ClassifierSpec(kind="logistic"), ClassifierSpec(kind="knn")],
        EvalSpec([4]), split):
    print(f"{rep.classifier:18s} {rep.p:3d}   {rep.mean_test_accuracy:7.2f}"
          f"      {rep.mean_train_accuracy:7.2f}")

# chance level when the labels carry no information
rng = np.random.default_rng(1)
from wavescale import FeatureMatrix
shuffled = FeatureMatrix(
    method=features.method, slopes=features.slopes, hurst=features.hurst,
    labels=rng.permutation(features.labels), sample_ids=features.sample_ids,
    grid=features.grid)
rep = evaluate(shuffled, ClassifierSpec(kind="logistic"), p=4, split=split)
print(f"shuffled labels         {rep.mean_test_accuracy:7.2f}")

print("\naccuracy vs number of kept windows (knn, 100 repeats):")
curve = accuracy_vs_feature_count(
    features, ClassifierSpec(kind="knn"), p_range=range(1, grid.count + 1),
    split=SplitSpec(n_repeats=100, master_seed=18))
for rep in curve:
    bar = "#" * int(rep.mean_test_accuracy / 2)
    print(f"  p={rep.p:2d} {rep.mean_test_accuracy:6.2f} {bar}")

selected = select_top(fisher_scores(features), 4)
corr = feature_correlation(features, selected)
print(f"\ncorrelation of the top {len(selected)} windows "
      f"({[int(i) + 1 for i in selected]}):")
for row in corr:
    print("  " + " ".join(f"{v:+.2f}" for v in row))
