"""CART forest: gini, split search, voting, importances, pruning,
persistence. Oracle checks reimplement routing and vote counting
independently of the library code paths they verify."""

from __future__ import annotations

import numpy as np
import pytest

from hybrid_ids.dataset import CoarseLabel, Dataset, N_FEATURES
from hybrid_ids.random_forest import (
    ForestConfig,
    ForestModel,
    TreeNode,
    feature_importance,
    gini,
    load_forest,
    predict_batch,
    prune_and_retrain,
    save_forest,
    train_forest,
    train_tree,
    tree_apply,
)

from conftest import separable_dataset


def leaf(counts) -> TreeNode:
    node = TreeNode()
    node.counts = np.asarray(counts, dtype=np.int64)
    return node


def forest_of(leaves: list[TreeNode]) -> ForestModel:
    return ForestModel(
        trees=leaves,
        config=ForestConfig(n_trees=len(leaves)),
        feature_importances=np.zeros(N_FEATURES),
        active_features=np.arange(N_FEATURES),
    )


def pad(X: np.ndarray) -> np.ndarray:
    """Lift a small feature matrix into the 41-column space (extra columns 0)."""
    out = np.zeros((len(X), N_FEATURES))
    out[:, : X.shape[1]] = X
    return out


def test_gini_hand_cases():
    assert gini((4, 0, 0, 0, 0)) == 0.0
    assert gini((2, 2, 0, 0, 0)) == 0.5
    assert gini((1, 1, 1, 1, 1)) == pytest.approx(0.8, abs=1e-15)


def test_gini_empty_errors():
    with pytest.raises(ValueError):
        gini((0, 0, 0, 0, 0))


def test_gini_range_property():
    rng = np.random.default_rng(0)
    for _ in range(200):
        counts = rng.integers(0, 50, size=5)
        if counts.sum() == 0:
            counts[0] = 1
        assert 0.0 <= gini(counts) <= 0.8 + 1e-12


def _grow(X, y, config=None, seed=0, all_features=True):
    config = config or ForestConfig()
    n_features = X.shape[1]
    if all_features:
        config = ForestConfig(
            n_trees=1, max_depth=config.max_depth,
            min_samples_split=config.min_samples_split,
            features_per_split=n_features, seed=seed,
        )
    rng = np.random.default_rng(seed)
    return train_tree(
        X, np.asarray(y), np.arange(len(X)), config, rng, np.arange(n_features)
    )


def test_tree_single_label_is_leaf():
    X = np.random.default_rng(0).normal(size=(10, 5))
    root = _grow(X, [2] * 10)
    assert root.is_leaf
    assert root.counts[2] == 10


def test_tree_one_dimensional_stump():
    X = np.array([[0.0], [1.0]])
    root = _grow(X, [0, 1])
    assert not root.is_leaf
    assert root.feature == 0
    assert root.threshold == 0.5
    assert root.left.is_leaf and root.right.is_leaf
    assert root.left.counts[0] == 1 and root.right.counts[1] == 1


def test_tree_identical_features_mixed_labels():
    X = np.ones((6, 4))
    root = _grow(X, [0, 0, 1, 1, 1, 0])
    assert root.is_leaf
    assert root.counts[0] == 3 and root.counts[1] == 3


def test_tree_depth_bound():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 3))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0).astype(int)
    root = _grow(X, y, config=ForestConfig(max_depth=1))

    def depth(node):
        if node.is_leaf:
            return 0
        return 1 + max(depth(node.left), depth(node.right))

    assert depth(root) <= 1


def test_tree_min_samples_split():
    X = np.array([[0.0], [1.0], [2.0]])
    root = _grow(X, [0, 1, 1], config=ForestConfig(min_samples_split=4))
    assert root.is_leaf


def test_tree_order_invariance():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 5))
    y = (X[:, 2] > 0.2).astype(int)
    a = _grow(X, y, seed=5)
    perm = rng.permutation(40)
    b = _grow(X[perm], y[perm], seed=5)
    probe = rng.normal(size=(100, 5))
    assert np.array_equal(tree_apply(a, probe)[0], tree_apply(b, probe)[0])


def test_single_tree_forest_equals_tree():
    ds = separable_dataset(n_per_label=12, seed=4)
    cfg = ForestConfig(n_trees=1, seed=2, bootstrap=False,
                       features_per_split=N_FEATURES)
    model = train_forest(ds, cfg)
    rng = np.random.default_rng(0)
    probe = rng.normal(size=(100, N_FEATURES)) * 4
    tree_preds, _ = tree_apply(model.trees[0], probe)
    assert np.array_equal(predict_batch(model, probe), tree_preds)


def test_vote_mode_hand_cases():
    x = np.zeros((1, N_FEATURES))
    three = forest_of([leaf([0, 5, 0, 0, 0]), leaf([0, 5, 0, 0, 0]), leaf([5, 0, 0, 0, 0])])
    assert predict_batch(three, x).tolist() == [CoarseLabel.DOS]
    # 1-1 vote with equal mass: lower class index wins
    equal = forest_of([leaf([5, 0, 0, 0, 0]), leaf([0, 5, 0, 0, 0])])
    assert predict_batch(equal, x).tolist() == [CoarseLabel.NORMAL]
    # 1-1 vote, heavier summed mass on dos: dos wins
    heavy = forest_of([leaf([5, 2, 0, 0, 0]), leaf([0, 9, 0, 0, 0])])
    assert predict_batch(heavy, x).tolist() == [CoarseLabel.DOS]


def test_leaf_tie_goes_to_lower_class_index():
    model = forest_of([leaf([3, 3, 0, 0, 0])])
    assert predict_batch(model, np.zeros((1, N_FEATURES))).tolist() == [CoarseLabel.NORMAL]


def test_forest_vote_matches_exhaustive_oracle():
    ds = separable_dataset(n_per_label=10, seed=5, spread=1.5)
    model = train_forest(ds, ForestConfig(n_trees=7, seed=8))
    rng = np.random.default_rng(9)
    probe = rng.normal(size=(100, N_FEATURES)) * 5

    def route_one(node, x):
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.counts

    got = predict_batch(model, probe)
    for i, x in enumerate(probe):
        votes = np.zeros(5, dtype=int)
        mass = np.zeros(5, dtype=int)
        for tree in model.trees:
            counts = route_one(tree, x)
            votes[int(np.argmax(counts))] += 1
            mass += counts
        best = np.flatnonzero(votes == votes.max())
        if len(best) > 1:
            heaviest = best[mass[best] == mass[best].max()]
            expected = int(heaviest.min())
        else:
            expected = int(best[0])
        assert got[i] == expected


def test_importance_concentrates_on_splitting_feature():
    # only feature 3 varies, so every split must use it
    rng = np.random.default_rng(6)
    X = np.zeros((60, N_FEATURES))
    X[:, 3] = rng.normal(size=60)
    y = (X[:, 3] > 0).astype(int)
    ds = Dataset(X, ["a"] * 60, y)
    model = train_forest(ds, ForestConfig(n_trees=5, seed=1, features_per_split=41))
    imp = feature_importance(model)
    assert imp[3] == pytest.approx(1.0)
    assert np.all(imp[np.arange(N_FEATURES) != 3] == 0.0)


def test_importances_nonnegative_sum_to_one():
    ds = separable_dataset(n_per_label=15, seed=7)
    model = train_forest(ds, ForestConfig(n_trees=10, seed=3))
    imp = feature_importance(model)
    assert np.all(imp >= 0)
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)


def test_informative_feature_ranks_first():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(300, N_FEATURES))
    y = (X[:, 7] > 0.5).astype(int)
    ds = Dataset(X, ["a"] * 300, y)
    model = train_forest(ds, ForestConfig(n_trees=20, seed=4))
    imp = feature_importance(model)
    assert int(np.argmax(imp)) == 7


def test_forest_deterministic():
    ds = separable_dataset(n_per_label=10, seed=9)
    probe = np.random.default_rng(1).normal(size=(50, N_FEATURES))
    a = train_forest(ds, ForestConfig(n_trees=5, seed=11))
    b = train_forest(ds, ForestConfig(n_trees=5, seed=11))
    assert np.array_equal(predict_batch(a, probe), predict_batch(b, probe))
    assert np.array_equal(a.feature_importances, b.feature_importances)


def test_monotone_rescaling_keeps_predictions():
    ds = separable_dataset(n_per_label=12, seed=10)
    probe = np.random.default_rng(2).normal(size=(80, N_FEATURES)) * 3
    cfg = ForestConfig(n_trees=5, seed=6)
    base = predict_batch(train_forest(ds, cfg), probe)
    scale, shift = 3.0, 1.0
    scaled = Dataset(ds.X * scale + shift, ds.fine_labels, ds.coarse)
    rescaled = predict_batch(train_forest(scaled, cfg), probe * scale + shift)
    assert np.array_equal(base, rescaled)


def test_prune_threshold_one_keeps_nonzero_importance_features():
    ds = separable_dataset(n_per_label=12, seed=11)
    cfg = ForestConfig(n_trees=8, seed=12, importance_keep_threshold=1.0)
    model = train_forest(ds, cfg)
    pruned = prune_and_retrain(ds, model, cfg)
    nonzero = set(np.flatnonzero(model.feature_importances > 0))
    assert set(pruned.active_features.tolist()) == nonzero


def test_prune_synthetic_single_informative_feature():
    # feature 7 separates perfectly; the other 40 are noise
    rng = np.random.default_rng(13)
    X = rng.normal(size=(200, N_FEATURES)) * 0.05
    X[:, 7] = rng.normal(size=200)
    y = (X[:, 7] > 0).astype(int)
    ds = Dataset(X, ["a"] * 200, y)
    cfg = ForestConfig(n_trees=10, seed=5, features_per_split=N_FEATURES,
                       importance_keep_threshold=0.99)
    model = train_forest(ds, cfg)
    pruned = prune_and_retrain(ds, model, cfg)
    assert len(pruned.active_features) <= 3
    assert 7 in pruned.active_features
    inactive = np.setdiff1d(np.arange(N_FEATURES), pruned.active_features)
    assert np.all(pruned.feature_importances[inactive] == 0.0)
    acc = (predict_batch(pruned, ds.X) == y).mean()
    assert acc >= 0.99


def test_prune_keeps_unpruned_model_on_degradation():
    # x0 carries most of the importance but a 1/3 subgroup is only
    # resolvable through x1; pruning to x0 alone degrades > 0.5pp
    rng = np.random.default_rng(14)
    n = 300
    X = np.zeros((n, N_FEATURES))
    x0 = rng.integers(0, 3, size=n)
    x1 = rng.normal(size=n)
    X[:, 0] = x0
    X[:, 1] = x1
    y = np.where(x0 == 2, (x1 > 0).astype(int), x0)
    ds = Dataset(X, ["a"] * n, y)
    cfg = ForestConfig(n_trees=10, seed=7, features_per_split=N_FEATURES,
                       importance_keep_threshold=0.6)
    model = train_forest(ds, cfg)
    result = prune_and_retrain(ds, model, cfg)
    assert result is model  # degradation rejected, original kept
    assert len(result.active_features) == N_FEATURES


def test_tree_paths_and_leaf_counts_invariant():
    ds = separable_dataset(n_per_label=10, seed=15)
    model = train_forest(ds, ForestConfig(n_trees=4, seed=8, max_depth=6))

    def walk(node, depth):
        if node.is_leaf:
            assert node.counts.sum() >= 1
            assert depth <= 6
            return
        walk(node.left, depth + 1)
        walk(node.right, depth + 1)

    for tree in model.trees:
        walk(tree, 0)


def test_forest_persistence_round_trip(tmp_path):
    ds = separable_dataset(n_per_label=10, seed=16)
    model = train_forest(ds, ForestConfig(n_trees=4, seed=9))
    model.stats_fingerprint = "cafe01234567"
    path = tmp_path / "forest.model"
    save_forest(path, model)
    assert path.read_text().startswith("hybrid-ids forest v1")
    loaded = load_forest(path)
    assert loaded.stats_fingerprint == "cafe01234567"
    assert np.array_equal(loaded.active_features, model.active_features)
    assert np.allclose(loaded.feature_importances, model.feature_importances)
    probe = np.random.default_rng(3).normal(size=(60, N_FEATURES)) * 4
    assert np.array_equal(predict_batch(loaded, probe), predict_batch(model, probe))
