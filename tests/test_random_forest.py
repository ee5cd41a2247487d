"""CART forest: gini, split search, voting, importances, pruning,
persistence. Oracle checks reimplement routing and vote counting
independently of the library code paths they verify."""

from __future__ import annotations

import dataclasses
import logging
import os
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybrid_ids import jobs, random_forest
from hybrid_ids.dataset import CoarseLabel, Dataset, N_FEATURES, Taxonomy, read_kdd_dataset
from hybrid_ids.errors import FormatError
from hybrid_ids.random_forest import (
    N_CLASSES,
    ForestConfig,
    ForestModel,
    gini,
    grow_trees,
    load_forest,
    predict_batch,
    prune_and_retrain,
    rank_columns,
    save_forest,
    train_forest,
)

from conftest import expect_load_error, make_kdd_lines, separable_dataset
from test_artifacts import saved
from test_split_search import golden_dataset


def leaf(counts) -> tuple:
    """A one-node tree: a leaf holding ``counts``."""
    return [-1], [0.0], [counts]


def forest_of(trees: list[tuple], n_features: int = N_FEATURES) -> ForestModel:
    return ForestModel.from_trees(
        trees,
        feature_importances=np.zeros(n_features),
        active_features=np.arange(n_features),
        n_features=n_features,
    )


def route_one(model, node, x):
    """Leaf counts that ``x`` reaches from ``node``, one node at a time."""
    while model.feature[node] >= 0:
        node = node + 1 if x[model.feature[node]] <= model.threshold[node] else model.right[node]
    return model.counts[node]


def leaf_depths(model, root=0) -> dict[int, int]:
    """Depth of every leaf below ``root``, found by following the links."""
    out, stack = {}, [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if model.feature[node] < 0:
            out[node] = depth
        else:
            stack += [(node + 1, depth + 1), (model.right[node], depth + 1)]
    return out


def pad(X: np.ndarray) -> np.ndarray:
    """Lift a small feature matrix into the 41-column space (extra columns 0)."""
    out = np.zeros((len(X), N_FEATURES))
    out[:, : X.shape[1]] = X
    return out


def test_gini_hand_cases():
    assert gini((4, 0, 0, 0, 0), 4) == 0.0
    assert gini((2, 2, 0, 0, 0), 4) == 0.5
    assert gini((1, 1, 1, 1, 1), 5) == pytest.approx(0.8, abs=1e-15)
    # one impurity per row of a counts matrix
    assert gini([(4, 0, 0, 0, 0), (2, 2, 0, 0, 0)], [4, 4]).tolist() == [0.0, 0.5]


def test_gini_empty_errors():
    with pytest.raises(ValueError):
        gini((0, 0, 0, 0, 0), 0)
    with pytest.raises(ValueError):
        gini([(4, 0, 0, 0, 0), (0, 0, 0, 0, 0)], [4, 0])


def test_gini_range_property():
    rng = np.random.default_rng(0)
    for _ in range(200):
        counts = rng.integers(0, 50, size=5)
        if counts.sum() == 0:
            counts[0] = 1
        assert 0.0 <= gini(counts, counts.sum()) <= 0.8 + 1e-12


def stack_right(feature: list[int]) -> list[int]:
    """One preorder tree's right links, counted from its root, found with a
    stack of the internal nodes still waiting for their right child."""
    right, awaiting = [-1] * len(feature), []
    for i, f in enumerate(feature):
        if i > 0 and feature[i - 1] < 0:  # a node after a leaf is a right child
            right[awaiting.pop()] = i
        if f >= 0:
            awaiting.append(i)
    return right


@st.composite
def preorder_forests(draw) -> list[list[int]]:
    """Per tree, the features of its nodes in preorder (-1 at leaves)."""
    trees = []
    for _ in range(draw(st.integers(1, 6))):
        feature, open_nodes = [], 1
        while open_nodes:
            internal = len(feature) < 40 and draw(st.booleans())
            feature.append(draw(st.integers(0, N_FEATURES - 1)) if internal else -1)
            open_nodes += 1 if internal else -1
        trees.append(feature)
    return trees


@given(preorder_forests())
def test_from_trees_right_matches_stack_derivation(trees):
    model = forest_of([(f, [0.0] * len(f), [[0] * 5] * len(f)) for f in trees])
    want = []
    for start, feature in zip(model.starts.tolist(), trees):
        want += [r + start if r >= 0 else -1 for r in stack_right(feature)]
    assert model.right.tolist() == want


def _grow(X, y, config=None, seed=0, all_features=True) -> ForestModel:
    """One tree grown on every row once, as a one-tree forest."""
    config = config or ForestConfig()
    n_features = X.shape[1]
    if all_features:
        config = ForestConfig(
            n_trees=1, max_depth=config.max_depth,
            min_samples_split=config.min_samples_split,
            features_per_split=n_features, seed=seed,
        )
    trees, _ = grow_trees(np.asarray(y), [np.arange(len(X))], [np.random.default_rng(seed)],
                          config, np.arange(n_features), rank_columns(X, y))
    return forest_of(trees, n_features)


def test_tree_single_label_is_leaf():
    X = np.random.default_rng(0).normal(size=(10, 5))
    tree = _grow(X, [2] * 10)
    assert tree.feature.tolist() == [-1]
    assert tree.counts[0, 2] == 10


def test_tree_one_dimensional_stump():
    X = np.array([[0.0], [1.0]])
    tree = _grow(X, [0, 1])
    assert tree.feature.tolist() == [0, -1, -1]  # root, then its two leaves
    assert tree.threshold[0] == 0.5
    assert tree.right.tolist() == [2, -1, -1]  # left child is node 1
    assert tree.counts[1, 0] == 1 and tree.counts[2, 1] == 1


def test_tree_identical_features_mixed_labels():
    X = np.ones((6, 4))
    tree = _grow(X, [0, 0, 1, 1, 1, 0])
    assert tree.feature.tolist() == [-1]
    assert tree.counts[0, 0] == 3 and tree.counts[0, 1] == 3


def test_tree_depth_bound():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 3))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0).astype(int)
    tree = _grow(X, y, config=ForestConfig(max_depth=1))
    assert max(leaf_depths(tree).values()) <= 1


def test_tree_min_samples_split():
    X = np.array([[0.0], [1.0], [2.0]])
    tree = _grow(X, [0, 1, 1], config=ForestConfig(min_samples_split=4))
    assert tree.feature.tolist() == [-1]


def test_tree_order_invariance():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 5))
    y = (X[:, 2] > 0.2).astype(int)
    a = _grow(X, y, seed=5)
    perm = rng.permutation(40)
    b = _grow(X[perm], y[perm], seed=5)
    probe = rng.normal(size=(100, 5))
    assert [np.argmax(route_one(a, 0, x)) for x in probe] == \
        [np.argmax(route_one(b, 0, x)) for x in probe]


def _unbagged_forest(X, y, config, active) -> ForestModel:
    """``config.n_trees`` trees grown on every row once, without bagging."""
    streams = np.random.SeedSequence(config.seed).spawn(config.n_trees)
    trees, _ = grow_trees(y, [np.arange(len(X))] * config.n_trees,
                          [np.random.default_rng(s) for s in streams], config, active,
                          rank_columns(X, y))
    return ForestModel.from_trees(trees, feature_importances=np.zeros(X.shape[1]),
                                  active_features=active)


def test_single_tree_forest_equals_tree():
    ds = separable_dataset(n_per_label=12, seed=4)
    cfg = ForestConfig(n_trees=1, seed=2, features_per_split=N_FEATURES)
    model = _unbagged_forest(ds.X, ds.coarse, cfg, np.arange(N_FEATURES))
    rng = np.random.default_rng(0)
    probe = rng.normal(size=(100, N_FEATURES)) * 4
    tree_preds = [np.argmax(route_one(model, 0, x)) for x in probe]
    assert predict_batch(model, probe).tolist() == tree_preds


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


def oracle_vote(model, x) -> int:
    """The forest's vote on ``x``, one tree and one node at a time."""
    votes = np.zeros(5, dtype=int)
    mass = np.zeros(5, dtype=int)
    for root in model.starts:
        counts = route_one(model, root, x)
        votes[int(np.argmax(counts))] += 1
        mass += counts
    best = np.flatnonzero(votes == votes.max())
    if len(best) > 1:
        heaviest = best[mass[best] == mass[best].max()]
        return int(heaviest.min())
    return int(best[0])


def test_forest_vote_matches_exhaustive_oracle():
    ds = separable_dataset(n_per_label=10, seed=5, spread=1.5)
    model = train_forest(ds, ForestConfig(n_trees=7, seed=8))
    rng = np.random.default_rng(9)
    probe = rng.normal(size=(100, N_FEATURES)) * 5
    got = predict_batch(model, probe)
    for i, x in enumerate(probe):
        assert got[i] == oracle_vote(model, x)


_DROP = random_forest._DROP_LEVELS
# (full passes, extra rows): no row, one, one pass's rows minus 1, plus 0
# and plus 1, and rows that span 3 passes
_BATCH_SHAPES = [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)]
_GRID = np.array([-np.inf, -1.0, -0.5, 0.0, 0.5, 1.0, np.inf, np.nan])


@st.composite
def chain_trees(draw) -> tuple:
    """A tree deeper than ``2 * _DROP_LEVELS`` whose every internal node
    has a leaf child. Its tests send 6 of the 8 grid values on down the
    chain, so many rows go deep and leave it over several drop rounds."""
    depth = draw(st.integers(2 * _DROP + 1, 3 * _DROP + 2))
    feature, threshold, counts = [-1], [0.0], [draw(st.lists(st.integers(0, 2), min_size=5,
                                                            max_size=5))]
    for _ in range(depth):
        f = draw(st.integers(0, N_FEATURES - 1))
        stop = ([-1], [0.0], [draw(st.lists(st.integers(0, 2), min_size=5, max_size=5))])
        if draw(st.booleans()):  # x <= 1.0 goes on down, to the left
            feature, threshold, counts = ([f] + feature + stop[0], [1.0] + threshold + stop[1],
                                          [[0] * 5] + counts + stop[2])
        else:  # x <= -1.0 stops at the left leaf, the rest (NaN too) go on
            feature, threshold, counts = ([f] + stop[0] + feature, [-1.0] + stop[1] + threshold,
                                          [[0] * 5] + stop[2] + counts)
    return feature, threshold, counts


@st.composite
def voted_forests(draw) -> ForestModel:
    """``preorder_forests`` shapes, single leaves included, with thresholds
    on the grid the rows are drawn from and leaf counts of 0-2, so rows
    meet thresholds exactly and leaves, votes and masses tie often; some
    forests hold a ``chain_trees`` tree too."""
    trees = []
    for feature in draw(preorder_forests()):
        n = len(feature)
        threshold = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5]), min_size=n, max_size=n))
        counts = draw(st.lists(st.lists(st.integers(0, 2), min_size=5, max_size=5),
                               min_size=n, max_size=n))
        trees.append((feature, [t if f >= 0 else 0.0 for f, t in zip(feature, threshold)],
                      [c if f < 0 else [0] * 5 for f, c in zip(feature, counts)]))
    if draw(st.booleans()):
        trees.insert(draw(st.integers(0, len(trees))), draw(chain_trees()))
    return forest_of(trees)


@settings(deadline=None, max_examples=60)
@given(voted_forests(), st.sampled_from(_BATCH_SHAPES), st.booleans(), st.integers(0, 2**32 - 1))
def test_forest_vote_matches_oracle_property(model, shape, repeat, seed):
    """Batches of sizes around a pass of the vote, of distinct rows or of
    rows repeated from a few, whose values include NaN and both infinities:
    the vote equals the per-row oracle, which sends NaN right. So every
    leaf holds any value that reaches it. The oracle scores each distinct
    row once."""
    passes, extra = shape
    size = passes * (random_forest._STEP_PAIRS // len(model.starts)) + extra
    rng = np.random.default_rng(seed)
    distinct = _GRID[rng.integers(0, len(_GRID), size=(min(size, 256), N_FEATURES))]
    if repeat or size > len(distinct):  # a large batch repeats rows to keep the oracle cheap
        which = rng.integers(0, max(1, len(distinct) // 8), size=size)
    else:
        which = np.arange(size)
    expected = np.array([oracle_vote(model, x) for x in distinct], dtype=np.int64)
    got = predict_batch(model, distinct[which])
    assert got.dtype == np.int64 and got.shape == (size,)
    assert np.array_equal(got, expected[which])


@pytest.mark.parametrize("source", ["train_forest", "load_forest"])
def test_forest_vote_tables_are_built_once(tmp_path, source):
    """The first vote builds a forest's node tables and later votes reuse
    them, on a trained or a loaded forest: batches of 1 row, 16 rows, one
    pass's rows minus and plus 1, then 1 row again, each give the per-row
    oracle's votes and those of a copy of the forest that builds its tables
    for that batch alone. The tables are not saved."""
    model = train_forest(separable_dataset(n_per_label=10, seed=5, spread=1.5),
                         ForestConfig(n_trees=7, seed=8))
    path = tmp_path / "forest.model"
    save_forest(path, model)
    if source == "load_forest":
        model = load_forest(path)
    saved_text = path.read_text()
    rng = np.random.default_rng(9)
    distinct = rng.normal(size=(64, N_FEATURES)) * 5
    expected = np.array([oracle_vote(model, x) for x in distinct])
    per_pass = random_forest._STEP_PAIRS // len(model.starts)
    assert "vote_tables" not in vars(model)
    for size in (1, 16, per_pass - 1, per_pass + 1, 1):
        which = rng.integers(0, len(distinct), size=size)
        fresh = ForestModel(**{f.name: getattr(model, f.name) for f in dataclasses.fields(model)})
        got = predict_batch(model, distinct[which])
        assert np.array_equal(got, expected[which])
        assert np.array_equal(got, predict_batch(fresh, distinct[which]))
        for ours, theirs in zip(vars(model)["vote_tables"], fresh.vote_tables):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
    save_forest(path, model)
    assert path.read_text() == saved_text


def test_importance_concentrates_on_splitting_feature():
    # only feature 3 varies, so every split must use it
    rng = np.random.default_rng(6)
    X = np.zeros((60, N_FEATURES))
    X[:, 3] = rng.normal(size=60)
    y = (X[:, 3] > 0).astype(int)
    ds = Dataset(X, ["a"] * 60, y)
    model = train_forest(ds, ForestConfig(n_trees=5, seed=1, features_per_split=41))
    imp = model.feature_importances
    assert imp[3] == pytest.approx(1.0)
    assert np.all(imp[np.arange(N_FEATURES) != 3] == 0.0)


def test_importances_nonnegative_sum_to_one():
    ds = separable_dataset(n_per_label=15, seed=7)
    model = train_forest(ds, ForestConfig(n_trees=10, seed=3))
    imp = model.feature_importances
    assert np.all(imp >= 0)
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)


def test_informative_feature_ranks_first():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(300, N_FEATURES))
    y = (X[:, 7] > 0.5).astype(int)
    ds = Dataset(X, ["a"] * 300, y)
    model = train_forest(ds, ForestConfig(n_trees=20, seed=4))
    imp = model.feature_importances
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


def degrading_prune() -> tuple[Dataset, ForestConfig]:
    """x0 carries most of the importance but a 1/3 subgroup is only
    resolvable through x1; pruning to x0 alone degrades > 0.5pp."""
    rng = np.random.default_rng(14)
    n = 300
    X = np.zeros((n, N_FEATURES))
    x0 = rng.integers(0, 3, size=n)
    x1 = rng.normal(size=n)
    X[:, 0] = x0
    X[:, 1] = x1
    y = np.where(x0 == 2, (x1 > 0).astype(int), x0)
    return Dataset(X, ["a"] * n, y), ForestConfig(n_trees=10, seed=7, features_per_split=N_FEATURES,
                                                 importance_keep_threshold=0.6)


def test_prune_keeps_unpruned_model_on_degradation():
    ds, cfg = degrading_prune()
    model = train_forest(ds, cfg)
    result = prune_and_retrain(ds, model, cfg)
    assert result is model  # degradation rejected, original kept
    assert len(result.active_features) == N_FEATURES


def test_tree_paths_and_leaf_counts_invariant():
    ds = separable_dataset(n_per_label=10, seed=15)
    model = train_forest(ds, ForestConfig(n_trees=4, seed=8, max_depth=6))
    ends = [*model.starts[1:], len(model.feature)]
    for root, end in zip(model.starts, ends):
        depths = leaf_depths(model, root)
        for node, depth in depths.items():
            assert model.counts[node].sum() >= 1
            assert depth <= 6
        # the links reach every leaf of the tree's node range exactly once
        assert sorted(depths) == [i for i in range(root, end) if model.feature[i] < 0]


_MAX = np.finfo(np.float64).max
# 5e-324 (between 0 and 1e-323) and -max (below -1e308) become thresholds
# through the midpoint guard; -0.0 and +max never can, so they are written
# into drawn internal nodes
_COLUMN_POOL = (0.0, 5e-324, 1e-323, 1.0, -1.5, 1e308, _MAX, -1e308, -_MAX, 0.3)
_SPECIAL_THRESHOLDS = (-0.0, 5e-324, -5e-324, _MAX, -_MAX)


@st.composite
def trained_forests(draw):
    n_rows = draw(st.integers(2, 30))
    X = np.zeros((n_rows, N_FEATURES))
    for f in range(3):
        X[:, f] = draw(st.lists(st.sampled_from(_COLUMN_POOL), min_size=n_rows, max_size=n_rows))
    y = np.array(draw(st.lists(st.integers(0, 4), min_size=n_rows, max_size=n_rows)))
    config = ForestConfig(n_trees=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32 - 1)),
                          features_per_split=draw(st.integers(1, N_FEATURES)))
    model = train_forest(Dataset(X, ["a"] * n_rows, y), config)
    for node in np.flatnonzero(model.feature >= 0):
        model.threshold[node] = draw(st.sampled_from((model.threshold[node],) + _SPECIAL_THRESHOLDS))
    model.stats_fingerprint = draw(st.sampled_from(["", "cafe01234567"]))
    return model


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(deadline=None, max_examples=150)
@given(model=trained_forests())
def test_forest_persistence_round_trip(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("round_trip") / "forest.model"
    save_forest(path, model)
    text = path.read_text()
    assert text.startswith("hybrid-ids forest v1")
    loaded = load_forest(path)
    for name in ("feature", "right", "counts", "starts", "active_features"):
        got, want = getattr(loaded, name), getattr(model, name)
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want), name
    for name in ("threshold", "feature_importances"):  # bit patterns: -0.0 != 0.0
        got, want = getattr(loaded, name), getattr(model, name)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
    assert loaded.n_features == model.n_features
    assert loaded.stats_fingerprint == model.stats_fingerprint
    save_forest(path, loaded)
    assert path.read_text() == text
    probe = np.random.default_rng(3).normal(size=(60, N_FEATURES)) * 4
    assert np.array_equal(predict_batch(loaded, probe), predict_batch(model, probe))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("pair", [(-np.finfo(float).max, -1e308), (1e308, np.finfo(float).max)])
def test_overflowing_midpoint_splits_at_lower_value(tmp_path, pair):
    # the midpoint of two huge same-sign values overflows to +-inf; a split
    # at -inf would send every row right and save a file load_forest rejects
    lo, hi = pair
    X = np.zeros((4, N_FEATURES))
    X[:, 0] = [lo, hi, lo, hi]
    config = ForestConfig(n_trees=2, max_depth=3)
    model = _unbagged_forest(X, np.array([0, 1, 0, 1]), config, np.array([0]))
    # each tree: a root splitting feature 0 at lo, then two leaves
    assert model.starts.tolist() == [0, 3]
    assert model.feature.tolist() == [0, -1, -1, 0, -1, -1]
    assert model.threshold[model.starts].tolist() == [lo, lo]
    path = tmp_path / "forest.model"
    save_forest(path, model)
    loaded = load_forest(path)
    assert loaded.threshold[loaded.starts].tolist() == [lo, lo]
    assert list(predict_batch(loaded, X)) == [0, 1, 0, 1]


# ---------------------------------------------------------------------------
# Damaged forest files; test_artifacts.py holds the rest of the file format.

@pytest.mark.parametrize("index, text, match", [
    (1, "stats_id", "expected 'stats_id='"),
    (2, "n_trees=three", "n_trees 'three' is not a valid int"),
    (2, "trees=3", "expected 'n_trees='"),
    (3, "n_features=", "n_features '' is not a valid int"),
    (4, "active_features=1,x", "active feature 'x'"),
    (4, "active_features=1,41", "active feature out of"),
    (4, "active_features=1,99999999999999999999", "active feature out of"),
    pytest.param(5, "importances 0.5", "expected 41 importances values, got 1",
                 id="5-importances 0.5-one value of 41"),
    (5, "weights 0.5", "expected 'importances"),
    pytest.param(5, "importances nan" + " 0.5" * 40, "non-finite importances value",
                 id="5-importances nan 0.5 ...-non-finite importances value"),
    pytest.param(5, "importances" + " 0.5" * 40 + " -inf", "non-finite importances value",
                 id="5-importances 0.5 ... -inf-non-finite importances value"),
])
def test_load_forest_garbled_header(tmp_path, index, text, match):
    path, lines = saved("forest", tmp_path)
    lines[index] = text
    expect_load_error(load_forest, path, lines, index + 1, match)


@pytest.mark.parametrize("node, match", [
    ("X 3 0.5", "bad tree node"),
    ("", "bad tree node"),
    ("L 1 2 3", "bad tree node"),
    ("L 1 x 0 0 0", "leaf counts must be non-negative integers"),
    ("L 1.5 0 0 0 0", "leaf counts must be non-negative integers"),
    ("L 1 -2 0 0 0", "leaf counts must be non-negative integers"),
    ("L 99999999999999999999 0 0 0 0", "leaf counts must be non-negative integers"),
    ("I 41 0.5", "bad split"),
    ("I two 0.5", "bad split"),
    ("I 3 nan", "bad split"),
    # spellings that ``int`` and ``str.split`` take and numpy's text reader
    # or the tag check does not
    ("L 1_0 0 0 0 0", "leaf counts must be non-negative integers"),
    ("L \u0669 0 0 0 0", "leaf counts must be non-negative integers"),
    (" L 1 0 0 0 0", "bad tree node"),
])
def test_load_forest_bad_node(tmp_path, node, match):
    path, lines = saved("forest", tmp_path)
    last_leaf = max(i for i, line in enumerate(lines) if line.startswith("L "))
    lines[last_leaf] = node
    expect_load_error(load_forest, path, lines, last_leaf + 1, match)


@pytest.mark.parametrize("node, match", [
    ("I 1_4 0.5", "bad split"),
    ("I \u0669 0.5", "bad split"),
    (" I 3 0.5", "bad tree node"),
])
def test_load_forest_bad_split_spelling(tmp_path, node, match):
    """Splits that ``int`` and ``str.split`` read, and numpy's text reader
    or the tag check does not, are refused at their line."""
    path, lines = saved("forest", tmp_path)
    last_split = max(i for i, line in enumerate(lines) if line.startswith("I "))
    lines[last_split] = node
    expect_load_error(load_forest, path, lines, last_split + 1, match)


def _tree_headers(lines):
    return [i for i, line in enumerate(lines) if line.startswith("tree ")]


def test_load_forest_node_count_past_end_of_file(tmp_path):
    path, lines = saved("forest", tmp_path)
    last = _tree_headers(lines)[-1]
    _, t, n = lines[last].split()
    lines[last] = f"tree {t} {int(n) + 2}"
    expect_load_error(load_forest, path, lines, len(lines) + 1, f"tree {t} declares")


def test_load_forest_node_count_does_not_close_tree(tmp_path):
    path, lines = saved("forest", tmp_path)
    first, second = _tree_headers(lines)[:2]
    n = int(lines[first].split()[2])
    short = list(lines)
    short[first] = f"tree 0 {n - 1}"
    expect_load_error(load_forest, path, short, second - 1, "tree 0 is incomplete")
    long = list(lines)
    long[first] = f"tree 0 {n + 1}"
    expect_load_error(load_forest, path, long, second + 1, "bad tree node 'tree 1 ")
    last = _tree_headers(lines)[-1]
    m = int(lines[last].split()[2])
    extra = lines + ["L 1 0 0 0 0"]
    extra[last] = f"tree 2 {m + 1}"
    expect_load_error(load_forest, path, extra, len(extra), f"tree 2 is complete after {m} of its {m + 1}")
    for header, match in (("tree 0", "expected 'tree 0 <nodes>'"),
                          ("tree 1 5", "expected 'tree 0 <nodes>'"),
                          ("tree 0 x", "node count 'x'"),
                          ("tree 0 0", "tree 0 has no nodes")):
        bad = list(lines)
        bad[first] = header
        expect_load_error(load_forest, path, bad, first + 1, match)


def test_load_forest_n_trees_disagrees_with_trees(tmp_path):
    path, lines = saved("forest", tmp_path)
    headers = _tree_headers(lines)
    fewer = list(lines)
    fewer[2] = "n_trees=2"
    expect_load_error(load_forest, path, fewer, headers[2] + 1, "unexpected content after the end")
    more = list(lines)
    more[2] = "n_trees=4"
    expect_load_error(load_forest, path, more, len(lines) + 1, "expected 'tree 3 <nodes>'")
    none = list(lines)
    none[2] = "n_trees=0"
    expect_load_error(load_forest, path, none, 3, "n_trees must be >= 1")


def test_load_forest_not_text(tmp_path):
    path = tmp_path / "forest.model"
    path.write_bytes(b"hybrid-ids forest v1\n\xff\xfe\x00")
    with pytest.raises(FormatError, match=str(path)):
        load_forest(path)


def _fields(model: ForestModel) -> dict:
    """A forest's fields, each array as its dtype, shape and bytes."""
    return {name: (value.dtype.str, value.shape, value.tobytes())
            if isinstance(value, np.ndarray) else value for name, value in vars(model).items()}


# tokens that ``int``, ``float`` or ``str.split`` take and numpy's text
# reader may not, or the reverse, for a tag and for a number; the sample's
# trees have 9 nodes each
_TAGS = ("I", "L", "II", "L0", "I\x00", "L\x00", "I\x00\x00", "tree", "#", "")
_NUMBERS = (
    "1_4", "1_000", "+9", "09", "-0", "٩", "3.0", "1e3", "0x1p3", "nan", "inf", "-inf", "1e400",
    "-1", "41", "8", "9223372036854775807", "9223372036854775808", "#",
)
_GAPS = (" ", "  ", "\t", " \t", "\xa0", "\u3000", "\x1f", "\x00", "", "#")

# a node line's columns, tag included
_NODE_COLUMNS = {
    "I": np.dtype([("tag", "U2"), ("feature", np.int64), ("threshold", np.float64)]),
    "L": np.dtype([("tag", "U2"), ("counts", np.int64, (N_CLASSES,))]),
}


def _node(line: str) -> tuple | str:
    """One node line, read on its own: its feature, threshold and counts,
    or why it does not load. Its tag must be one character and a space;
    then numpy's text reader must take the line, or the token count tells
    a bad value from a bad node; then its values must be in range."""
    bad_node = (f"bad tree node '{line}': expected 'L' and {N_CLASSES} counts"
                " or 'I <feature> <threshold>'")
    tag = line[:1]
    if tag not in _NODE_COLUMNS or line[1:2] != " ":
        return bad_node
    bad_value, n_tokens = ((f"bad split '{line}'", 3) if tag == "I" else
                           (f"leaf counts must be non-negative integers: '{line}'", N_CLASSES + 1))
    try:
        row = np.loadtxt([line], dtype=_NODE_COLUMNS[tag], comments=None)
    except ValueError:
        return bad_value if len(line.split()) == n_tokens else bad_node
    if tag == "L":
        return (-1, 0.0, row["counts"].tolist()) if np.all(row["counts"] >= 0) else bad_value
    if 0 <= row["feature"] < N_FEATURES and np.isfinite(row["threshold"]):
        return int(row["feature"]), float(row["threshold"]), [0] * N_CLASSES
    return bad_value


def _read_by_line(lines: list[str], n_trees: int = 3) -> list[tuple] | tuple[int, str]:
    """The nodes of a sample forest file whose tree lines may be edited,
    read a line at a time, or the line number and message of its first bad
    line: a tree's header, a node line that does not read, the first node
    after its tree's level reaches -1, or the last node of a tree that
    never does."""
    at, nodes = 6, []
    for t in range(n_trees):
        if at == len(lines):
            return at + 1, f"unexpected end of file, expected 'tree {t} <nodes>'"
        head = lines[at].split()
        if len(head) != 3 or head[:2] != ["tree", str(t)]:
            return at + 1, f"expected 'tree {t} <nodes>'"
        try:
            if not head[2].isascii() or "_" in head[2]:  # as numpy's reader refuses them
                raise ValueError
            n = int(head[2])
        except ValueError:
            return at + 1, f"node count '{head[2]}' is not a valid int"
        if n < 1:
            return at + 1, f"tree {t} has no nodes"
        if at + 1 + n > len(lines):
            return len(lines) + 1, f"unexpected end of file: tree {t} declares {n} nodes"
        level = 0  # splits minus leaves so far
        for k, line in enumerate(lines[at + 1:at + 1 + n]):
            node = _node(line)
            if isinstance(node, str):
                return at + 2 + k, node
            if level < 0:
                return at + 2 + k, f"tree {t} is complete after {k} of its {n} nodes"
            level += 1 if node[0] >= 0 else -1
            nodes.append(node)
        if level >= 0:
            return at + 1 + n, f"tree {t} is incomplete after its {n} nodes"
        at += 1 + n
    extra = next((i for i in range(at, len(lines)) if lines[i].strip()), None)
    if extra is not None:
        return extra + 1, f"unexpected content after the end: '{lines[extra]}'"
    return nodes


@pytest.fixture(scope="module")
def parity_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("parity")


def assert_loads_as_per_line(path, lines: list[str]) -> None:
    """``lines``, written to ``path``, load to the nodes that reading them
    a line at a time gives, and save and load again to the same fields; or
    raise a FormatError with the message and line of the first bad line."""
    path.write_text("".join(line + "\n" for line in lines))
    expected = _read_by_line(lines)
    if isinstance(expected, tuple):
        line_no, message = expected
        with pytest.raises(FormatError) as info:
            load_forest(path)
        assert info.value.line_no == line_no, lines
        assert str(info.value) == f"{path}, line {line_no}: {message}", lines
        return
    model = load_forest(path)
    feature, threshold, counts = zip(*expected)
    assert model.feature.tolist() == list(feature), lines
    assert model.threshold.tobytes() == np.array(threshold).tobytes(), lines
    assert model.counts.tolist() == list(counts), lines
    save_forest(path, model)
    assert _fields(load_forest(path)) == _fields(model), lines


@pytest.mark.parametrize("tag", ["tree", "I", "L"])
@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_forest_loader_matches_the_per_line_reader(parity_dir, tag, data):
    """One edit to a line of a tree (its header, a split or a leaf), or to
    the tree's shape: ``load_forest`` loads the nodes that reading the file
    a line at a time gives, or raises that reading's FormatError (message
    and line)."""
    path, lines = saved("forest", parity_dir)
    i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.split()[0] == tag]))
    tokens = lines[i].split(" ")
    k = data.draw(st.integers(0, len(tokens) - 1))
    op = data.draw(st.sampled_from(
        ["token"] * 3 + ["drop", "extra", "tag", "gaps", "blank", "insert", "shape"]))
    if op == "token":
        tokens[k] = data.draw(st.sampled_from(_NUMBERS if k else _TAGS))
    elif op == "drop":
        del tokens[k]
    elif op == "extra":
        tokens.insert(k + 1, data.draw(st.sampled_from(_NUMBERS)))
    elif op == "tag":
        tokens[0] = {"I": "L", "L": "I"}.get(tokens[0], tokens[0])
    lines[i] = " ".join(tokens)
    if op == "gaps":  # every gap, and both ends
        n = len(tokens) + 1
        gaps = data.draw(st.lists(st.sampled_from(_GAPS), min_size=n, max_size=n))
        lines[i] = gaps[0] + "".join(t + g for t, g in zip(tokens, gaps[1:]))
    elif op == "blank":
        lines[i] = data.draw(st.sampled_from(["", " ", "\t"]))
    elif op == "insert":
        lines.insert(i, "")
    elif op == "shape":  # each node of the line's tree a split or a leaf
        head = max(h for h in _tree_headers(lines) if h <= i)
        n = int(lines[head].split()[2])
        lines[head + 1:head + 1 + n] = data.draw(
            st.lists(st.sampled_from(["I 0 0.5", "L 1 0 0 0 0"]), min_size=n, max_size=n))
    assert_loads_as_per_line(path, lines)


def test_forest_loader_matches_the_per_line_reader_on_each_token(parity_dir):
    """The same, for the first header, split and leaf of the sample: each
    token replaced by each spelling, and each spelling or gap put after the
    last token."""
    path, lines = saved("forest", parity_dir)
    for tag in ("tree", "I", "L"):
        i = next(i for i, line in enumerate(lines) if line.split()[0] == tag)
        tokens = lines[i].split(" ")
        edits = [" ".join(tokens[:k] + [new] + tokens[k + 1:])
                 for k in range(len(tokens)) for new in (_NUMBERS if k else _TAGS)]
        edits += [lines[i] + " " + new for new in _NUMBERS]
        edits += [lines[i] + gap for gap in _GAPS]
        for edit in edits:
            assert_loads_as_per_line(path, lines[:i] + [edit] + lines[i + 1:])


_THRESHOLDS = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_saved_forest_loads_in_bulk_bit_for_bit(parity_dir, data):
    """Any finite thresholds that ``save_forest`` writes load back to their
    bits."""
    path, _ = saved("forest", parity_dir)
    model = load_forest(path)
    internal = np.flatnonzero(model.feature >= 0)
    model.threshold[internal] = data.draw(
        st.lists(_THRESHOLDS, min_size=len(internal), max_size=len(internal)))
    save_forest(path, model)
    assert _fields(load_forest(path)) == _fields(model)


@pytest.mark.parametrize("depth", [0, -2])
def test_forest_config_rejects_non_positive_depth(depth):
    """A depth below 1 would grow one-leaf trees; ``None`` means no limit."""
    with pytest.raises(ValueError, match="max_depth must be >= 1"):
        ForestConfig(max_depth=depth).validate()
    ds = Dataset(np.eye(N_FEATURES)[:4], ["normal"] * 2 + ["smurf"] * 2, [0, 0, 1, 1])
    with pytest.raises(ValueError, match="max_depth must be >= 1"):
        train_forest(ds, ForestConfig(n_trees=1, max_depth=depth))
    ForestConfig(max_depth=None).validate()
    ForestConfig(max_depth=1).validate()


def test_forest_training_peak_memory_stays_bounded(monkeypatch):
    """The lockstep grower bounds its per-step temporaries: 20 trees on
    5,000 rows peak below 4.85 MB of traced allocations (numpy reports its
    buffers to tracemalloc). That is 1.25 times the 3.88 MB that growing
    the trees one after another peaked at on this set. Searches of at most
    65,536 keys (the default ``_SEARCH_KEYS``) peak at 4.33 MB here, 32,768
    at 4.02 MB and 131,072 at 5.49 MB; searching all 20 roots of the first
    step at once takes 12.9 MB."""
    rng = np.random.default_rng(8)
    n = 5000
    y = rng.choice(5, size=n, p=[0.55, 0.39, 0.03, 0.02, 0.01])
    templates = rng.integers(0, 6, size=(5, N_FEATURES))
    # each cell takes another class's template value 30% of the time
    source = np.where(rng.random((n, N_FEATURES)) < 0.3, rng.integers(0, 5, (n, N_FEATURES)),
                      y[:, None])
    X = templates[source, np.arange(N_FEATURES)].astype(np.float64)
    X[:, :6] += rng.normal(size=(n, 6)).round(3)  # columns of many distinct values
    ds = Dataset(X, ["x"] * n, y)
    monkeypatch.setattr(jobs, "_cpus", lambda: [0])  # all 20 trees in this process
    tracemalloc.start()
    try:
        train_forest(ds, ForestConfig(n_trees=20, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.85e6


def test_forest_vote_peak_memory_stays_bounded():
    """A pass of the vote holds at most ``max(_STEP_PAIRS, n_trees)``
    (tree, row) pairs: 200 single-split trees on 20,000 rows peak at
    5.01 MB of traced allocations. The bound was set at 1.25 times an
    earlier peak of 6.26 MB. One int64 leaf per (tree, row) would take
    32 MB on its own."""
    rng = np.random.default_rng(4)
    n_trees, n = 200, 20000
    trees = [([f, -1, -1], [thr, 0.0, 0.0], [[0] * 5, rng.integers(0, 9, 5), rng.integers(0, 9, 5)])
             for f, thr in zip(rng.integers(0, N_FEATURES, n_trees).tolist(), rng.normal(size=n_trees))]
    model = forest_of(trees)
    X = rng.normal(size=(n, N_FEATURES))
    tracemalloc.start()
    try:
        votes = predict_batch(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert votes.shape == (n,)
    assert peak < 7.83e6 < n_trees * n * 8


def test_reading_repeated_lines_peak_memory_stays_bounded(tmp_path):
    """``prepare`` reads the distinct records of its input. On a corpus
    where 64% of the lines repeat an earlier one, that peaks at 2.70 MB of
    traced allocations. Parsing every copy into a record of its own peaked
    at 5.05 MB. The bound is 1.25 times the 2.29 MB that a list of one
    shared record per line peaked at before the block parse."""
    distinct = list(dict.fromkeys(make_kdd_lines(
        {"normal": 1500, "neptune": 400, "ipsweep": 400, "guess_passwd": 200}, seed=3)))
    rng = np.random.default_rng(3)
    repeats = rng.integers(0, len(distinct), size=len(distinct) * 16 // 9)
    lines = distinct + [distinct[i] for i in repeats]
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines[i] for i in rng.permutation(len(lines))) + "\n")
    tracemalloc.start()
    try:
        ds, parsed = read_kdd_dataset(path, Taxonomy.default())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(ds), parsed) == (len(distinct), len(lines))
    assert len(repeats) / len(lines) == pytest.approx(0.64, abs=1e-3)
    assert peak < 2.86e6


# ---------------------------------------------------------------------------
# The handoff: a forked child grows the second half of the unfinished trees.

@pytest.mark.parametrize("n_trees", [1, 2, 3, 20])
@pytest.mark.parametrize("active", [None, [0, 1, 3, 7, 9, 12, 20, 33]])
def test_forked_and_serial_forests_are_the_same_file(tmp_path, monkeypatch, caplog, n_trees, active):
    """With no job holding a CPU, the handoff happens before the first
    step, so the child grows the second half of the trees, as the halves
    did before the handoff could happen later."""
    ds, config = golden_dataset(), ForestConfig(n_trees=n_trees, seed=5)
    models = {}
    for cores in (1, 2):
        monkeypatch.setattr(jobs, "_cpus", lambda: [0] if cores == 1 else two_or_more_cpus())
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="hybrid_ids.random_forest"):
            models[cores] = train_forest(ds, config, active_features=active)
        (line,) = [r.getMessage() for r in caplog.records]
        half = n_trees // 2
        if cores == 2 and n_trees > 1:
            assert line.startswith(f"grew {n_trees} trees in 2 processes "
                                   f"({half} + {n_trees - half} from step 0), child ")
        else:
            assert line == f"grew {n_trees} trees in 1 process"
        save_forest(tmp_path / f"{cores}.model", models[cores])
    assert (tmp_path / "1.model").read_bytes() == (tmp_path / "2.model").read_bytes()
    assert models[1].feature_importances.tobytes() == models[2].feature_importances.tobytes()


@pytest.mark.parametrize("case", ["pruned", "kept"])
def test_prune_gate_votes_beside_each_other_as_on_one_cpu(tmp_path, monkeypatch, caplog, case):
    """Where a second CPU is free, ``prune_and_retrain`` votes the unpruned
    forest in a job beside the retrained one. The forest it returns, and
    the line it logs (INFO when the pruned forest is kept, WARNING when
    the gate keeps the unpruned one), are those of a run on one CPU."""
    if case == "pruned":
        ds, config = golden_dataset(), ForestConfig(n_trees=12, seed=7, importance_keep_threshold=0.9)
    else:
        ds, config = degrading_prune()
    full = train_forest(ds, config)
    logged = {}
    for cores in (1, 2):
        monkeypatch.setattr(jobs, "_cpus", lambda: [0] if cores == 1 else two_or_more_cpus())
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="hybrid_ids.random_forest"):
            model = prune_and_retrain(ds, full, config)
        assert (model is full) == (case == "kept")
        save_forest(tmp_path / f"{cores}.model", model)
        logged[cores] = [(r.levelname, r.getMessage()) for r in caplog.records if r.levelno >= logging.INFO]
        voted = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("voted the unpruned forest beside the retrained one, child ")]
        assert len(voted) == (cores == 2)
    assert logged[1] == logged[2]
    assert [level for level, _ in logged[1]] == ["INFO" if case == "pruned" else "WARNING"]
    assert (tmp_path / "1.model").read_bytes() == (tmp_path / "2.model").read_bytes()


def two_or_more_cpus() -> list[int]:
    """This process's CPUs; its one CPU twice where it has one, so that the
    forked path runs anyway."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus if len(cpus) > 1 else cpus * 2


_HANDOFF_SET = golden_dataset()
_HANDOFF_ACTIVE = [0, 1, 3, 7, 9, 12, 20, 33]
_serial_forests: dict = {}


def searched_nodes(model: ForestModel, config: ForestConfig) -> list[np.ndarray]:
    """Per tree, whether each node drew candidates and was searched: an
    internal node, or a leaf that holds more than one class and at least
    ``min_samples_split`` rows (no split reduced its impurity). The config
    must set no depth bound."""
    assert config.max_depth is None
    bounds = [*model.starts.tolist(), len(model.feature)]
    mixed = (model.counts > 0).sum(axis=1) > 1
    big = model.counts.sum(axis=1) >= config.min_samples_split
    searched = (model.feature >= 0) | (mixed & big)
    return [searched[a:b] for a, b in zip(bounds, bounds[1:])]


def lockstep_steps(model: ForestModel, config: ForestConfig) -> np.ndarray:
    """The lockstep steps each tree of ``model`` takes: one per searched
    node, since a step places the leaves a tree pops up to and including
    its next searched node; and one more when nodes follow the last
    searched node (its children, or nodes left on the stack), or when the
    tree has no searched node at all."""
    steps = []
    for searched in searched_nodes(model, config):
        last = int(np.flatnonzero(searched)[-1]) if searched.any() else -1
        steps.append(int(searched.sum()) + (last < len(searched) - 1))
    return np.array(steps)


@settings(max_examples=40, deadline=None)
@given(n_trees=st.integers(1, 20), active=st.sampled_from([None, _HANDOFF_ACTIVE]), data=st.data())
def test_a_handoff_at_any_step_gives_the_one_process_forest(tmp_path_factory, n_trees, active, data):
    """The handoff forced at step ``at`` by the readiness check, from the
    first step to past the last one (no handoff): the forest file and the
    importances are the one-process forest's to the byte, and the DEBUG
    line names the step and each side's tree count. The trees unfinished
    at step ``at`` are those that take more than ``at`` steps, as
    ``lockstep_steps`` derives them from the serial forest."""
    config = ForestConfig(n_trees=n_trees, seed=9)
    key = (n_trees, active is None)
    with pytest.MonkeyPatch.context() as patch:
        if key not in _serial_forests:
            patch.setattr(jobs, "cpu_free", lambda: False)
            _serial_forests[key] = train_forest(_HANDOFF_SET, config, active_features=active)
        serial = _serial_forests[key]
        steps = lockstep_steps(serial, config)
        at = data.draw(st.integers(0, int(steps.max()) + 1), label="at")
        # the readiness check and ``jobs.beside`` both ask; yes from step ``at`` on
        calls = iter(range(10**6))
        patch.setattr(jobs, "cpu_free", lambda: next(calls) >= at)
        patch.setattr(jobs, "_cpus", two_or_more_cpus)
        lines = []
        handler = logging.Handler()
        handler.emit = lambda record: lines.append(record.getMessage())
        logger = logging.getLogger("hybrid_ids.random_forest")
        level = logger.level
        logger.setLevel(logging.DEBUG)
        logger.addHandler(handler)
        try:
            handed_off = train_forest(_HANDOFF_SET, config, active_features=active)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
    path = tmp_path_factory.mktemp("handoff") / "forest.model"
    files = []
    for model in (serial, handed_off):
        save_forest(path, model)
        files.append(path.read_bytes())
    assert files[0] == files[1]
    assert serial.feature_importances.tobytes() == handed_off.feature_importances.tobytes()
    unfinished = int((steps > at).sum())
    (line,) = lines
    if unfinished > 1:
        k = unfinished - unfinished // 2
        assert line.startswith(f"grew {n_trees} trees in 2 processes "
                               f"({n_trees - k} + {k} from step {at}), child ")
    else:
        assert line == f"grew {n_trees} trees in 1 process"


@pytest.mark.parametrize("seed, active", [(9, None), (4, _HANDOFF_ACTIVE)])
def test_a_step_searches_one_node_of_each_tree(monkeypatch, seed, active):
    """A step places the leaves a tree pops and goes on popping until it
    meets a node to search, so a forest makes as many searches as its tree
    with the most searched nodes has (each step is one search here), not
    as many as its largest tree has nodes."""
    calls = []
    real = random_forest._best_splits
    monkeypatch.setattr(jobs, "cpu_free", lambda: False)
    monkeypatch.setattr(random_forest, "_SEARCH_KEYS", 1 << 40)
    monkeypatch.setattr(random_forest, "_best_splits",
                        lambda *args: calls.append(len(args[2])) or real(*args))
    config = ForestConfig(n_trees=20, seed=seed)
    model = train_forest(_HANDOFF_SET, config, active_features=active)
    searched = [int(s.sum()) for s in searched_nodes(model, config)]
    sizes = np.diff([*model.starts.tolist(), len(model.feature)])
    assert len(calls) == max(searched) < sizes.max()
    assert sum(calls) == sum(searched)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fork_with(monkeypatch, in_child=None, in_parent=None):
    """Force a handoff before the first step, running ``in_child`` (or
    ``in_parent``) before each split search in that process."""
    parent, real = os.getpid(), random_forest._best_splits

    def search(*args):
        hook = in_parent if os.getpid() == parent else in_child
        if hook is not None:
            hook()
        return real(*args)

    monkeypatch.setattr(jobs, "_cpus", two_or_more_cpus)
    monkeypatch.setattr(random_forest, "_best_splits", search)


def test_child_exception_is_raised_in_the_parent(monkeypatch):
    def fail():
        raise KeyError("no tree here")

    fork_with(monkeypatch, in_child=fail)
    with pytest.raises(KeyError, match="^'no tree here'$"):
        train_forest(golden_dataset(), ForestConfig(n_trees=4))
    assert_no_child_left()


def test_child_exception_that_does_not_pickle_comes_back_as_its_traceback(monkeypatch):
    class Local(Exception):  # a local class cannot be pickled
        pass

    def fail():
        raise Local("grown wrong")

    fork_with(monkeypatch, in_child=fail)
    with pytest.raises(RuntimeError, match=r"(?s)^the process growing 2 of the 4 trees from step 0 "
                                           r"failed:.*Local: grown wrong"):
        train_forest(golden_dataset(), ForestConfig(n_trees=4))
    assert_no_child_left()


@pytest.mark.parametrize("end, reason", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by SIGKILL"),
    (lambda: os._exit(3), "exited with status 3"),
])
def test_child_that_dies_without_its_trees_names_how(monkeypatch, end, reason):
    fork_with(monkeypatch, in_child=end)
    with pytest.raises(RuntimeError, match=f"^the process growing 2 of the 3 trees from step 0 {reason}$"):
        train_forest(golden_dataset(), ForestConfig(n_trees=3))
    assert_no_child_left()


def test_parent_half_failing_still_reaps_the_child(monkeypatch):
    def fail():
        raise MemoryError("parent half")

    fork_with(monkeypatch, in_parent=fail)
    with pytest.raises(MemoryError, match="parent half"):
        train_forest(golden_dataset(), ForestConfig(n_trees=4))
    assert_no_child_left()
    assert jobs._running == []
