"""The histogram split search against the sort-based reference it replaced,
and a golden pin of whole forest files.

``oracle_find_split``/``oracle_train_tree`` are the original sort-based
CART search: per node and candidate feature, an ``argsort`` of the node's
values and Gini evaluated at every sorted position, with non-boundary
positions priced at ``inf``, one tree after another. The library must grow
the same trees from value ranks and class histograms, all trees of a
forest in lockstep with the nodes of a step searched together: same
features, bit-identical thresholds, same leaf counts, same importances and
the same RNG draws.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybrid_ids import random_forest
from hybrid_ids.dataset import Dataset, N_FEATURES
from hybrid_ids.random_forest import (
    N_CLASSES,
    ForestConfig,
    ForestModel,
    grow_trees,
    prune_and_retrain,
    rank_columns,
    save_forest,
    train_forest,
)

_MIN_GAIN = 1e-12


def oracle_find_split(X, y_onehot, idx, features, parent_counts):
    n = len(idx)
    total = parent_counts.sum()
    parent_gini = 1.0 - ((parent_counts / total) ** 2).sum()
    onehot = y_onehot[idx]
    best_cost = np.inf
    best = None
    for f in features:
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        if sv[0] == sv[-1]:
            continue
        cum = np.cumsum(onehot[order][:-1], axis=0).astype(np.float64)
        boundary = sv[1:] != sv[:-1]
        left_n = np.arange(1, n, dtype=np.float64)
        right_n = n - left_n
        right = parent_counts.astype(np.float64) - cum
        gini_l = 1.0 - ((cum / left_n[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((right / right_n[:, None]) ** 2).sum(axis=1)
        cost = np.where(boundary, (left_n * gini_l + right_n * gini_r) / n, np.inf)
        i = int(np.argmin(cost))
        if cost[i] < best_cost:
            thr = (sv[i] + sv[i + 1]) / 2.0
            if not sv[i] <= thr < sv[i + 1]:
                thr = float(sv[i])
            best_cost = float(cost[i])
            best = (int(f), float(thr))
    if best is None or parent_gini - best_cost <= _MIN_GAIN:
        return None
    return best[0], best[1], parent_gini, best_cost


def oracle_train_tree(X, y, sample_idx, config, rng, active_features, importance_out):
    """The tree's node list in preorder, as ``preorder`` gives it."""
    y_onehot = (y[:, None] == np.arange(N_CLASSES)).astype(np.int64)
    n_total = len(sample_idx)
    m = min(config.features_per_split, len(active_features))
    out = []
    stack = [(sample_idx, 0)]
    while stack:
        idx, depth = stack.pop()
        counts = np.bincount(y[idx], minlength=N_CLASSES)
        split = None
        depth_ok = config.max_depth is None or depth < config.max_depth
        if depth_ok and counts.max() < len(idx) and len(idx) >= config.min_samples_split:
            cand = np.sort(rng.choice(active_features, size=m, replace=False))
            split = oracle_find_split(X, y_onehot, idx, cand, counts)
        if split is None:
            out.append(("L", tuple(int(c) for c in counts)))
            continue
        f, thr, parent_gini, cost = split
        importance_out[f] += (parent_gini - cost) * (len(idx) / n_total)
        out.append(("I", f, float(thr).hex()))
        mask = X[idx, f] <= thr
        stack.append((idx[~mask], depth + 1))
        stack.append((idx[mask], depth + 1))  # popped next: preorder
    return out


def preorder(model: ForestModel, t: int) -> list[tuple]:
    """Tree ``t``'s node list with thresholds as bit patterns, so -0.0 != 0.0."""
    end = model.starts[t + 1] if t + 1 < len(model.starts) else len(model.feature)
    return [
        ("L", tuple(int(c) for c in model.counts[i])) if model.feature[i] < 0
        else ("I", int(model.feature[i]), float(model.threshold[i]).hex())
        for i in range(model.starts[t], end)
    ]


_TINY = 5e-324
_MAX = np.finfo(np.float64).max
# few distinct values per column: signed zeros, adjacent floats (their
# midpoint rounds onto the upper value), subnormals and values whose sum
# overflows to +inf or -inf, so the midpoint rounding guard fires
VALUE_POOL = (
    0.0, -0.0, _TINY, -_TINY, 1.0, float(np.nextafter(1.0, 2.0)),
    -1.5, float(np.nextafter(-1.5, -2.0)), 2.5, 1e308, _MAX, -1e308, -_MAX, 0.3,
)


def oracle_forest(ds: Dataset, config: ForestConfig, active: np.ndarray) -> ForestModel:
    """``train_forest``'s model as the oracle grows it: tree ``t`` alone on
    stream ``t``, which draws the bootstrap sample first."""
    trees, importances = [], np.zeros(ds.X.shape[1])
    for stream in np.random.SeedSequence(config.seed).spawn(config.n_trees):
        rng = np.random.default_rng(stream)
        sample = rng.integers(0, len(ds), size=len(ds))
        tree_importance = np.zeros(ds.X.shape[1])
        nodes = oracle_train_tree(ds.X, ds.coarse, sample, config, rng, active, tree_importance)
        importances += tree_importance
        trees.append((
            [node[1] if node[0] == "I" else -1 for node in nodes],
            [float.fromhex(node[2]) if node[0] == "I" else 0.0 for node in nodes],
            [node[1] if node[0] == "L" else (0,) * N_CLASSES for node in nodes],
        ))
    importances /= config.n_trees
    if importances.sum() > 0:
        importances = importances / importances.sum()
    return ForestModel.from_trees(trees, feature_importances=importances,
                                  active_features=active, n_features=ds.X.shape[1])


def assert_same_forest(got: ForestModel, want: ForestModel) -> None:
    """Every array bit for bit; thresholds and importances by their bits."""
    for name in ("feature", "right", "counts", "starts", "active_features"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.threshold.view(np.int64).tolist() == want.threshold.view(np.int64).tolist()
    assert [v.hex() for v in got.feature_importances] == \
        [v.hex() for v in want.feature_importances]


@st.composite
def forest_problems(draw):
    """A few live columns of tie-heavy values (the rest all zero), labels,
    an active subset that may hold constant columns, and the bounds."""
    n_rows = draw(st.integers(1, 24))
    n_live = draw(st.integers(1, 5))
    X = np.zeros((n_rows, N_FEATURES))
    for f in range(n_live):
        pool = draw(st.lists(st.sampled_from(VALUE_POOL), min_size=1, max_size=4))
        X[:, f] = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
    n_labels = draw(st.integers(1, N_CLASSES))
    y = draw(st.lists(st.integers(0, n_labels - 1), min_size=n_rows, max_size=n_rows))
    active = np.array(sorted(draw(st.sets(st.integers(0, n_live + 2), min_size=1))))
    config = ForestConfig(
        n_trees=draw(st.integers(1, 6)),
        max_depth=draw(st.none() | st.integers(1, 5)),
        min_samples_split=draw(st.integers(2, 5)),
        features_per_split=draw(st.integers(1, len(active))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return Dataset(X, ["x"] * n_rows, y), active, config


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(forest_problems())
def test_train_forest_matches_sort_based_oracle(problem):
    ds, active, config = problem
    got = train_forest(ds, config, active_features=active)
    assert_same_forest(got, oracle_forest(ds, config, active))


def oracle_trees(X, y, samples, config, seeds, active):
    """Each sample's tree, grown alone by the oracle on its own seed."""
    return [
        oracle_train_tree(X, y, sample, config, np.random.default_rng(seed), active,
                          np.zeros(X.shape[1]))
        for sample, seed in zip(samples, seeds)
    ]


def grow(X, y, samples, config, seeds, active) -> ForestModel:
    trees, _ = grow_trees(X, y, samples, [np.random.default_rng(s) for s in seeds], config,
                          active, rank_columns(X))
    return ForestModel.from_trees(trees, feature_importances=np.zeros(X.shape[1]),
                                  active_features=active, n_features=X.shape[1])


def test_node_without_boundary_searched_with_nodes_that_split():
    # one candidate of two per node: a root drawing the constant column 1
    # has no boundary and stays an impure leaf, in the same step as roots
    # drawing column 0, which split
    X = np.zeros((12, 2))
    X[:, 0] = np.arange(12) % 4
    y = (np.arange(12) % 4 > 1).astype(int)
    config = ForestConfig(n_trees=6, features_per_split=1)
    samples, seeds = [np.arange(12)] * 6, range(6)
    model = grow(X, y, samples, config, seeds, np.array([0, 1]))
    roots = model.starts
    assert (model.feature[roots] == -1).any() and (model.feature[roots] == 0).any()
    assert (model.counts[roots][model.feature[roots] == -1] > 0).sum(axis=1).min() == 2
    want = oracle_trees(X, y, samples, config, seeds, np.array([0, 1]))
    assert [preorder(model, t) for t in range(6)] == want


def test_nodes_with_equal_best_costs_in_one_step():
    # the same rows in another order: every step searches two nodes whose
    # histograms, and so best costs, are equal, and each keeps its own split
    rng = np.random.default_rng(4)
    X = rng.integers(0, 3, size=(30, 4)).astype(np.float64)
    y = (X[:, 0] + X[:, 2]).astype(int) % 3
    samples = [np.arange(30), rng.permutation(30)]
    config = ForestConfig(n_trees=2, features_per_split=4)
    model = grow(X, y, samples, config, [5, 5], np.arange(4))
    want = oracle_trees(X, y, samples, config, [5, 5], np.arange(4))
    assert preorder(model, 0) == preorder(model, 1) == want[0] == want[1]
    assert len(want[0]) > 5


def test_tree_finishing_many_steps_before_the_others():
    # a pure sample stops at its root; a two-row sample after one split; a
    # noisy one grows for many steps after both are done
    rng = np.random.default_rng(9)
    X = rng.normal(size=(80, 3)).round(2)
    y = rng.integers(0, 3, size=80)
    samples = [np.flatnonzero(y == 1), np.flatnonzero(y != 1)[:2], rng.integers(0, 80, 80)]
    config = ForestConfig(n_trees=3, features_per_split=2)
    model = grow(X, y, samples, config, [1, 2, 3], np.arange(3))
    want = oracle_trees(X, y, samples, config, [1, 2, 3], np.arange(3))
    assert [preorder(model, t) for t in range(3)] == want
    assert [len(tree) for tree in want[:2]] == [1, 3] and len(want[2]) > 20


def golden_dataset() -> Dataset:
    """600 rows drawn from 150 distinct ones: columns of a few repeated
    values (many cost ties), signed zeros, adjacent floats, and labels with
    noise, so trees grow deep on tie-heavy data."""
    rng = np.random.default_rng(20261018)
    base = rng.integers(0, 4, size=(150, N_FEATURES)) * 0.5
    base[:, 3] = rng.normal(size=150).round(1)
    base[:, 7] = np.where(rng.random(150) < 0.5, 0.0, -0.0)
    base[:, 9] = np.where(rng.random(150) < 0.5, 1.0, np.nextafter(1.0, 2.0))
    labels = (base[:, 0] + base[:, 1] + (base[:, 9] > 1.0) + (base[:, 3] > 0)).astype(int) % 5
    noisy = rng.random(150) < 0.1
    labels[noisy] = rng.integers(0, 5, size=int(noisy.sum()))
    rows = rng.integers(0, 150, size=600)
    return Dataset(base[rows], ["x"] * 600, labels[rows])


def test_train_forest_matches_oracle_forest():
    ds, config = golden_dataset(), ForestConfig(n_trees=4, seed=3)
    assert_same_forest(train_forest(ds, config), oracle_forest(ds, config, np.arange(N_FEATURES)))


@pytest.mark.parametrize("budget", [1, 300])
def test_search_groups_leave_the_forest_unchanged(monkeypatch, budget):
    # every node searched alone, or a few nodes per search
    monkeypatch.setattr(random_forest, "_SEARCH_KEYS", budget)
    ds, config = golden_dataset(), ForestConfig(n_trees=12, seed=7)
    assert_same_forest(train_forest(ds, config), oracle_forest(ds, config, np.arange(N_FEATURES)))


# SHA-256 of the two files below as written by the sort-based split search
# (the code oracle_find_split reproduces): the same train_forest +
# prune_and_retrain + save_forest calls, hashed with hashlib.sha256.
GOLDEN_FULL_SHA256 = "f06ad5de472946bfbde85fe87e09ba9f2498ee86a9e198eb50ed62f11cfcac7f"
GOLDEN_PRUNED_SHA256 = "92db4808c3c30dd17672995513871c52236952f78db76379a134119894f64eac"
# The same for a forest whose depth bound, min_samples_split, candidate
# count and active feature subset are all off their defaults.
GOLDEN_BOUNDED_SHA256 = "e6bfcb242f5c1139f3d9929c682749abfde2efd33f566016db685b8f1b500e2f"


def test_golden_forest_files(tmp_path):
    ds = golden_dataset()
    config = ForestConfig(n_trees=12, seed=7, importance_keep_threshold=0.9)
    full = train_forest(ds, config)
    pruned = prune_and_retrain(ds, full, config)
    assert pruned is not full and len(pruned.active_features) < N_FEATURES
    save_forest(tmp_path / "full.model", full)
    save_forest(tmp_path / "pruned.model", pruned)
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest("full.model") == GOLDEN_FULL_SHA256
    assert digest("pruned.model") == GOLDEN_PRUNED_SHA256


def test_golden_bounded_forest_file(tmp_path):
    config = ForestConfig(n_trees=8, seed=11, max_depth=4, min_samples_split=5,
                          features_per_split=3)
    active = np.array([0, 1, 3, 7, 9, 12, 20, 33])
    model = train_forest(golden_dataset(), config, active_features=active)
    save_forest(tmp_path / "bounded.model", model)
    digest = hashlib.sha256((tmp_path / "bounded.model").read_bytes()).hexdigest()
    assert digest == GOLDEN_BOUNDED_SHA256
