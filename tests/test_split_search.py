"""The histogram split search against the sort-based reference it replaced,
and a golden pin of whole forest files.

``oracle_find_split``/``oracle_train_tree`` are the original sort-based
CART search: per node and candidate feature, an ``argsort`` of the node's
values and Gini evaluated at every sorted position, with non-boundary
positions priced at ``inf``. The library must grow the same trees from
value ranks and class histograms: same features, bit-identical thresholds,
same leaf counts, same importances and the same RNG draws.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybrid_ids.dataset import Dataset, N_FEATURES
from hybrid_ids.random_forest import (
    N_CLASSES,
    ForestConfig,
    ForestModel,
    prune_and_retrain,
    save_forest,
    train_forest,
    train_tree,
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


@st.composite
def tree_problems(draw):
    n_rows = draw(st.integers(1, 24))
    n_features = draw(st.integers(1, 5))
    columns = []
    for _ in range(n_features):
        pool = draw(st.lists(st.sampled_from(VALUE_POOL), min_size=1, max_size=4))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows)))
    X = np.array(columns, dtype=np.float64).T.reshape(n_rows, n_features)
    n_labels = draw(st.integers(1, N_CLASSES))
    y = np.array(draw(st.lists(st.integers(0, n_labels - 1), min_size=n_rows, max_size=n_rows)))
    sample = np.array(draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=40)))
    active = np.array(sorted(draw(st.sets(st.integers(0, n_features - 1), min_size=1))))
    config = ForestConfig(
        n_trees=1,
        max_depth=draw(st.none() | st.integers(0, 5)),
        min_samples_split=draw(st.integers(2, 5)),
        features_per_split=draw(st.integers(1, len(active))),
    )
    return X, y, sample, active, config, draw(st.integers(0, 2**32 - 1))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(tree_problems())
def test_train_tree_matches_sort_based_oracle(problem):
    X, y, sample, active, config, seed = problem
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got_imp, want_imp = np.zeros(X.shape[1]), np.zeros(X.shape[1])
    got = train_tree(X, y, sample, config, got_rng, active, got_imp)
    want = oracle_train_tree(X, y, sample, config, want_rng, active, want_imp)
    one_tree = ForestModel.from_trees([got], feature_importances=got_imp, active_features=active,
                                      n_features=X.shape[1])
    assert preorder(one_tree, 0) == want
    assert [v.hex() for v in got_imp] == [v.hex() for v in want_imp]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


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
    ds = golden_dataset()
    config = ForestConfig(n_trees=4, seed=3)
    model = train_forest(ds, config)
    importances = np.zeros(N_FEATURES)
    for t, stream in enumerate(np.random.SeedSequence(config.seed).spawn(4)):
        rng = np.random.default_rng(stream)
        sample = rng.integers(0, len(ds), size=len(ds))
        tree_importance = np.zeros(N_FEATURES)
        want = oracle_train_tree(
            ds.X, ds.coarse, sample, config, rng, np.arange(N_FEATURES), tree_importance
        )
        assert preorder(model, t) == want
        importances += tree_importance
    importances /= config.n_trees
    assert np.array_equal(model.feature_importances, importances / importances.sum())


# SHA-256 of the two files below as written by the sort-based split search
# (the code oracle_find_split reproduces): the same train_forest +
# prune_and_retrain + save_forest calls, hashed with hashlib.sha256.
GOLDEN_FULL_SHA256 = "f06ad5de472946bfbde85fe87e09ba9f2498ee86a9e198eb50ed62f11cfcac7f"
GOLDEN_PRUNED_SHA256 = "92db4808c3c30dd17672995513871c52236952f78db76379a134119894f64eac"


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
