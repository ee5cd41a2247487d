"""From-scratch CART random forest: Gini splits at midpoint thresholds,
bootstrap bagging with per-tree seeded RNG streams, mode voting, mean
decrease-in-impurity feature importance, and an importance-based
drop-and-retrain step.

Routing rule everywhere: ``x[feature] <= threshold`` goes left.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import CoarseLabel, Dataset, N_FEATURES
from .evaluation import confusion, overall_accuracy
from .persist import atomic_write, check_version, fmt_floats, version_line

log = logging.getLogger(__name__)

N_CLASSES = len(CoarseLabel)
_MIN_GAIN = 1e-12


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_split: int = 2
    features_per_split: int = 7  # ceil(sqrt(41))
    seed: int = 0
    importance_keep_threshold: float = 0.99
    bootstrap: bool = True  # test hook; production forests always bag

    def validate(self, n_features: int = N_FEATURES) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not 1 <= self.features_per_split <= n_features:
            raise ValueError(f"features_per_split must be in 1..{n_features}")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if not 0.0 < self.importance_keep_threshold <= 1.0:
            raise ValueError("importance_keep_threshold must be in (0, 1]")


class TreeNode:
    """Internal node (feature/threshold/children) or leaf (class counts)."""

    __slots__ = ("feature", "threshold", "left", "right", "counts")

    def __init__(self):
        self.feature: int | None = None
        self.threshold: float = 0.0
        self.left: "TreeNode | None" = None
        self.right: "TreeNode | None" = None
        self.counts: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def gini(counts) -> float:
    """Gini impurity 1 - sum((count_i/total)^2); requires a nonempty node."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total < 1:
        raise ValueError("gini of an empty counts vector is undefined")
    p = counts / total
    return float(1.0 - (p * p).sum())


def _find_split(X, y_onehot, idx, features, parent_counts):
    """Best (feature, threshold) minimizing weighted child Gini.

    Thresholds sit at midpoints of adjacent distinct sorted values. Ties
    break to the lower feature index (features scanned ascending), then the
    lower threshold (first argmin). Returns None when no split reduces
    impurity.
    """
    n = len(idx)
    total = parent_counts.sum()
    parent_gini = 1.0 - ((parent_counts / total) ** 2).sum()
    onehot = y_onehot[idx]
    best_cost = np.inf
    best: tuple[int, float] | None = None
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
            if thr >= sv[i + 1]:  # midpoint rounded up between adjacent floats
                thr = float(sv[i])
            best_cost = float(cost[i])
            best = (int(f), float(thr))
    if best is None or parent_gini - best_cost <= _MIN_GAIN:
        return None
    return best[0], best[1], parent_gini, best_cost


def train_tree(
    X: np.ndarray,
    y: np.ndarray,
    sample_idx: np.ndarray,
    config: ForestConfig,
    rng: np.random.Generator,
    active_features: np.ndarray,
    importance_out: np.ndarray | None = None,
) -> TreeNode:
    """Grow one CART tree over ``sample_idx`` rows (duplicates allowed).

    Stops on purity, the depth bound, min_samples_split, or when no
    candidate split reduces impurity. Uses an explicit stack, so tree depth
    is not limited by the interpreter recursion limit.
    """
    if len(sample_idx) == 0:
        raise ValueError("empty training sample")
    y_onehot = (y[:, None] == np.arange(N_CLASSES)).astype(np.int64)
    n_total = len(sample_idx)
    m = min(config.features_per_split, len(active_features))
    root = TreeNode()
    stack = [(sample_idx, 0, root)]
    while stack:
        idx, depth, node = stack.pop()
        counts = np.bincount(y[idx], minlength=N_CLASSES)
        split = None
        depth_ok = config.max_depth is None or depth < config.max_depth
        if depth_ok and counts.max() < len(idx) and len(idx) >= config.min_samples_split:
            cand = np.sort(rng.choice(active_features, size=m, replace=False))
            split = _find_split(X, y_onehot, idx, cand, counts)
        if split is None:
            node.counts = counts
            continue
        f, thr, parent_gini, cost = split
        if importance_out is not None:
            importance_out[f] += (parent_gini - cost) * (len(idx) / n_total)
        node.feature = f
        node.threshold = thr
        node.left = TreeNode()
        node.right = TreeNode()
        mask = X[idx, f] <= thr
        stack.append((idx[~mask], depth + 1, node.right))
        stack.append((idx[mask], depth + 1, node.left))
    return root


def tree_apply(root: TreeNode, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Route a batch through one tree: per-row (leaf majority class, leaf
    class counts). Leaf ties resolve to the lowest class index."""
    n = len(X)
    out_class = np.zeros(n, dtype=np.int64)
    out_counts = np.zeros((n, N_CLASSES), dtype=np.int64)
    stack = [(root, np.arange(n))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        if node.is_leaf:
            out_class[idx] = int(np.argmax(node.counts))
            out_counts[idx] = node.counts
        else:
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
    return out_class, out_counts


@dataclass
class ForestModel:
    trees: list[TreeNode]
    config: ForestConfig
    feature_importances: np.ndarray  # length n_features, sums to 1 (or all 0)
    active_features: np.ndarray  # sorted feature indices the trees may test
    n_features: int = N_FEATURES
    stats_fingerprint: str = ""


def train_forest(
    ds: Dataset, config: ForestConfig, active_features: np.ndarray | None = None
) -> ForestModel:
    """Bag ``config.n_trees`` trees, each on a seeded bootstrap sample of
    size len(ds); deterministic per seed (one spawned RNG stream per tree,
    merged in tree order)."""
    n_features = ds.X.shape[1]
    config.validate(n_features)
    if len(ds) == 0:
        raise ValueError("cannot train a forest on an empty dataset")
    if active_features is None:
        active = np.arange(n_features)
    else:
        active = np.unique(np.asarray(active_features, dtype=np.int64))
    streams = np.random.SeedSequence(config.seed).spawn(config.n_trees)
    trees = []
    importance_sum = np.zeros(n_features)
    n = len(ds)
    for stream in streams:
        rng = np.random.default_rng(stream)
        sample = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        tree_importance = np.zeros(n_features)
        trees.append(
            train_tree(ds.X, ds.coarse, sample, config, rng, active, tree_importance)
        )
        importance_sum += tree_importance
    importances = importance_sum / config.n_trees
    total = importances.sum()
    if total > 0:
        importances = importances / total
    return ForestModel(
        trees=trees,
        config=config,
        feature_importances=importances,
        active_features=active,
        n_features=n_features,
    )


def predict_batch(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Modal vote over trees. Modal ties go to the class with the larger
    summed leaf-count mass across all trees, then the lower class index."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected (n, {model.n_features}) inputs")
    votes = np.zeros((len(X), N_CLASSES), dtype=np.int64)
    mass = np.zeros((len(X), N_CLASSES), dtype=np.int64)
    for tree in model.trees:
        cls, counts = tree_apply(tree, X)
        votes[np.arange(len(X)), cls] += 1
        mass += counts
    top = votes.max(axis=1, keepdims=True)
    tied_mass = np.where(votes == top, mass, -1)
    return np.argmax(tied_mass, axis=1)


def feature_importance(model: ForestModel) -> np.ndarray:
    return model.feature_importances.copy()


def prune_and_retrain(
    ds: Dataset,
    model: ForestModel,
    config: ForestConfig,
    holdout: Dataset | None = None,
) -> ForestModel:
    """Drop low-importance features and retrain on the survivors.

    Keeps the smallest importance-ranked prefix covering
    ``importance_keep_threshold`` cumulative mass. If the retrained forest
    loses more than 0.5 accuracy points against the unpruned one (measured
    on ``holdout``, or on ``ds`` when no holdout is given), the unpruned
    model is kept and a warning logged.
    """
    order = np.argsort(-model.feature_importances, kind="stable")
    cum = np.cumsum(model.feature_importances[order])
    keep = int(np.searchsorted(cum, config.importance_keep_threshold - 1e-9) + 1)
    keep = min(keep, int((model.feature_importances > 0).sum()) or 1)
    active = np.sort(order[:keep])
    retrained = train_forest(ds, config, active_features=active)
    eval_ds = holdout if holdout is not None else ds
    acc_before = overall_accuracy(confusion(predict_batch(model, eval_ds.X), eval_ds.coarse))
    acc_after = overall_accuracy(confusion(predict_batch(retrained, eval_ds.X), eval_ds.coarse))
    if acc_before - acc_after > 0.5:
        log.warning(
            "feature pruning dropped accuracy %.3f -> %.3f; keeping the unpruned forest",
            acc_before, acc_after,
        )
        return model
    log.info(
        "pruned forest to %d/%d features (accuracy %.3f -> %.3f)",
        len(active), model.n_features, acc_before, acc_after,
    )
    retrained.stats_fingerprint = model.stats_fingerprint
    return retrained


# ---------------------------------------------------------------------------
# Persistence: preorder node list per tree, I(nternal)/L(eaf) tags.

def save_forest(path: str | Path, model: ForestModel) -> None:
    lines = [
        version_line("forest"),
        f"stats_id={model.stats_fingerprint}",
        f"n_trees={len(model.trees)}",
        f"n_features={model.n_features}",
        "active_features=" + ",".join(str(int(f)) for f in model.active_features),
        "importances " + fmt_floats(model.feature_importances),
    ]
    for i, tree in enumerate(model.trees):
        nodes = []
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                nodes.append("L " + " ".join(str(int(c)) for c in node.counts))
            else:
                nodes.append(f"I {node.feature} {node.threshold!r}")
                stack.append(node.right)
                stack.append(node.left)
        lines.append(f"tree {i} {len(nodes)}")
        lines.extend(nodes)
    atomic_write(path, "\n".join(lines) + "\n")


def _parse_node(line: str) -> TreeNode:
    node = TreeNode()
    parts = line.split()
    if parts[0] == "L":
        node.counts = np.array([int(v) for v in parts[1:]], dtype=np.int64)
    elif parts[0] == "I":
        node.feature = int(parts[1])
        node.threshold = float(parts[2])
    else:
        raise ValueError(f"bad tree node line '{line}'")
    return node


def load_forest(path: str | Path) -> ForestModel:
    with open(path) as fh:
        check_version(fh.readline(), "forest")
        stats_id = fh.readline().strip().split("=", 1)[1]
        n_trees = int(fh.readline().strip().split("=", 1)[1])
        n_features = int(fh.readline().strip().split("=", 1)[1])
        active_text = fh.readline().strip().split("=", 1)[1]
        active = np.array(
            [int(v) for v in active_text.split(",") if v], dtype=np.int64
        )
        _, imp_text = fh.readline().split(" ", 1)
        importances = np.array([float(v) for v in imp_text.split()])
        trees = []
        for _ in range(n_trees):
            head = fh.readline().split()
            if len(head) != 3 or head[0] != "tree":
                raise ValueError(f"malformed forest file {path}")
            n_nodes = int(head[2])
            root = _parse_node(fh.readline().strip())
            pending = [root] if not root.is_leaf else []
            for _ in range(n_nodes - 1):
                node = _parse_node(fh.readline().strip())
                parent = pending[-1]
                if parent.left is None:
                    parent.left = node
                else:
                    parent.right = node
                    pending.pop()
                if not node.is_leaf:
                    pending.append(node)
            trees.append(root)
    return ForestModel(
        trees=trees,
        config=ForestConfig(n_trees=n_trees),
        feature_importances=importances,
        active_features=active,
        n_features=n_features,
        stats_fingerprint=stats_id,
    )
