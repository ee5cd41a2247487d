"""From-scratch CART random forest: Gini splits at midpoint thresholds,
bootstrap bagging with per-tree seeded RNG streams, mode voting, mean
decrease-in-impurity feature importance, and an importance-based
drop-and-retrain step.

A forest has one form, ``ForestModel``: preorder node arrays concatenated
over its trees. Training appends to them, the vote walks them, and the
model file holds them one node per line. Routing rule everywhere:
``x[feature] <= threshold`` goes left, to node ``i + 1``, else to ``right[i]``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import CoarseLabel, Dataset, N_FEATURES
from .evaluation import confusion, overall_accuracy
from .errors import FormatError
from .persist import LineReader, atomic_write, fmt_floats, version_line

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

    def validate(self, n_features: int = N_FEATURES) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1, or None for no limit")
        if not 1 <= self.features_per_split <= n_features:
            raise ValueError(f"features_per_split must be in 1..{n_features}")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if not 0.0 < self.importance_keep_threshold <= 1.0:
            raise ValueError("importance_keep_threshold must be in (0, 1]")


@dataclass
class ForestModel:
    """The nodes of all trees in preorder, tree after tree. The left child
    of internal node ``i`` is ``i + 1``."""

    feature: np.ndarray  # int64, -1 at leaves
    threshold: np.ndarray  # float64, 0.0 at leaves
    right: np.ndarray  # int64 index of the right child, -1 at leaves
    counts: np.ndarray  # (nodes, N_CLASSES) int64 class counts at leaves, 0 elsewhere
    starts: np.ndarray  # int64 index of each tree's root
    feature_importances: np.ndarray  # length n_features, sums to 1 (or all 0)
    active_features: np.ndarray  # sorted feature indices the trees may test
    n_features: int = N_FEATURES
    stats_fingerprint: str = ""

    @classmethod
    def from_trees(cls, trees: list[tuple], **fields) -> "ForestModel":
        """Concatenate per-tree ``(feature, threshold, right, counts)`` with
        ``right`` counted from the tree's root; ``fields`` are the rest."""
        feature, threshold, right, counts = zip(*trees)
        sizes = [len(f) for f in feature]
        starts = np.cumsum([0] + sizes[:-1])
        right, offset = np.concatenate(right), np.repeat(starts, sizes)
        return cls(
            feature=np.concatenate(feature).astype(np.int64),
            threshold=np.concatenate(threshold).astype(np.float64),
            right=np.where(right < 0, -1, right + offset),
            counts=np.concatenate(counts).astype(np.int64),
            starts=starts,
            **fields,
        )


def gini(counts) -> float:
    """Gini impurity 1 - sum((count_i/total)^2); requires a nonempty node."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total < 1:
        raise ValueError("gini of an empty counts vector is undefined")
    p = counts / total
    return float(1.0 - (p * p).sum())


def rank_columns(X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per column, its sorted distinct values and every row's int32 rank
    among them (``values[f][ranks[r, f]] == X[r, f]``)."""
    X = np.asarray(X, dtype=np.float64)
    ranks = np.empty(X.shape, dtype=np.int32)
    values = []
    for f in range(X.shape[1]):
        uniq, ranks[:, f] = np.unique(X[:, f], return_inverse=True)
        values.append(uniq)
    return ranks, values


def _find_split(ranks, values, y, idx, features, parent_counts):
    """Best (feature, threshold) minimizing weighted child Gini.

    The class counts of every distinct value of every candidate feature at
    the node come from one count of (value rank + feature offset, label)
    keys. Costs are evaluated only between adjacent present values,
    and thresholds sit at their midpoints. Ties break to the lower feature
    index, then the lower threshold (first argmin over features ascending,
    ranks ascending). Returns None when no split reduces impurity.
    """
    n = len(idx)
    total = parent_counts.sum()
    parent_gini = 1.0 - ((parent_counts / total) ** 2).sum()
    sizes = np.array([len(values[f]) for f in features])
    offsets = np.cumsum(sizes) - sizes
    keys = (ranks[idx[:, None], features] + offsets) * N_CLASSES + y[idx, None]
    present_keys, counts = np.unique(keys.ravel(), return_counts=True)
    value_bin, label = np.divmod(present_keys, N_CLASSES)
    first = np.concatenate(([True], value_bin[1:] != value_bin[:-1]))
    row = np.cumsum(first) - 1
    present = value_bin[first]
    hist = np.zeros((len(present), N_CLASSES), dtype=np.int64)
    hist[row, label] = counts
    seg = np.searchsorted(offsets, present, side="right") - 1
    # every feature's bins hold all n rows, so the running count entering
    # segment j is j * parent_counts
    cum = np.cumsum(hist, axis=0) - seg[:, None] * parent_counts
    boundary = np.flatnonzero(seg[1:] == seg[:-1])
    if len(boundary) == 0:
        return None
    left = cum[boundary].astype(np.float64)
    left_n = left.sum(axis=1)
    right_n = n - left_n
    right = parent_counts.astype(np.float64) - left
    gini_l = 1.0 - ((left / left_n[:, None]) ** 2).sum(axis=1)
    gini_r = 1.0 - ((right / right_n[:, None]) ** 2).sum(axis=1)
    cost = (left_n * gini_l + right_n * gini_r) / n
    i = int(np.argmin(cost))
    best_cost = float(cost[i])
    if parent_gini - best_cost <= _MIN_GAIN:
        return None
    b = boundary[i]
    j = seg[b]
    f = int(features[j])
    lo = values[f][present[b] - offsets[j]]
    hi = values[f][present[b + 1] - offsets[j]]
    thr = (lo + hi) / 2.0
    if not lo <= thr < hi:  # rounded onto hi (adjacent floats) or overflowed
        thr = lo
    return f, float(thr), parent_gini, best_cost


def train_tree(
    X: np.ndarray,
    y: np.ndarray,
    sample_idx: np.ndarray,
    config: ForestConfig,
    rng: np.random.Generator,
    active_features: np.ndarray,
    importance_out: np.ndarray | None = None,
    ranked: tuple[np.ndarray, list[np.ndarray]] | None = None,
) -> tuple[list, list, list, list]:
    """Grow one CART tree over ``sample_idx`` rows (duplicates allowed).

    ``ranked`` is ``rank_columns(X)``, computed here when not given (a
    forest ranks once and shares it across its trees). Stops on purity,
    the depth bound, min_samples_split, or when no candidate split reduces
    impurity. Uses an explicit stack, so tree depth is not limited by the
    interpreter recursion limit. The stack pops nodes in preorder, the
    order ``ForestModel.from_trees`` takes them in.
    """
    if len(sample_idx) == 0:
        raise ValueError("empty training sample")
    ranks, values = ranked if ranked is not None else rank_columns(X)
    n_total = len(sample_idx)
    m = min(config.features_per_split, len(active_features))
    feature, threshold, right, counts = [], [], [], []
    stack = [(sample_idx, 0, -1)]  # rows, depth, parent of a right child
    while stack:
        idx, depth, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        node_counts = np.bincount(y[idx], minlength=N_CLASSES)
        split = None
        depth_ok = config.max_depth is None or depth < config.max_depth
        if depth_ok and node_counts.max() < len(idx) and len(idx) >= config.min_samples_split:
            cand = np.sort(rng.choice(active_features, size=m, replace=False))
            split = _find_split(ranks, values, y, idx, cand, node_counts)
        right.append(-1)
        if split is None:
            feature.append(-1)
            threshold.append(0.0)
            counts.append(node_counts)
            continue
        f, thr, parent_gini, cost = split
        if importance_out is not None:
            importance_out[f] += (parent_gini - cost) * (len(idx) / n_total)
        feature.append(f)
        threshold.append(thr)
        counts.append(np.zeros(N_CLASSES, dtype=np.int64))
        mask = X[idx, f] <= thr
        stack.append((idx[~mask], depth + 1, node))
        stack.append((idx[mask], depth + 1, -1))
    return feature, threshold, right, counts


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
    ranked = rank_columns(ds.X)
    for stream in streams:
        rng = np.random.default_rng(stream)
        sample = rng.integers(0, n, size=n)
        tree_importance = np.zeros(n_features)
        trees.append(
            train_tree(
                ds.X, ds.coarse, sample, config, rng, active, tree_importance, ranked
            )
        )
        importance_sum += tree_importance
    importances = importance_sum / config.n_trees
    total = importances.sum()
    if total > 0:
        importances = importances / total
    return ForestModel.from_trees(
        trees,
        feature_importances=importances,
        active_features=active,
        n_features=n_features,
    )


def predict_batch(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Modal vote over trees. A leaf votes for its majority class, ties to
    the lower class index. Modal ties go to the class with the larger
    summed leaf-count mass across all trees, then the lower class index.

    Each tree partitions the row indices down its nodes, so a node
    compares only the rows that reach it. Stepping all rows one level at a
    time to the deepest leaf was measured 3x slower on large batches.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected (n, {model.n_features}) inputs")
    n = len(X)
    majority = np.argmax(model.counts, axis=1)
    # per node: its class counts, then the one-hot vote of their majority
    tally = np.hstack([model.counts, np.eye(N_CLASSES, dtype=np.int64)[majority]])
    feature, threshold, right = (
        model.feature.tolist(), model.threshold.tolist(), model.right.tolist()
    )
    total = np.zeros((n, 2 * N_CLASSES), dtype=np.int64)
    leaf = np.empty(n, dtype=np.int64)
    for root in model.starts.tolist():
        stack = [(root, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if len(idx) == 0:
                continue
            f = feature[node]
            if f < 0:
                leaf[idx] = node
            else:
                mask = X[idx, f] <= threshold[node]
                stack.append((node + 1, idx[mask]))
                stack.append((right[node], idx[~mask]))
        total += tally[leaf]
    mass, votes = total[:, :N_CLASSES], total[:, N_CLASSES:]
    top = votes.max(axis=1, keepdims=True)
    tied_mass = np.where(votes == top, mass, -1)
    return np.argmax(tied_mass, axis=1)


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
        f"n_trees={len(model.starts)}",
        f"n_features={model.n_features}",
        "active_features=" + ",".join(str(int(f)) for f in model.active_features),
        "importances " + fmt_floats(model.feature_importances),
    ]
    # .tolist() gives Python floats, whose repr is the shortest exact text
    columns = zip(model.feature.tolist(), model.threshold.tolist(), model.counts.tolist())
    nodes = [f"I {f} {thr!r}" if f >= 0 else "L " + " ".join(map(str, c))
             for f, thr, c in columns]
    bounds = [*model.starts.tolist(), len(nodes)]
    for t in range(len(model.starts)):
        lines.append(f"tree {t} {bounds[t + 1] - bounds[t]}")
        lines.extend(nodes[bounds[t]:bounds[t + 1]])
    atomic_write(path, "\n".join(lines) + "\n")


def _leaf_counts_ok(parts: list[str]) -> bool:
    try:
        return parts[0] != "L" or all(0 <= int(v) < 2**63 for v in parts[1:])
    except ValueError:
        return False


def _read_tree(r: LineReader, t: int, n_features: int) -> tuple:
    """Tree ``t``, as ``ForestModel.from_trees`` takes it, from its lines."""
    head = r.next(f"'tree {t} <nodes>'").split()
    if len(head) != 3 or head[0] != "tree" or head[1] != str(t):
        raise r.error(f"expected 'tree {t} <nodes>'")
    n_nodes = r.number(head[2], int, "node count")
    if n_nodes < 1:
        raise r.error(f"tree {t} has no nodes")
    first = r.line_no
    body = r.lines[first:first + n_nodes]
    if len(body) < n_nodes:
        r.line_no = len(r.lines) + 1
        raise r.error(f"unexpected end of file: tree {t} declares {n_nodes} nodes")

    def bad(k: int, message: str) -> FormatError:
        r.line_no = first + k + 1
        return r.error(message)

    feature, threshold, right = [-1] * n_nodes, [0.0] * n_nodes, [-1] * n_nodes
    leaves, leaf_text = [], []
    awaiting = []  # internal nodes whose right child is still to come
    for k, line in enumerate(body):
        parts = line.split()
        tag = parts[0] if parts else ""
        if tag == "L" and len(parts) == N_CLASSES + 1:
            leaves.append(k)
            leaf_text.append(parts[1:])
        elif tag == "I" and len(parts) == 3:
            try:
                feature[k], threshold[k] = int(parts[1]), float(parts[2])
            except ValueError:
                pass  # feature[k] stays -1, which the range check rejects
            if not 0 <= feature[k] < n_features or not math.isfinite(threshold[k]):
                raise bad(k, f"bad split '{line}'")
        else:
            raise bad(k, f"bad tree node '{line}': expected 'L' and {N_CLASSES} counts"
                         " or 'I <feature> <threshold>'")
        if k > 0 and feature[k - 1] < 0:  # a node after a leaf is a right child
            if not awaiting:
                raise bad(k, f"tree {t} is complete after {k} of its {n_nodes} nodes")
            right[awaiting.pop()] = k
        if feature[k] >= 0:
            awaiting.append(k)
    if awaiting:
        raise bad(n_nodes - 1, f"tree {t} is incomplete after its {n_nodes} nodes")
    try:  # one conversion for all leaves; rescan only to place an error
        leaf_counts = np.array(leaf_text, dtype=np.int64)
        if leaf_counts.min() < 0:
            raise ValueError
    except (ValueError, OverflowError):
        # numpy converts each string with int(), so the rescan finds the line
        k = next(k for k, line in enumerate(body) if not _leaf_counts_ok(line.split()))
        raise bad(k, f"leaf counts must be non-negative integers: '{body[k]}'") from None
    counts = np.zeros((n_nodes, N_CLASSES), dtype=np.int64)
    counts[leaves] = leaf_counts
    r.line_no = first + n_nodes
    return feature, threshold, right, counts


def load_forest(path: str | Path) -> ForestModel:
    """Read a ``save_forest`` file. Raises FormatError naming the file and
    line on truncated, garbled or inconsistent content."""
    r = LineReader(path)
    r.version("forest")
    stats_id = r.value("stats_id")
    n_trees = r.number(r.value("n_trees"), int, "n_trees")
    if n_trees < 1:
        raise r.error("n_trees must be >= 1")
    n_features = r.number(r.value("n_features"), int, "n_features")
    if n_features < 1:
        raise r.error("n_features must be >= 1")
    active = np.array(
        [r.number(v, int, "active feature") for v in r.value("active_features").split(",") if v],
        dtype=np.int64,
    )
    if len(active) and (active.min() < 0 or active.max() >= n_features):
        raise r.error(f"active feature out of 0..{n_features - 1}")
    head, _, imp_text = r.next("'importances'").partition(" ")
    if head != "importances":
        raise r.error("expected 'importances <values>'")
    importances = np.array([r.number(v, float, "importance") for v in imp_text.split()])
    if len(importances) != n_features:
        raise r.error(f"expected {n_features} importances, got {len(importances)}")
    trees = [_read_tree(r, t, n_features) for t in range(n_trees)]
    r.end()
    return ForestModel.from_trees(
        trees,
        feature_importances=importances,
        active_features=active,
        n_features=n_features,
        stats_fingerprint=stats_id,
    )
