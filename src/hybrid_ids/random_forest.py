"""From-scratch CART random forest: Gini splits at midpoint thresholds,
bootstrap bagging with per-tree seeded RNG streams, mode voting, mean
decrease-in-impurity feature importance, and an importance-based
drop-and-retrain step.

A forest has one form, ``ForestModel``: preorder node arrays concatenated
over its trees. Training appends to them, the vote routes rows down them,
and the model file holds them one node per line. Routing rule everywhere:
``x[feature] <= threshold`` goes left, to node ``i + 1``, else to ``right[i]``.

The trees of a forest grow in lockstep. Each keeps its own stack and RNG
stream; a step takes from every unfinished tree its next node to search,
placing the leaves it pops on the way (a pure node, one too small to
split or one at the depth bound), and searches those nodes together: the
class counts of every present value of every (node, candidate feature)
pair come from one ``bincount`` over a dense key space, and the step's
rows are cut and their children's classes counted in one pass. So a
forest takes about as many steps as its tree with the most searched
nodes has, not as its largest tree has nodes. Every tree still meets its
nodes and draws from its stream in the order it would alone, and no
count, cost or tie-break depends on the other trees, so the forest is
bit for bit the one that growing the trees one after another by sorting
each node's values would make.

For the same reason a forest can hand trees to a second CPU in the middle
of its growth. The trees grow in this process until ``jobs.cpu_free``
says a second CPU is free: at once when no job holds one, or at the first
step after a job that holds one has finished. Then the second half of the
still-unfinished trees grows beside the first (see ``jobs.beside``), at
most once per forest, and the trees go back to their places in tree
order. So the trees, and the importances summed over them, are the
one-process forest's to the bit, whichever step the handoff happens at,
or if it never does.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from . import jobs
from .dataset import CoarseLabel, Dataset, N_FEATURES
from .evaluation import confusion, overall_accuracy
from .errors import FormatError
from .persist import LineReader, atomic_write, fmt_floats, version_line

log = logging.getLogger(__name__)

N_CLASSES = len(CoarseLabel)
_MIN_GAIN = 1e-12
# (row, candidate feature) keys one batched split search holds at most,
# unless a single node has more
_SEARCH_KEYS = 1 << 15
# (tree, row) pairs one pass of the vote holds at most: a pass takes
# max(1, _STEP_PAIRS // n_trees) rows through every tree, so it holds at
# most max(_STEP_PAIRS, n_trees) pairs
_STEP_PAIRS = 1 << 16
# levels the vote steps its pairs between drops of those at a leaf
_DROP_LEVELS = 4


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
        """Concatenate per-tree ``(feature, threshold, counts)`` in preorder
        and derive ``right``; ``fields`` are the rest."""
        feature, threshold, counts = zip(*trees)
        sizes = [len(f) for f in feature]
        feature = np.concatenate(feature).astype(np.int64)
        # a node's level is the internal nodes minus the leaves before it. A
        # subtree holds one leaf more than internal nodes, so the right child
        # of an internal node is the next node at its level, and tree t
        # starts at level -t: one stable sort serves every tree
        step = np.where(feature >= 0, 1, -1)
        order = np.argsort(np.cumsum(step) - step, kind="stable")
        right = np.full(len(feature), -1)
        right[order[:-1]] = order[1:]
        return cls(
            feature=feature,
            threshold=np.concatenate(threshold).astype(np.float64),
            right=np.where(feature >= 0, right, -1),
            counts=np.concatenate(counts).astype(np.int64),
            starts=np.cumsum([0] + sizes[:-1]),
            **fields,
        )


def gini(counts, totals) -> np.ndarray:
    """Gini impurity 1 - sum((count_i/total)^2) over the last axis of a
    counts array, given each node's total; every node must be nonempty."""
    totals = np.asarray(totals, dtype=np.float64)
    if totals.min(initial=1.0) < 1:
        raise ValueError("gini of an empty counts vector is undefined")
    return 1.0 - ((np.asarray(counts, dtype=np.float64) / totals[..., None]) ** 2).sum(axis=-1)


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


def _class_counts(ranks, rows, labels, sizes, cand):
    """The class counts of every present value of every (node, candidate)
    pair, from one ``bincount`` over a dense key space.

    Pair ``p = node * m + slot`` holds the node's rows in the slot's
    candidate feature, and its keys are (rank - the pair's lowest rank +
    the pair's offset) * N_CLASSES + label. A pair whose rank range is no
    wider than its node owns a dense run of the key space. The keys of a
    wider pair are sorted instead, so a small node on a column of many
    distinct values costs its rows, not the column's values.

    Returns, in key order (run after run, rank after rank): each present
    value's class counts, its run, and its rank in its feature; and each
    run's pair. The dense pairs' runs come first, then the sorted ones',
    each in pair order.
    """
    k, m = cand.shape
    at = np.repeat(cand.T, sizes, axis=1)
    at += rows * ranks.shape[1]
    r = ranks.ravel()[at]  # (slot, row) -> rank
    del at
    starts = np.cumsum(sizes) - sizes
    lo = np.minimum.reduceat(r, starts, axis=1).T.ravel()
    span = np.maximum.reduceat(r, starts, axis=1).T.ravel() - lo + 1
    dense = span <= np.repeat(sizes, m)
    pair_of_run = np.concatenate([np.flatnonzero(dense), np.flatnonzero(~dense)])
    run_start = np.cumsum(span[pair_of_run]) - span[pair_of_run]
    offset = np.empty_like(run_start)
    offset[pair_of_run] = run_start
    keys = np.repeat((offset - lo).reshape(k, m).T, sizes, axis=1)
    keys += r
    del r
    keys *= N_CLASSES
    keys += labels
    keys = keys.ravel()
    n_dense = int(span[dense].sum()) * N_CLASSES
    if dense.all():  # no wide pair, so no keys to split off
        dense_counts = np.bincount(keys, minlength=n_dense)
        sorted_keys = sorted_counts = np.zeros(0, dtype=np.int64)
    else:
        in_dense = keys < n_dense
        dense_counts = np.bincount(keys[in_dense], minlength=n_dense)
        sorted_keys, sorted_counts = np.unique(keys[~in_dense], return_counts=True)
    del keys
    dense_keys = np.flatnonzero(dense_counts)
    value_bin, label = np.divmod(np.concatenate([dense_keys, sorted_keys]), N_CLASSES)
    first = np.concatenate(([True], value_bin[1:] != value_bin[:-1]))
    present = value_bin[first]
    hist = np.zeros((len(present), N_CLASSES), dtype=np.int64)
    hist[np.cumsum(first) - 1, label] = np.concatenate([dense_counts[dense_keys], sorted_counts])
    run = np.searchsorted(run_start, present, side="right") - 1
    rank = present - run_start[run] + lo[pair_of_run[run]]
    return hist, run, rank, pair_of_run


def _pair_cuts(ranks, rows, labels, sizes, cand, counts):
    """Each (node, candidate) pair's lowest-cost cut: a ``(nodes, m)``
    array of weighted child Gini (``inf`` where the pair has one value
    only), and the ranks of the values either side of the cut. Costs are
    evaluated only between adjacent present values; ties go to the lower
    rank. Each large temporary is dropped once used, which bounds the
    search's memory by the largest of them."""
    k, m = cand.shape
    hist, run, rank, pair_of_run = _class_counts(ranks, rows, labels, sizes, cand)
    # a run's values hold all its node's rows, so the running count
    # entering a run is the counts of the nodes of the runs before it
    run_counts = counts[pair_of_run // m]
    cum = np.cumsum(hist, axis=0) - (np.cumsum(run_counts, axis=0) - run_counts)[run]
    del hist
    boundary = np.flatnonzero(run[1:] == run[:-1])
    b_run = run[boundary]
    node = pair_of_run[b_run] // m
    n = sizes[node]
    left = cum[boundary].astype(np.float64)
    del cum
    left_n = left.sum(axis=1)
    right_n = n - left_n
    right = counts[node].astype(np.float64) - left
    gini_l = gini(left, left_n)
    del left
    gini_r = gini(right, right_n)
    del right
    cost = (left_n * gini_l + right_n * gini_r) / n
    # the first argmin within each run of boundaries
    head = np.ones(len(b_run), dtype=bool)
    head[1:] = b_run[1:] != b_run[:-1]
    heads = np.flatnonzero(head)
    run_min = np.minimum.reduceat(cost, heads)[np.cumsum(head) - 1]
    best = np.minimum.reduceat(np.where(cost == run_min, np.arange(len(cost)), len(cost)), heads)
    pair, at = pair_of_run[b_run[best]], boundary[best]
    pair_cost = np.full(k * m, np.inf)
    lo_rank, hi_rank = np.zeros(k * m, dtype=np.int64), np.zeros(k * m, dtype=np.int64)
    pair_cost[pair], lo_rank[pair], hi_rank[pair] = cost[best], rank[at], rank[at + 1]
    return pair_cost.reshape(k, m), lo_rank.reshape(k, m), hi_rank.reshape(k, m)


def _partition(X, rows, labels, sizes, feature, threshold):
    """Every node's rows cut by ``X[row, feature] <= threshold`` (per
    node), and the class counts of both sides, in one pass over all rows:
    lists of left and right row arrays, and ``(nodes, 2, N_CLASSES)``."""
    goes_left = (X.ravel()[rows * X.shape[1] + np.repeat(feature, sizes)]
                 <= np.repeat(threshold, sizes))
    side = np.repeat(np.arange(0, 2 * len(sizes), 2), sizes) + ~goes_left  # 2 * node + right
    counts = np.bincount(side * N_CLASSES + labels, minlength=2 * len(sizes) * N_CLASSES)
    counts = counts.reshape(len(sizes), 2, N_CLASSES)
    n_left = counts[:, 0].sum(axis=1)
    return _pieces(rows[goes_left], n_left), _pieces(rows[~goes_left], sizes - n_left), counts


def _pieces(a: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """``a`` cut into consecutive pieces of the given sizes (``np.split``
    without its per-piece overhead)."""
    ends = np.cumsum(sizes).tolist()
    return [a[start:end] for start, end in zip([0] + ends, ends)]


def _best_splits(X, ranks, values, y, nodes):
    """The best split of each node in ``nodes``, searched together.

    A node is ``(rows, class counts, sorted candidate features)`` with at
    least two rows. Returns per node ``None`` when no split reduces
    impurity, else ``(feature, threshold, parent gini, cost, children)``,
    ``children`` being the left and right ``(rows, class counts, whether
    the counts hold more than one class)``.
    Thresholds sit at the midpoint of the values either side of the cut.
    Ties break to the lower feature, then the lower threshold.
    """
    rows_of, counts, cand = zip(*nodes)
    counts, cand = np.array(counts), np.array(cand)
    k, m = cand.shape
    sizes = np.array([len(r) for r in rows_of])
    rows = np.concatenate(rows_of)
    labels = y[rows]
    cost, lo_rank, hi_rank = _pair_cuts(ranks, rows, labels, sizes, cand, counts)
    slot = np.argmin(cost, axis=1)  # candidates ascend, so the lower feature wins ties
    parent_gini = gini(counts, sizes)
    splits = [None] * k
    feature, threshold = np.zeros(k, dtype=np.int64), np.full(k, np.inf)
    for i, j in enumerate(slot.tolist()):
        best_cost = float(cost[i, j])
        if not parent_gini[i] - best_cost > _MIN_GAIN:  # also when no cut (inf)
            continue
        f = int(cand[i, j])
        lo, hi = values[f][lo_rank[i, j]], values[f][hi_rank[i, j]]
        thr = (lo + hi) / 2.0
        if not lo <= thr < hi:  # rounded onto hi (adjacent floats) or overflowed
            thr = lo
        splits[i] = (f, float(thr), parent_gini[i], best_cost)
        feature[i], threshold[i] = f, thr
    # a node that does not split sends its rows left (threshold +inf); its
    # children are dropped
    lefts, rights, child_counts = _partition(X, rows, labels, sizes, feature, threshold)
    mixed = (child_counts.max(axis=2) < child_counts.sum(axis=2)).tolist()
    return [
        None if split is None else
        (*split, ((lefts[i], child_counts[i, 0], mixed[i][0]),
                  (rights[i], child_counts[i, 1], mixed[i][1])))
        for i, split in enumerate(splits)
    ]


def _groups(items: list, keys: list[int]):
    """``items`` in consecutive groups whose ``keys`` add up to at most
    ``_SEARCH_KEYS``; an item with more keys forms a group alone."""
    group, size = [], 0
    for item, n in zip(items, keys):
        if group and size + n > _SEARCH_KEYS:
            yield group
            group, size = [], 0
        group.append(item)
        size += n
    if group:
        yield group


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    samples: list[np.ndarray],
    rngs: list[np.random.Generator],
    config: ForestConfig,
    active_features: np.ndarray,
    ranked: tuple[np.ndarray, list[np.ndarray]],
) -> tuple[list[tuple], np.ndarray]:
    """Grow one CART tree per row sample in ``samples`` (duplicates
    allowed), tree ``t`` drawing its candidate features from ``rngs[t]``.

    ``ranked`` is ``rank_columns(X)``. Returns each tree's ``(feature,
    threshold, counts)`` in preorder, as ``ForestModel.from_trees``
    takes them, and a ``(trees, features)`` array of each tree's impurity
    decrease per feature, weighted by node size over sample size.

    A node stops on purity, the depth bound, min_samples_split, or when no
    candidate split reduces impurity. The trees grow in lockstep: each step
    pops nodes from every unfinished tree's own stack, placing those that
    stop without a search as leaves, until it pops one to search or the
    stack is empty. So every tree meets its nodes, and draws from its
    stream, in the order it would alone, and takes one step per searched
    node (one more when nodes follow its last). The step searches the
    popped nodes together, in groups of at most ``_SEARCH_KEYS`` (row,
    candidate) keys, which bounds its temporaries while every root still
    holds its whole sample.

    Before each step, while two or more trees are unfinished, the forest
    asks ``jobs.cpu_free()`` whether a second CPU is free. The first time
    it is, it grows the second half of the unfinished trees beside the
    first (see ``jobs.beside``), each half on from the lockstep state at
    that step, and puts the trees back in their places.
    """
    ranks, values = ranked
    X = np.ascontiguousarray(X, dtype=np.float64)  # split rows are read by flat index
    m = min(config.features_per_split, len(active_features))
    trees = [([], [], []) for _ in samples]
    importances = np.zeros((len(samples), X.shape[1]))
    # per tree: depth, rows, class counts, and whether those hold more than
    # one class
    root_counts = [np.bincount(y[s], minlength=N_CLASSES) for s in samples]
    stacks = [[(0, s, c, c.max() < len(s))] for s, c in zip(samples, root_counts)]

    def step(ts: list[int]) -> None:
        searched = []
        for t in ts:
            stack = stacks[t]
            feature, threshold, node_counts = trees[t]
            while stack:
                depth, rows, counts, mixed = stack.pop()
                node = len(feature)
                feature.append(-1)
                threshold.append(0.0)
                node_counts.append(counts)
                depth_ok = config.max_depth is None or depth < config.max_depth
                if depth_ok and mixed and len(rows) >= config.min_samples_split:
                    cand = np.sort(rngs[t].choice(active_features, size=m, replace=False))
                    searched.append((t, node, depth, (rows, counts, cand)))
                    break
        for group in _groups(searched, [len(entry[3][0]) * m for entry in searched]):
            found = _best_splits(X, ranks, values, y, [entry[3] for entry in group])
            for (t, node, depth, (rows, _, _)), split in zip(group, found):
                if split is None:
                    continue
                f, thr, parent_gini, cost, (left, right) = split
                feature, threshold, node_counts = trees[t]
                feature[node], threshold[node] = f, thr
                node_counts[node] = np.zeros(N_CLASSES, dtype=np.int64)
                importances[t, f] += (parent_gini - cost) * (len(rows) / len(samples[t]))
                stacks[t].append((depth + 1, *right))
                stacks[t].append((depth + 1, *left))

    def grow(ts: list[int]):
        """Grow trees ``ts`` to the end; give them back as arrays, one per
        column of each tree, not one per node, and their importance rows."""
        while any(stacks[t] for t in ts):
            step(ts)
        return ([(np.array(trees[t][0], dtype=np.int64), np.array(trees[t][1]),
                  np.array(trees[t][2])) for t in ts], importances[ts])

    n = len(samples)
    steps, unfinished = 0, list(range(n))
    while len(unfinished) > 1 and not jobs.cpu_free():
        step(unfinished)
        steps += 1
        unfinished = [t for t in unfinished if stacks[t]]
    if len(unfinished) < 2:
        grow(unfinished)
        log.debug("grew %d trees in 1 process", n)
        return trees, importances
    own, handed = unfinished[:len(unfinished) // 2], unfinished[len(unfinished) // 2:]
    halves = jobs.beside(
        lambda: grow(handed), lambda: grow(own), log,
        what=f"growing {len(handed)} of the {n} trees from step {steps}",
        done=f"grew {n} trees in 2 processes ({n - len(handed)} + {len(handed)} from step {steps})",
    )
    for ts, (grown, rows) in zip((handed, own), halves):
        importances[ts] = rows
        for t, tree in zip(ts, grown):
            trees[t] = tree
    return trees, importances


def train_forest(
    ds: Dataset,
    config: ForestConfig,
    active_features: np.ndarray | None = None,
    ranked: tuple[np.ndarray, list[np.ndarray]] | None = None,
) -> ForestModel:
    """Bag ``config.n_trees`` trees, each on a seeded bootstrap sample of
    size len(ds); deterministic per seed (one spawned RNG stream per tree,
    merged in tree order).

    ``ranked`` is ``rank_columns(ds.X)``, computed here when not given.
    The trees grow in lockstep, half of the unfinished ones beside the
    rest once a second CPU is free (see ``grow_trees``). Each tree draws
    its sample, then its candidates, from its own stream in the order it
    would alone, and no split depends on the other trees or on the order
    of a node's rows. The trees come back in tree order, so the per-tree
    importances are summed in the same order too, and the forest is the
    one its trees grown one after another would make, to the bit,
    whichever path runs.
    """
    n_features = ds.X.shape[1]
    config.validate(n_features)
    if len(ds) == 0:
        raise ValueError("cannot train a forest on an empty dataset")
    if active_features is None:
        active = np.arange(n_features)
    else:
        active = np.unique(np.asarray(active_features, dtype=np.int64))
    streams = np.random.SeedSequence(config.seed).spawn(config.n_trees)
    rngs = [np.random.default_rng(stream) for stream in streams]
    n = len(ds)
    # sorted, so every node's rows are read in memory order
    samples = [np.sort(rng.integers(0, n, size=n)) for rng in rngs]
    trees, tree_importances = grow_trees(
        ds.X, ds.coarse, samples, rngs, config, active,
        ranked if ranked is not None else rank_columns(ds.X),
    )
    importances = tree_importances.sum(axis=0) / config.n_trees
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

    Every (tree, row) pair steps down its tree one level per numpy call,
    as in the level-stepped traversal of Asadi, Lin & de Vries (IEEE TKDE
    2014), so a batch costs about as many calls as its trees are deep,
    whatever their node count. A leaf is a fixed point of the step: it
    tests a NaN threshold, which no value passes, and is its own right
    child. So a pair that has reached a leaf steps on in place, and the
    pairs at a leaf are dropped only every ``_DROP_LEVELS`` levels.

    The rows vote in passes of ``max(1, _STEP_PAIRS // n_trees)`` rows,
    each through every tree, and a pass reads a column-major copy of its
    own rows, so it holds at most ``max(_STEP_PAIRS, n_trees)`` pairs
    whatever the batch size. Each tree's leaf votes and class counts are
    added to one ``(rows, 2 * N_CLASSES)`` int64 total, so votes and mass
    are exact sums.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected (n, {model.n_features}) inputs")
    n, roots = len(X), model.starts
    majority = np.argmax(model.counts, axis=1)
    # per node: its class counts, then the one-hot vote of their majority
    tally = np.hstack([model.counts, np.eye(N_CLASSES, dtype=np.int64)[majority]])
    chunk = max(1, min(n, _STEP_PAIRS // len(roots)))
    # a pair at node i sits at slot 2 * i. A step adds 1 to the slot where
    # the row goes left, then moves to the child's slot: ``child[2 * i]``
    # is the right child's, ``child[2 * i + 1]`` the left one's. A leaf
    # tests column 0 against NaN, which no value passes, and is its own
    # right child
    is_leaf = model.feature < 0
    offset = np.repeat(np.where(is_leaf, 0, model.feature) * chunk, 2)  # of its column in ``flat``
    threshold = np.repeat(np.where(is_leaf, np.nan, model.threshold), 2)
    right = np.where(is_leaf, np.arange(len(is_leaf)), model.right)
    child = 2 * np.column_stack([right, np.arange(1, len(right) + 1)]).ravel()
    columns = np.empty((model.n_features, chunk))
    flat = columns.ravel()  # a view, so it reads the rows each pass copies in
    total = np.zeros((n, 2 * N_CLASSES), dtype=np.int64)
    for first in range(0, n, chunk):
        m = min(chunk, n - first)
        columns[:, :m] = X[first:first + m].T
        slot = np.repeat(2 * roots, m)
        row = np.tile(np.arange(m), len(roots))
        pair = np.arange(len(slot))
        leaf = np.empty(len(slot), dtype=np.int64)  # leaf[t * m + r]: where row r ends in tree t
        while len(slot):
            for _ in range(_DROP_LEVELS):
                slot += flat[offset[slot] + row] <= threshold[slot]
                slot = child[slot]
            node = slot // 2
            leaf[pair] = node
            live = np.flatnonzero(~is_leaf[node])
            # one array at a time, and nothing held through the next steps
            slot = slot[live]
            row = row[live]
            pair = pair[live]
            del node, live
        for t in range(len(roots)):
            total[first:first + m] += tally[leaf[t * m:(t + 1) * m]]
    mass, votes = total[:, :N_CLASSES], total[:, N_CLASSES:]
    top = votes.max(axis=1, keepdims=True)
    tied_mass = np.where(votes == top, mass, -1)
    return np.argmax(tied_mass, axis=1)


def prune_and_retrain(
    ds: Dataset,
    model: ForestModel,
    config: ForestConfig,
    ranked: tuple[np.ndarray, list[np.ndarray]] | None = None,
) -> ForestModel:
    """Drop low-importance features and retrain on the survivors.

    Keeps the smallest importance-ranked prefix covering
    ``importance_keep_threshold`` cumulative mass. If the retrained forest
    loses more than 0.5 accuracy points against the unpruned one on ``ds``,
    the unpruned model is kept and a warning logged. ``ranked`` is
    ``rank_columns(ds.X)``, as for ``train_forest``.
    """
    order = np.argsort(-model.feature_importances, kind="stable")
    cum = np.cumsum(model.feature_importances[order])
    keep = int(np.searchsorted(cum, config.importance_keep_threshold - 1e-9) + 1)
    keep = min(keep, int((model.feature_importances > 0).sum()) or 1)
    active = np.sort(order[:keep])
    retrained = train_forest(ds, config, active_features=active, ranked=ranked)
    acc_before = overall_accuracy(confusion(predict_batch(model, ds.X), ds.coarse))
    acc_after = overall_accuracy(confusion(predict_batch(retrained, ds.X), ds.coarse))
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

    feature, threshold = [-1] * n_nodes, [0.0] * n_nodes
    leaves, leaf_text = [], []
    level = 0  # internal nodes minus leaves so far: -1 once the tree is whole
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
        if level < 0:
            raise bad(k, f"tree {t} is complete after {k} of its {n_nodes} nodes")
        level += 1 if feature[k] >= 0 else -1
    if level >= 0:
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
    return feature, threshold, counts


# the columns of a node line, tag included, as numpy's text reader reads them
_SPLIT_ROW = np.dtype([("tag", "U2"), ("feature", np.int64), ("threshold", np.float64)])
_LEAF_ROW = np.dtype([("tag", "U2"), ("counts", np.int64, (N_CLASSES,))])


def _rows(lines: list[str], dtype: np.dtype) -> np.ndarray:
    """``lines`` through numpy's C text reader; ValueError on a bad token or token count."""
    return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1) if lines else np.zeros(0, dtype)


def _read_trees(r: LineReader, n_trees: int, n_features: int) -> list[tuple] | None:
    """All trees, as ``_read_tree`` reads them, through numpy's text reader
    and checks on whole arrays; None when any check refuses, with ``r``
    unmoved. The reader takes a subset of the number spellings of ``int``
    and ``float`` and of the whitespace of ``str.split``, so a file that
    loads here loads to the same arrays through ``_read_tree``."""
    lines, at, sizes, body = r.lines, r.line_no, [], []
    for t in range(n_trees):
        head = lines[at].split() if at < len(lines) else []
        try:
            n = int(head[2]) if len(head) == 3 and head[:2] == ["tree", str(t)] else 0
        except ValueError:
            n = 0
        if not 0 < n < len(lines) - at:
            return None
        body += lines[at + 1:at + 1 + n]
        sizes.append(n)
        at += 1 + n
    # each line's first two bytes, or a newline past its end; in UTF-8 a
    # byte below 0x80 is always a whole character
    text = np.frombuffer(("\n".join(body) + "\n\n").encode(), np.uint8)
    starts = np.r_[0, np.flatnonzero(text[:-2] == ord("\n")) + 1]
    first, internal = text[starts], text[starts] == ord("I")
    try:
        split = _rows(list(compress(body, internal.tolist())), _SPLIT_ROW)
        leaf = _rows(list(compress(body, (first == ord("L")).tolist())), _LEAF_ROW)
    except ValueError:
        return None
    # the running level enters tree t at -t when the trees before it are
    # whole; each must first reach -1 at its last node, as in ``_read_tree``
    level = np.cumsum(np.where(internal, 1, -1)) + np.repeat(np.arange(n_trees), sizes)
    ends = np.cumsum(sizes) - 1
    # every line read, none blank; each tag one character and a space, as
    # ``save_forest`` writes it (the U2 tag field would read "I\0" as "I")
    if not (len(split) + len(leaf) == len(body) and np.all(text[starts + 1] == ord(" "))
            and np.all((split["feature"] >= 0) & (split["feature"] < n_features))
            and np.isfinite(split["threshold"]).all() and np.all(leaf["counts"] >= 0)
            and np.all(level[ends] == -1) and np.count_nonzero(level >= 0) == len(body) - n_trees):
        return None
    feature, threshold = np.full(len(body), -1), np.zeros(len(body))
    counts = np.zeros((len(body), N_CLASSES), dtype=np.int64)
    feature[internal], threshold[internal] = split["feature"], split["threshold"]
    counts[~internal] = leaf["counts"]
    r.line_no = at
    return list(zip(*(np.split(a, ends[:-1] + 1) for a in (feature, threshold, counts))))


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
    # checked as Python ints: the int64 array is made once the importances
    # line has bounded n_features
    active = [r.number(v, int, "active feature") for v in r.value("active_features").split(",") if v]
    if not all(0 <= f < n_features for f in active):
        raise r.error(f"active feature out of 0..{n_features - 1}")
    head, _, imp_text = r.next("'importances'").partition(" ")
    if head != "importances":
        raise r.error("expected 'importances <values>'")
    importances = np.array([r.number(v, float, "importance") for v in imp_text.split()])
    if len(importances) != n_features:
        raise r.error(f"expected {n_features} importances, got {len(importances)}")
    if not np.isfinite(importances).all():
        raise r.error("non-finite importance value")
    trees = _read_trees(r, n_trees, n_features)
    if trees is None:  # line by line: name the first bad line, or read spellings numpy refuses
        trees = [_read_tree(r, t, n_features) for t in range(n_trees)]
    r.end()
    return ForestModel.from_trees(
        trees,
        feature_importances=importances,
        active_features=np.array(active, dtype=np.int64),
        n_features=n_features,
        stats_fingerprint=stats_id,
    )
