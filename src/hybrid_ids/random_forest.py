"""From-scratch CART random forest: Gini splits at midpoint thresholds,
bootstrap bagging with per-tree seeded RNG streams, mode voting, mean
decrease-in-impurity feature importance, and an importance-based
drop-and-retrain step.

A forest has one form, ``ForestModel``: preorder node arrays concatenated
over its trees. Training appends to them, the vote routes rows down them,
and the model file holds them one node per line. Routing rule everywhere:
``x[feature] <= threshold`` goes left, to node ``i + 1``, else to ``right[i]``.

The trees of a forest grow in lockstep. Each keeps its own stack and RNG
stream; a step pops one node from every unfinished tree and searches them
together: the class counts of every present value of every (node,
candidate feature) pair come from one ``bincount`` over a dense key
space, and the step's rows are cut and their children's classes counted
in one pass. Every tree still meets its nodes and draws from its stream in
the order it would alone, and no count, cost or tie-break depends on the
other trees, so the forest is bit for bit the one that growing the trees
one after another by sorting each node's values would make.

For the same reason a forest can grow in two halves on two CPUs.
``train_forest`` forks one child that grows the second half of the trees
while the parent grows the first; the child pickles its trees and
per-tree importances back over a pipe, and the parent joins them in tree
order, so the trees, and the importances summed over them, are the
one-process forest's to the bit. All trees grow in one process where
``os.fork`` is missing, where one CPU is available, or for a single tree.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import signal
import traceback
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
# (row, candidate feature) keys one batched split search holds at most,
# unless a single node has more
_SEARCH_KEYS = 1 << 15
# the vote partitions a node's rows while at least this many reach it, and
# steps smaller nodes with the rest (see ``predict_batch``)
_PARTITION_ROWS = 128
# (tree, row) pairs one pass of the vote holds at most, unless one tree's
# rows are more
_STEP_PAIRS = 1 << 16


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
    pops the next node of every unfinished tree from that tree's own stack,
    so every tree meets its nodes, and draws from its stream, in the order
    it would alone. The step searches all those nodes together, in groups
    of at most ``_SEARCH_KEYS`` (row, candidate) keys, which bounds its
    temporaries while every root still holds its whole sample.
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
    while any(stacks):
        searched = []
        for t, stack in enumerate(stacks):
            if not stack:
                continue
            depth, rows, counts, mixed = stack.pop()
            feature, threshold, node_counts = trees[t]
            node = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            node_counts.append(counts)
            depth_ok = config.max_depth is None or depth < config.max_depth
            if depth_ok and mixed and len(rows) >= config.min_samples_split:
                cand = np.sort(rngs[t].choice(active_features, size=m, replace=False))
                searched.append((t, node, depth, (rows, counts, cand)))
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
    return trees, importances


def _cpus() -> list[int]:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _keep_to(cpus: list[int]) -> None:
    """Run this thread on ``cpus`` only, where the platform allows."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


def _grow_in_halves(X, y, samples, rngs, *args) -> tuple[list[tuple], np.ndarray]:
    """``grow_trees(X, y, samples, rngs, *args)``, the trees from
    ``len(samples) // 2`` on grown in a forked child while this process
    grows the ones before. The halves join in tree order, so the result
    is the one-process result to the bit. One process grows them all where
    ``os.fork`` is missing, one CPU is available, or there is one tree.

    While both grow, each process keeps to its own half of the CPUs: a
    kernel that does not balance load across them (a cpuset with
    ``sched_load_balance`` off) leaves the child on its parent's CPU.

    The child always ends in ``os._exit``: it never returns to the caller
    or flushes its copy of the caller's stdio. It sends back its trees,
    each as three arrays, or the exception it raised (its traceback text
    when the exception does not pickle), which is raised here. This
    process always reads the pipe to its end and reaps the child, even
    when its own half raises.
    """
    n, cpus = len(samples), _cpus()
    if n == 1 or not hasattr(os, "fork") or len(cpus) < 2:
        grown = grow_trees(X, y, samples, rngs, *args)
        log.debug("grew %d trees in 1 process", n)
        return grown
    half = n // 2
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        _child_half(write_end, cpus[len(cpus) // 2:],
                    lambda: grow_trees(X, y, samples[half:], rngs[half:], *args))
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            try:
                _keep_to(cpus[:len(cpus) // 2])
                trees, importances = grow_trees(X, y, samples[:half], rngs[:half], *args)
            finally:
                payload = pipe.read()
                _keep_to(cpus)
    finally:
        _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        reason = f"exited with status {code}" if code > 0 else f"was killed by {_signal_name(-code)}"
        raise RuntimeError(f"the process growing trees {half}..{n - 1} {reason}")
    result = pickle.loads(payload)
    if isinstance(result, BaseException):
        raise result
    if isinstance(result, str):
        raise RuntimeError(f"the process growing trees {half}..{n - 1} failed:\n{result}")
    child_trees, child_importances = result
    log.debug(
        "grew %d trees in 2 processes (%d + %d), child %.2f s CPU, child peak RSS %.1f MB",
        n, half, n - half, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
    )
    return trees + child_trees, np.concatenate([importances, child_importances])


def _child_half(write_end: int, cpus: list[int], grow) -> None:
    """The forked child: run ``grow`` on ``cpus``, write the pickled
    result to ``write_end`` and exit; it never returns."""
    status = 1
    try:
        try:
            _keep_to(cpus)
            trees, importances = grow()
            # one array per column of each tree, not one per node
            payload = pickle.dumps((
                [(np.array(f, dtype=np.int64), np.array(thr, dtype=np.float64), np.array(c))
                 for f, thr, c in trees],
                importances,
            ))
        except BaseException as exc:
            try:
                payload = pickle.dumps(exc)
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps("".join(traceback.format_exception(exc)))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _signal_name(number: int) -> str:
    try:
        return signal.Signals(number).name
    except ValueError:
        return f"signal {number}"


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
    The trees grow in lockstep (see ``grow_trees``), the first
    ``n_trees // 2`` in this process and the rest in a forked child (see
    ``_grow_in_halves``), or all here where ``os.fork`` is missing, one
    CPU is available, or ``n_trees`` is 1. Each tree draws its sample,
    then its candidates, from its own stream in the order it would alone,
    and no split depends on the other trees or on the order of a node's
    rows. The halves join in tree order, so the per-tree importances are
    summed in the same order too, and the forest is the one its trees
    grown one after another would make, to the bit, whichever path runs.
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
    trees, tree_importances = _grow_in_halves(
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

    Each tree partitions the row indices down its nodes while a node holds
    at least ``_PARTITION_ROWS`` rows, so a node compares only the rows
    that reach it. A smaller node, and every leaf the walk reaches, hands
    its (node, row) pairs to ``_step_to_leaves``, which steps the pending
    pairs of all trees of a pass one level per numpy call. So a node costs
    a numpy call only when enough rows reach it to pay for one: a small
    batch costs about the depth of its trees, not their node count, and a
    large one the rows it routes, as the walk alone did.

    The trees vote in passes of at most ``_STEP_PAIRS // len(X)`` trees
    (one at least), each of which routes every row, so a pass holds at
    most ``max(_STEP_PAIRS, len(X))`` pairs, whatever the forest's size.
    Each tree's leaf votes and class counts are added to one ``(rows,
    2 * N_CLASSES)`` int64 total, so votes and mass are exact sums.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)  # stepped rows are read by flat index
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected (n, {model.n_features}) inputs")
    n = len(X)
    majority = np.argmax(model.counts, axis=1)
    # per node: its class counts, then the one-hot vote of their majority
    tally = np.hstack([model.counts, np.eye(N_CLASSES, dtype=np.int64)[majority]])
    feature, threshold, right = (
        model.feature.tolist(), model.threshold.tolist(), model.right.tolist()
    )
    columns, rows = X.T, np.arange(n)
    roots = model.starts.tolist()
    per_pass = max(1, _STEP_PAIRS // max(n, 1))
    total = np.zeros((n, 2 * N_CLASSES), dtype=np.int64)
    for first in range(0, len(roots), per_pass):
        trees = roots[first:first + per_pass]
        nodes, pieces = [], []  # each tree hands over every row exactly once
        for root in trees:
            stack = [(root, rows)]
            while stack:
                node, idx = stack.pop()
                f = feature[node]
                if f < 0 or len(idx) < _PARTITION_ROWS:
                    nodes.append(node)
                    pieces.append(idx)
                else:
                    goes_left = columns[f][idx] <= threshold[node]
                    stack.append((node + 1, idx[goes_left]))
                    stack.append((right[node], idx[~goes_left]))
        pending = np.concatenate(pieces)
        # leaf[t * n + row]: the leaf that ``row`` reaches in the pass's tree t
        leaf = np.empty(len(pending), dtype=np.int64)
        _step_to_leaves(model, X, np.repeat(nodes, [len(p) for p in pieces]), pending,
                        pending + np.repeat(np.arange(len(trees)) * n, n), leaf)
        for t in range(len(trees)):
            total += tally[leaf[t * n:(t + 1) * n]]
    mass, votes = total[:, :N_CLASSES], total[:, N_CLASSES:]
    top = votes.max(axis=1, keepdims=True)
    tied_mass = np.where(votes == top, mass, -1)
    return np.argmax(tied_mass, axis=1)


def _step_to_leaves(model, X, node, row, cell, leaf) -> None:
    """Step every pair (``node[i]``, ``row[i]``) down one level per numpy
    call, and write the leaf each one reaches to ``leaf[cell[i]]``. The
    pairs at a leaf are dropped after each step, so the pass costs about
    one call per level of its deepest pair (Asadi, Lin & de Vries, IEEE
    TKDE 2014)."""
    at, flat = row * X.shape[1], X.ravel()
    while len(node):
        f = model.feature[node]
        done = f < 0
        leaf[cell[done]] = node[done]
        live = ~done
        node, at, cell, f = node[live], at[live], cell[live], f[live]
        goes_left = flat[at + f] <= model.threshold[node]
        node = np.where(goes_left, node + 1, model.right[node])


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
    trees = [_read_tree(r, t, n_features) for t in range(n_trees)]
    r.end()
    return ForestModel.from_trees(
        trees,
        feature_importances=importances,
        active_features=np.array(active, dtype=np.int64),
        n_features=n_features,
        stats_fingerprint=stats_id,
    )
