"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 1-5 need the canonical KDD Cup 1999 10% file (set KDD99_DATA or
place kddcup.data_10_percent[.gz] under ./data/) and are skipped when it is
absent. Criteria 6 and 7 run on synthetic data regardless of dataset
availability.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import Counter

import numpy as np
import pytest

from hybrid_ids import centroids as misuse
from hybrid_ids import neural_net as nn
from hybrid_ids import random_forest as rf
from hybrid_ids.cli import main
from hybrid_ids.dataset import (
    COARSE_NAMES,
    CoarseLabel,
    Dataset,
    Taxonomy,
    parse_kdd_line,
    read_kdd_dataset,
    resample,
    standardize_dataset,
    standardize_fit,
)
from hybrid_ids.evaluation import confusion, overall_accuracy, per_class_metrics
from hybrid_ids.hybrid import HybridModel, predict_dataset
from hybrid_ids.neural_net import TrainConfig
from hybrid_ids.random_forest import ForestConfig

from conftest import DEFAULT_SYNTH_COUNTS, load_rows, make_kdd_lines, separable_dataset

SEED = 1999


def _pass(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


# -------------------------------------------------------------------- 1-5
# Real-dataset pipeline, shared across criteria via module-scoped fixtures.

@pytest.fixture(scope="module")
def kdd_run(kdd10_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("kdd")
    started = time.perf_counter()
    rc = main(["prepare", "--data", str(kdd10_path), "--out", str(out),
               "--seed", str(SEED)])
    elapsed = time.perf_counter() - started
    assert rc == 0
    return {"out": out, "prepare_seconds": elapsed}


@pytest.fixture(scope="module")
def kdd_splits(kdd_run):
    train = load_rows(kdd_run["out"] / "train.csv")
    test = load_rows(kdd_run["out"] / "test.csv")
    stats = standardize_fit(train)
    return {
        "train": train,
        "test": test,
        "stats": stats,
        "std_train": standardize_dataset(stats, train),
        "std_test": standardize_dataset(stats, test),
    }


@pytest.fixture(scope="module")
def kdd_forest(kdd_splits):
    cfg = ForestConfig(n_trees=100, seed=SEED + 3)
    started = time.perf_counter()
    model = rf.train_forest(kdd_splits["std_train"], cfg)
    model = rf.prune_and_retrain(kdd_splits["std_train"], model, cfg)
    return model, time.perf_counter() - started


@pytest.fixture(scope="module")
def kdd_mlp(kdd_splits):
    model = nn.train(kdd_splits["std_train"], TrainConfig(seed=SEED + 2))
    return model


@pytest.fixture(scope="module")
def kdd_centroids(kdd_splits):
    return misuse.fit(kdd_splits["std_train"])


def test_criterion_1_table_counts_exact(kdd_run):
    summary = (kdd_run["out"] / "prepare_summary.txt").read_text()
    before = next(l for l in summary.splitlines() if l.startswith("Before Sampling:"))
    after = next(l for l in summary.splitlines() if l.startswith("After Sampling:"))
    # layout order: dos normal probe r2l u2r
    assert before.split()[2:] == ["54572", "87832", "2131", "999", "52"]
    assert after.split()[2:] == ["27285", "39524", "2131", "999", "86"]
    assert kdd_run["prepare_seconds"] < 120.0
    _pass(1, f"pre/post sampling counts exact; prepare took "
             f"{kdd_run['prepare_seconds']:.1f}s (< 120s)")


def test_criterion_2_random_forest_accuracy(kdd_splits, kdd_forest):
    model, train_seconds = kdd_forest
    preds = rf.predict_batch(model, kdd_splits["std_test"].X)
    matrix = confusion(preds, kdd_splits["test"].coarse)
    overall = overall_accuracy(matrix)
    accuracy = dict(zip(COARSE_NAMES, per_class_metrics(matrix)[0][2].tolist()))
    assert overall >= 99.0, f"overall accuracy {overall:.3f} < 99.0"
    floors = {"normal": 99.870 - 1.0, "dos": 99.985 - 1.0, "probe": 99.958 - 1.0}
    for name, floor in floors.items():
        got = accuracy[name]
        assert got >= floor, f"{name} one-vs-rest accuracy {got:.3f} < {floor:.3f}"
    assert train_seconds < 600.0
    _pass(2, f"overall {overall:.3f}%; OVR accuracy normal={accuracy['normal']:.3f} "
             f"dos={accuracy['dos']:.3f} probe={accuracy['probe']:.3f} "
             f"(u2r={accuracy['u2r']:.3f} reported, not gated); "
             f"trained in {train_seconds:.0f}s (< 600s)")


def test_criterion_3_nn_cross_validation(kdd_splits):
    # CV over the full Table-I-sampled data, standardized once
    train, test = kdd_splits["train"], kdd_splits["test"]
    full = Dataset(
        np.vstack([train.X, test.X]),
        list(train.fine_labels) + list(test.fine_labels),
        np.concatenate([train.coarse, test.coarse]),
    )
    std_full = standardize_dataset(standardize_fit(full), full)
    started = time.perf_counter()
    accs = nn.cross_validate(std_full, 2, TrainConfig(seed=SEED + 2), fold_seed=SEED + 5)
    elapsed = time.perf_counter() - started
    mean = float(np.mean(accs))
    assert mean >= 98.5, f"CV mean {mean:.3f} < 98.5"
    assert elapsed < 900.0
    _pass(3, f"2-fold CV mean overall accuracy {mean:.3f}% "
             f"(folds {', '.join(f'{a:.3f}' for a in accs)}) "
             f"in {elapsed:.0f}s (< 900s)")


def test_criterion_4_misuse_accuracy(kdd_splits, kdd_centroids):
    started = time.perf_counter()
    _, coarse_acc, fine_acc = misuse.evaluate_misuse(kdd_centroids, kdd_splits["std_test"])
    elapsed = time.perf_counter() - started
    assert coarse_acc >= 98.5, f"5-class {coarse_acc:.3f} < 98.5"
    assert fine_acc >= 88.0, f"fine-class {fine_acc:.3f} < 88.0"
    assert elapsed < 120.0
    _pass(4, f"5-class {coarse_acc:.3f}%, "
             f"{len(kdd_centroids)}-class {fine_acc:.3f}% (< 120s)")


def test_criterion_5_false_positive_trimming(kdd_splits, kdd_mlp, kdd_forest, kdd_centroids):
    model = HybridModel(
        mlp=kdd_mlp, forest=kdd_forest[0], centroids=kdd_centroids,
        stats=kdd_splits["stats"],
    )
    test = kdd_splits["test"]
    preds, _ = predict_dataset(model, test)
    truth_normal = test.coarse == int(CoarseLabel.NORMAL)
    union_fp = sum(1 for i, p in enumerate(preds) if truth_normal[i] and p.routed)
    final_fp = sum(1 for i, p in enumerate(preds)
                   if truth_normal[i] and p.coarse != CoarseLabel.NORMAL)
    trimmed = sum(1 for i, p in enumerate(preds)
                  if truth_normal[i] and p.routed and p.misuse_vote == CoarseLabel.NORMAL)
    assert final_fp <= union_fp
    if trimmed > 0:
        assert final_fp < union_fp
    _pass(5, f"hybrid FPs {final_fp} <= union-of-alarms FPs {union_fp} "
             f"({trimmed} alarms trimmed to normal)")


# -------------------------------------------------------------------- 6
# Property suites on synthetic data; must pass without the dataset.

def test_criterion_6a_gradients_vs_finite_differences():
    step = 1e-5
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model = nn.init_model(TrainConfig(hidden_dims=(4, 3), seed=seed), n_inputs=6)
        model.biases = [rng.normal(0.0, 0.3, size=b.shape) for b in model.biases]
        X = rng.normal(size=(8, 6))
        y = rng.integers(0, 5, size=8)
        _, (gw, gb) = nn.loss_and_gradient(model, X, y)
        for l in range(3):
            w = model.weights[l]
            for index in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                orig = w[index]
                w[index] = orig + step
                up, _ = nn.loss_and_gradient(model, X, y)
                w[index] = orig - step
                down, _ = nn.loss_and_gradient(model, X, y)
                w[index] = orig
                approx = (up - down) / (2 * step)
                denom = max(abs(approx), abs(gw[l][index]), 1e-8)
                assert abs(approx - gw[l][index]) / denom < 1e-4
                checked += 1
    _pass(6, f"6a gradients match central finite differences "
             f"({checked} coordinates over 20 models, rel err < 1e-4)")


def test_criterion_6b_softmax_normalization_and_shift_invariance():
    rng = np.random.default_rng(1)
    for seed in range(10):
        model = nn.init_model(TrainConfig(hidden_dims=(6, 4), seed=seed))
        X = rng.normal(size=(40, 41))
        probs = nn.forward(model, X)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
        shifted = nn.MLPModel(
            dims=model.dims,
            weights=[w.copy() for w in model.weights],
            biases=[b.copy() for b in model.biases],
        )
        shifted.biases[2] = shifted.biases[2] + rng.uniform(-25.0, 25.0)
        assert np.array_equal(nn.predict_batch(model, X), nn.predict_batch(shifted, X))
    _pass(6, "6b softmax sums within 1e-9; argmax invariant under logit shifts")


def test_criterion_6c_forest_vote_oracle_and_gini():
    assert rf.gini((4, 0, 0, 0, 0), 4) == 0.0
    assert rf.gini((2, 2, 0, 0, 0), 4) == 0.5
    assert rf.gini((1, 1, 1, 1, 1), 5) == pytest.approx(0.8, abs=1e-15)
    ds = separable_dataset(n_per_label=10, seed=5, spread=1.5)
    model = rf.train_forest(ds, ForestConfig(n_trees=7, seed=8))
    rng = np.random.default_rng(9)
    probe = rng.normal(size=(120, 41)) * 5
    got = rf.predict_batch(model, probe)

    def route_one(node, x):
        while model.feature[node] >= 0:
            go_left = x[model.feature[node]] <= model.threshold[node]
            node = node + 1 if go_left else model.right[node]
        return model.counts[node]

    for i, x in enumerate(probe):
        votes = np.zeros(5, dtype=int)
        mass = np.zeros(5, dtype=int)
        for root in model.starts:
            counts = route_one(root, x)
            votes[int(np.argmax(counts))] += 1
            mass += counts
        best = np.flatnonzero(votes == votes.max())
        if len(best) > 1:
            heaviest = best[mass[best] == mass[best].max()]
            expected = int(heaviest.min())
        else:
            expected = int(best[0])
        assert got[i] == expected
    _pass(6, "6c forest mode vote equals exhaustive oracle on 120 inputs; "
             "gini hand cases 0 / 0.5 / 0.8 exact")


def test_criterion_6d_centroid_oracles():
    ds = separable_dataset(n_per_label=9, seed=1)
    std = standardize_dataset(standardize_fit(ds), ds)
    model = misuse.fit(std)
    for label, centroid in zip(model.fine_labels, model.centroids):
        rows = [std.X[i] for i in range(len(std)) if std.fine_labels[i] == label]
        expected = [sum(r[j] for r in rows) / len(rows) for j in range(41)]
        assert np.allclose(centroid, expected, atol=1e-12)
    rng = np.random.default_rng(2)
    points = rng.normal(size=(1000, 41)) * 2.0
    nearest = misuse.assign_batch(model, points)
    for i in range(1000):
        best_j, best_d = None, None
        for j, centroid in enumerate(model.centroids):
            d = math.sqrt(float(((points[i] - centroid) ** 2).sum()))
            if best_d is None or d < best_d:
                best_j, best_d = j, d
        assert int(nearest[i]) == best_j
    _pass(6, "6d centroids equal brute-force label averages; assignment equals "
             "exhaustive distance scan on 1000 points")


def test_criterion_6e_data_and_metric_identities(tmp_path):
    # resample hits its targets exactly
    ds = separable_dataset(n_per_label=24, seed=3)
    targets = {CoarseLabel.NORMAL: 10, CoarseLabel.DOS: 60, CoarseLabel.PROBE: 24,
               CoarseLabel.R2L: 5, CoarseLabel.U2R: 40}
    out = resample(ds, targets, seed=4)
    assert out.counts_by_coarse() == targets

    # dedup idempotent on a corpus with duplicates
    lines = make_kdd_lines({"normal": 30, "neptune": 30}, seed=5)
    path = tmp_path / "kdd.txt"
    path.write_text("\n".join(lines + lines) + "\n")
    once, _ = read_kdd_dataset(path, Taxonomy.default())
    path.write_text("\n".join(dict.fromkeys(lines)) + "\n")
    twice, parsed = read_kdd_dataset(path, Taxonomy.default())
    assert (twice.X.tobytes(), twice.fine_labels.tolist(), parsed) == (
        once.X.tobytes(), once.fine_labels.tolist(), len(once))

    # one-hot block sums to exactly 1
    for line in lines:
        x = parse_kdd_line(line).x
        assert x[1:4].sum() == 1.0
        assert set(x[1:4]) <= {0.0, 1.0}

    # confusion totals and micro-recall == overall accuracy
    rng = np.random.default_rng(6)
    truths = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=250)]
    preds = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=250)]
    m = confusion(preds, truths)
    assert m.sum() == 250
    micro = 100.0 * sum(int(m[i, i]) for i in range(5)) / 250
    assert micro == pytest.approx(overall_accuracy(m))
    _pass(6, "6e resample exact; dedup idempotent; one-hot sums 1; "
             "confusion totals and micro-recall identity hold")


# -------------------------------------------------------------------- 7

def test_criterion_7_command_determinism(tmp_path):
    lines = make_kdd_lines(DEFAULT_SYNTH_COUNTS, seed=7)
    data = tmp_path / "synth.txt"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    distinct = Counter()
    for line in dict.fromkeys(lines):
        distinct[line.rsplit(",", 1)[1].rstrip(".")] += 1
    config = tmp_path / "run.cfg"
    config.write_text(
        "\n".join([
            f"data={data}", f"out={out}", f"seed={SEED}",
            f"sampling.normal={distinct['normal']}",
            f"sampling.dos={distinct['neptune'] + distinct['smurf']}",
            f"sampling.probe={distinct['ipsweep']}",
            f"sampling.r2l={distinct['guess_passwd']}",
            f"sampling.u2r={distinct['buffer_overflow'] + 5}",
            "nn.hidden1=16", "nn.hidden2=8", "nn.epochs=30",
            "nn.batch_size=16", "nn.learning_rate=0.05", "nn.folds=2",
            "rf.trees=5",
        ]) + "\n"
    )
    watched = [
        "train.csv", "test.csv", "taxonomy.txt", "prepare_summary.txt",
        "stats.txt", "mlp.model", "forest.model", "centroids.model",
        "hybrid.manifest", "confusion_hybrid.csv", "metrics_hybrid.csv",
        "report_hybrid.txt", "routing_hybrid.txt",
    ]

    def run_all() -> dict[str, str]:
        assert main(["prepare", "--config", str(config)]) == 0
        assert main(["train", "hybrid", "--config", str(config)]) == 0
        assert main(["evaluate", "hybrid", "--config", str(config)]) == 0
        return {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in watched
        }

    first = run_all()
    second = run_all()
    assert first == second
    _pass(7, f"rerun with identical config and seed reproduced all "
             f"{len(watched)} artifact files byte-for-byte")
