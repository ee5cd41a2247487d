"""Nearest-centroid misuse classifier: fit/assign oracles, evaluation,
alarm verification, damaged model files. The rest of the
file format is tested in test_artifacts.py."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hybrid_ids.centroids import (
    assign_batch,
    evaluate_misuse,
    fit,
    load_centroids,
    signature_collisions,
)
from hybrid_ids.dataset import CoarseLabel, Dataset, N_FEATURES, standardize_apply, standardize_dataset, standardize_fit

from conftest import expect_load_error, separable_dataset
from test_artifacts import saved


def tiny_dataset(rows: list[tuple[str, int, np.ndarray]]) -> Dataset:
    X = np.stack([r[2] for r in rows])
    return Dataset(X, [r[0] for r in rows], [r[1] for r in rows])


def vec(*head) -> np.ndarray:
    x = np.zeros(N_FEATURES)
    x[: len(head)] = head
    return x


def nearest(model, *points: np.ndarray) -> list[str]:
    """Fine label of each point's nearest signature, through the batched
    lookup."""
    return [model.fine_labels[i] for i in assign_batch(model, np.stack(points)).tolist()]


def test_fit_single_point_centroid_is_the_point():
    p = vec(3.5, -1.0, 2.0)
    ds = tiny_dataset([("normal", 0, p), ("smurf", 1, vec(9.0))])
    model = fit(ds)
    assert model.fine_labels == ["normal", "smurf"]
    assert model.coarse.tolist() == [0, 1]
    assert np.array_equal(model.centroids[0], p)
    assert model.support.tolist() == [1, 1]


def test_fit_midpoint():
    ds = tiny_dataset(
        [
            ("normal", 0, vec()),
            ("smurf", 1, vec(0.0)),
            ("smurf", 1, vec(2.0)),
        ]
    )
    model = fit(ds)
    assert np.array_equal(model.centroids[model.fine_labels.index("smurf")], vec(1.0))


def test_fit_matches_brute_force_averages():
    ds = separable_dataset(n_per_label=17, seed=0)
    std = standardize_dataset(standardize_fit(ds), ds)
    model = fit(std)
    assert model.fine_labels == sorted(set(std.fine_labels))
    for label, centroid, support in zip(model.fine_labels, model.centroids, model.support):
        rows = [std.X[i] for i in range(len(std)) if std.fine_labels[i] == label]
        expected = [sum(r[j] for r in rows) / len(rows) for j in range(N_FEATURES)]
        assert np.allclose(centroid, expected, atol=1e-12)
        assert support == len(rows)


def test_fit_one_signature_per_fine_label():
    rows = [("smurf", 1, vec(2.0, 1.0)), ("normal", 0, vec(0.0, 4.0)), ("back", 1, vec(5.0)),
            ("smurf", 1, vec(4.0, 3.0)), ("normal", 0, vec(1.0, 0.0)), ("smurf", 1, vec(0.0, 2.0))]
    model = fit(tiny_dataset(rows))
    assert model.fine_labels == ["back", "normal", "smurf"]
    assert model.coarse.tolist() == [1, 0, 1]
    assert model.support.tolist() == [1, 2, 3]
    assert np.array_equal(model.centroids, np.stack([vec(5.0), vec(0.5, 2.0), vec(2.0, 2.0)]))


def test_fit_requires_normal_class():
    ds = tiny_dataset([("smurf", 1, vec(1.0))])
    with pytest.raises(ValueError, match="normal"):
        fit(ds)


def test_fit_rejects_fine_label_with_two_coarse_classes():
    ds = tiny_dataset([
        ("normal", 0, vec(0.0)),
        ("smurf", 1, vec(1.0)),
        ("smurf", 2, vec(2.0)),
        ("smurf", 1, vec(3.0)),
    ])
    with pytest.raises(ValueError, match="fine label 'smurf' has rows of more than one coarse class: dos, probe"):
        fit(ds)


def test_fit_empty_dataset_errors():
    ds = Dataset(np.empty((0, N_FEATURES)), [], [])
    with pytest.raises(ValueError, match="empty"):
        fit(ds)


def test_assign_zero_distance_to_own_centroid():
    ds = tiny_dataset([("normal", 0, vec()), ("smurf", 1, vec(4.0, 4.0))])
    model = fit(ds)
    idx = assign_batch(model, vec(4.0, 4.0)[None, :])
    assert model.fine_labels[idx[0]] == "smurf"
    assert model.coarse[idx[0]] == CoarseLabel.DOS
    assert np.array_equal(model.centroids[idx[0]], vec(4.0, 4.0))


def test_assign_hand_distances():
    ds = tiny_dataset([("a_attack", 1, vec()), ("b_attack", 1, vec(10.0, 10.0)), ("normal", 0, vec(50.0))])
    model = fit(ds)
    # (1, 1) is sqrt(2) from a_attack; (6, 6) is sqrt(32) from b_attack
    # and sqrt(72) from a_attack; (40) is 10 from normal
    assert nearest(model, vec(1.0, 1.0), vec(6.0, 6.0), vec(40.0)) == [
        "a_attack", "b_attack", "normal"]


def test_assign_tie_breaks_lexicographically():
    same = vec(2.0, 2.0)
    ds = tiny_dataset([("bbb", 1, same), ("aaa", 1, same), ("normal", 0, vec(9.0))])
    model = fit(ds)
    assert nearest(model, vec(2.0, 2.0)) == ["aaa"]


def test_assign_matches_exhaustive_scan_on_1000_points():
    ds = separable_dataset(n_per_label=9, seed=1)
    std_stats = standardize_fit(ds)
    model = fit(standardize_dataset(std_stats, ds))
    rng = np.random.default_rng(2)
    points = rng.normal(size=(1000, N_FEATURES)) * 2.0
    nearest = assign_batch(model, points)
    for i in range(len(points)):
        best_j, best_d = None, None
        for j, centroid in enumerate(model.centroids):
            d = math.sqrt(float(((points[i] - centroid) ** 2).sum()))
            if best_d is None or d < best_d:
                best_j, best_d = j, d
        assert int(nearest[i]) == best_j


def test_assign_dimension_check():
    ds = tiny_dataset([("normal", 0, vec())])
    model = fit(ds)
    with pytest.raises(ValueError):
        assign_batch(model, np.zeros((3, 7)))


def test_evaluate_on_centroids_is_perfect():
    ds = separable_dataset(n_per_label=7, seed=3)
    model = fit(ds)
    centroid_ds = Dataset(model.centroids, model.fine_labels, model.coarse)
    predicted, coarse_acc, fine_acc = evaluate_misuse(model, centroid_ds)
    assert np.array_equal(predicted, model.coarse)
    assert fine_acc == 100.0
    assert coarse_acc == 100.0


def test_coarse_accuracy_at_least_fine_accuracy():
    for seed in range(5):
        ds = separable_dataset(n_per_label=12, seed=seed, spread=3.0)
        train = ds.subset(np.arange(0, len(ds), 2))
        test = ds.subset(np.arange(1, len(ds), 2))
        stats = standardize_fit(train)
        model = fit(standardize_dataset(stats, train))
        _, coarse_acc, fine_acc = evaluate_misuse(model, standardize_dataset(stats, test))
        assert coarse_acc >= fine_acc


def test_evaluate_distinct_rows_counts_every_row_they_stand_for():
    ds = separable_dataset(n_per_label=12, seed=1, spread=30.0)  # fine labels overlap
    model = fit(ds.subset(np.arange(0, len(ds), 2)))
    index = np.random.default_rng(1).integers(0, len(ds), size=3 * len(ds))
    predicted, coarse_acc, fine_acc = evaluate_misuse(model, ds, index)
    expected = evaluate_misuse(model, ds.subset(index))
    assert predicted.tolist() == expected[0].tolist()
    assert (coarse_acc, fine_acc) == expected[1:] != evaluate_misuse(model, ds)[1:]


def test_verify_alarm_normal_and_attack():
    ds = tiny_dataset([("normal", 0, vec()), ("neptune", 1, vec(6.0, 6.0))])
    model = fit(ds)
    # an alarm whose nearest signature is normal is cleared
    idx = assign_batch(model, np.stack([vec(), vec(6.0, 6.0)]))
    assert model.coarse[idx].tolist() == [CoarseLabel.NORMAL, CoarseLabel.DOS]


def test_assign_scale_consistency():
    ds = separable_dataset(n_per_label=8, seed=4)
    stats = standardize_fit(ds)
    std = standardize_dataset(stats, ds)
    model = fit(std)
    direct = assign_batch(model, std.X[13:14])
    assert np.array_equal(direct, assign_batch(model, standardize_apply(stats, ds.X[13:14])))


def test_no_shadowed_signatures_on_separated_data():
    ds = separable_dataset(n_per_label=10, seed=5)
    model = fit(standardize_dataset(standardize_fit(ds), ds))
    assert signature_collisions(model) == []


def test_shadowed_signature_detected():
    same = vec(1.0)
    ds = tiny_dataset([("normal", 0, same), ("zz_attack", 1, same)])
    model = fit(ds)
    assert signature_collisions(model) == ["zz_attack"]


def test_internal_consistency_fit_then_evaluate_on_train():
    ds = separable_dataset(n_per_label=11, seed=6)
    std = standardize_dataset(standardize_fit(ds), ds)
    model = fit(std)
    predicted, coarse_acc, _ = evaluate_misuse(model, std)
    nearest = assign_batch(model, std.X)
    assert predicted.tolist() == [model.coarse[j] for j in nearest]
    manual = float(
        np.mean([model.coarse[j] == std.coarse[i] for i, j in enumerate(nearest)])
    ) * 100.0
    assert coarse_acc == pytest.approx(manual)


@pytest.mark.parametrize("index, edit, match", [
    (0, lambda line: "hybrid-ids centroids v2", "expected format line"),
    (1, lambda line: "stats=0123456789ab", "expected 'stats_id='"),
    (2, lambda line: "entries=x", "entries 'x' is not a valid int"),
    (2, lambda line: "entries=0", "entries must be >= 1"),
    (2, lambda line: "count=6", "expected 'entries='"),
    (3, lambda line: line.replace("entry", "entree", 1), "expected 'entry <fine label>"),
    (3, lambda line: "entry normal normal", "expected 'entry <fine label>"),
    (3, lambda line: "", "expected 'entry <fine label>"),
    (4, lambda line: _token(line, 2, "dso"), "unknown coarse class 'dso'"),
    (5, lambda line: _token(line, 3, "x"), "support 'x' is not a valid int"),
    (6, lambda line: _token(line, 3, "-1"), "negative support -1"),
    (6, lambda line: _token(line, 3, str(2**63)), f"support {2**63} does not fit in 64 bits"),
    (7, lambda line: line.rsplit(" ", 1)[0], "expected 41 centroid values, got 40"),
    (8, lambda line: line + " 0.5", "expected 41 centroid values, got 42"),
    (3, lambda line: _token(line, 4, "nan"), "non-finite centroid value"),
    (4, lambda line: _token(line, 9, "-inf"), "non-finite centroid value"),
    (5, lambda line: _token(line, 6, "x"), "centroid 'x' is not a valid float"),
])
def test_load_centroids_garbled(tmp_path, index, edit, match):
    """One line of the artifact sample edited: the error names that line."""
    path, lines = saved("centroids", tmp_path)
    lines[index] = edit(lines[index])
    expect_load_error(load_centroids, path, lines, index + 1, match)


def _token(line: str, k: int, text: str) -> str:
    parts = line.split(" ")
    parts[k] = text
    return " ".join(parts)
