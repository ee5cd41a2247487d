"""Nearest-centroid misuse classifier: fit/assign oracles, evaluation,
alarm verification, sub-clustering, persistence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybrid_ids.centroids import (
    assign_batch,
    evaluate_misuse,
    fit,
    load_centroids,
    save_centroids,
    signature_collisions,
)
from hybrid_ids.errors import FormatError
from hybrid_ids.dataset import CoarseLabel, Dataset, N_FEATURES, standardize_apply, standardize_dataset, standardize_fit

from conftest import separable_dataset


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
    idx, _ = assign_batch(model, np.stack(points))
    return [model.fine_labels[i] for i in idx.tolist()]


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


def test_fit_requires_normal_class():
    ds = tiny_dataset([("smurf", 1, vec(1.0))])
    with pytest.raises(ValueError, match="normal"):
        fit(ds)


@pytest.mark.parametrize("clusters_per_label", [1, 2])
def test_fit_rejects_fine_label_with_two_coarse_classes(clusters_per_label):
    ds = tiny_dataset([
        ("normal", 0, vec(0.0)),
        ("smurf", 1, vec(1.0)),
        ("smurf", 2, vec(2.0)),
        ("smurf", 1, vec(3.0)),
    ])
    with pytest.raises(ValueError, match="fine label 'smurf' has rows of more than one coarse class: dos, probe"):
        fit(ds, clusters_per_label)


def test_fit_empty_dataset_errors():
    ds = Dataset(np.empty((0, N_FEATURES)), [], [])
    with pytest.raises(ValueError, match="empty"):
        fit(ds)


def test_assign_zero_distance_to_own_centroid():
    ds = tiny_dataset([("normal", 0, vec()), ("smurf", 1, vec(4.0, 4.0))])
    model = fit(ds)
    idx, distance = assign_batch(model, vec(4.0, 4.0)[None, :])
    assert model.fine_labels[idx[0]] == "smurf"
    assert model.coarse[idx[0]] == CoarseLabel.DOS
    assert distance[0] == 0.0


def test_assign_hand_distances():
    ds = tiny_dataset([("a_attack", 1, vec()), ("b_attack", 1, vec(10.0, 10.0)), ("normal", 0, vec(50.0))])
    model = fit(ds)
    idx, distance = assign_batch(model, vec(1.0, 1.0)[None, :])
    assert model.fine_labels[idx[0]] == "a_attack"
    assert distance[0] == pytest.approx(math.sqrt(2.0))


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
    nearest, distances = assign_batch(model, points)
    for i in range(len(points)):
        best_j, best_d = None, None
        for j, centroid in enumerate(model.centroids):
            d = math.sqrt(float(((points[i] - centroid) ** 2).sum()))
            if best_d is None or d < best_d:
                best_j, best_d = j, d
        assert int(nearest[i]) == best_j
        assert distances[i] == pytest.approx(best_d, rel=1e-12)


def test_assign_dimension_check():
    ds = tiny_dataset([("normal", 0, vec())])
    model = fit(ds)
    with pytest.raises(ValueError):
        assign_batch(model, np.zeros((3, 7)))


def test_evaluate_on_centroids_is_perfect():
    ds = separable_dataset(n_per_label=7, seed=3)
    model = fit(ds)
    centroid_ds = Dataset(model.centroids, model.fine_labels, model.coarse)
    result = evaluate_misuse(model, centroid_ds)
    assert result.fine_accuracy == 100.0
    assert result.coarse_accuracy == 100.0


def test_coarse_accuracy_at_least_fine_accuracy():
    for seed in range(5):
        ds = separable_dataset(n_per_label=12, seed=seed, spread=3.0)
        train = ds.subset(np.arange(0, len(ds), 2))
        test = ds.subset(np.arange(1, len(ds), 2))
        stats = standardize_fit(train)
        model = fit(standardize_dataset(stats, train))
        result = evaluate_misuse(model, standardize_dataset(stats, test))
        assert result.coarse_accuracy >= result.fine_accuracy


def test_verify_alarm_normal_and_attack():
    ds = tiny_dataset([("normal", 0, vec()), ("neptune", 1, vec(6.0, 6.0))])
    model = fit(ds)
    # an alarm whose nearest signature is normal is cleared
    idx, _ = assign_batch(model, np.stack([vec(), vec(6.0, 6.0)]))
    assert model.coarse[idx].tolist() == [CoarseLabel.NORMAL, CoarseLabel.DOS]


def test_assign_scale_consistency():
    ds = separable_dataset(n_per_label=8, seed=4)
    stats = standardize_fit(ds)
    std = standardize_dataset(stats, ds)
    model = fit(std)
    direct_idx, direct_dist = assign_batch(model, std.X[13:14])
    via_idx, via_dist = assign_batch(model, standardize_apply(stats, ds.X[13:14]))
    assert np.array_equal(direct_idx, via_idx)
    assert np.array_equal(direct_dist, via_dist)


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
    result = evaluate_misuse(model, std)
    nearest, _ = assign_batch(model, std.X)
    manual = float(
        np.mean([model.coarse[j] == std.coarse[i] for i, j in enumerate(nearest)])
    ) * 100.0
    assert result.coarse_accuracy == pytest.approx(manual)


def test_sub_clustering_k2():
    rng = np.random.default_rng(7)
    blob_a = rng.normal(-5.0, 0.2, size=(20, N_FEATURES))
    blob_b = rng.normal(5.0, 0.2, size=(20, N_FEATURES))
    rows = [("smurf", 1, x) for x in np.vstack([blob_a, blob_b])]
    rows += [("normal", 0, rng.normal(0.0, 0.2, size=N_FEATURES)) for _ in range(20)]
    ds = tiny_dataset(rows)
    model = fit(ds, clusters_per_label=2, seed=0)
    smurf = [i for i, label in enumerate(model.fine_labels) if label == "smurf"]
    assert len(smurf) == 2
    assert model.coarse[smurf].tolist() == [CoarseLabel.DOS] * 2
    assert model.support[smurf].tolist() == [20, 20]
    means = sorted(model.centroids[smurf].mean(axis=1).tolist())
    assert means[0] == pytest.approx(-5.0, abs=0.3)
    assert means[1] == pytest.approx(5.0, abs=0.3)
    assert nearest(model, blob_a[0]) == ["smurf"]


def test_sub_clustering_deterministic():
    ds = separable_dataset(n_per_label=15, seed=8)
    a = fit(ds, clusters_per_label=3, seed=1)
    b = fit(ds, clusters_per_label=3, seed=1)
    assert a.fine_labels == b.fine_labels
    assert np.array_equal(a.centroids, b.centroids)


def test_centroid_persistence_round_trip(tmp_path):
    ds = separable_dataset(n_per_label=6, seed=9)
    probe = np.random.default_rng(1).normal(size=(50, N_FEATURES))
    path = tmp_path / "centroids.model"
    for clusters_per_label in (1, 2):
        model = fit(ds, clusters_per_label, seed=3)
        assert len(model) == clusters_per_label * len(set(model.fine_labels))
        model.stats_fingerprint = "0123456789ab"
        save_centroids(path, model)
        assert path.read_text().startswith("hybrid-ids centroids v1")
        loaded = load_centroids(path)
        assert loaded.stats_fingerprint == "0123456789ab"
        assert loaded.fine_labels == model.fine_labels
        for got, want in ((loaded.coarse, model.coarse), (loaded.support, model.support),
                          (loaded.centroids.view(np.uint64), model.centroids.view(np.uint64))):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(assign_batch(loaded, probe)[0], assign_batch(model, probe)[0])


# ---------------------------------------------------------------------------
# load_centroids on damaged files: always a FormatError naming file and line.

def _centroid_file(tmp_path):
    model = fit(separable_dataset(n_per_label=4, seed=21))
    model.stats_fingerprint = "0123456789ab"
    path = tmp_path / "centroids.model"
    save_centroids(path, model)
    return path, path.read_text().splitlines()


def _expect_load_error(path, lines, line_no, match):
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(FormatError, match=match) as info:
        load_centroids(path)
    assert info.value.line_no == line_no
    assert str(info.value).startswith(f"{path}, line {line_no}: ")


def test_load_centroids_truncated(tmp_path):
    path, lines = _centroid_file(tmp_path)
    assert lines[2] == "entries=6" and len(lines) == 9
    for keep in range(len(lines)):
        _expect_load_error(path, lines[:keep], keep + 1, "unexpected end of file")


def test_load_centroids_entry_count_must_match_lines(tmp_path):
    path, lines = _centroid_file(tmp_path)
    _expect_load_error(path, lines + ["entry junk"], 10, "unexpected content after the end")
    _expect_load_error(path, lines[:2] + ["entries=5"] + lines[3:], 9,
                       "unexpected content after the end")
    _expect_load_error(path, lines[:2] + ["entries=7"] + lines[3:], 10, "unexpected end of file")
    path.write_text("\n".join(lines) + "\n\n  \n")
    assert len(load_centroids(path)) == 6


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
    path, lines = _centroid_file(tmp_path)
    lines[index] = edit(lines[index])
    _expect_load_error(path, lines, index + 1, match)


def _token(line: str, k: int, text: str) -> str:
    parts = line.split(" ")
    parts[k] = text
    return " ".join(parts)


_GARBLE_TEXT = st.sampled_from(
    ["", "x", "0", "-1", "1.5", "nan", "inf", "1e400", "=", "entry", "entries=2",
     "normal", "dos", "rtl", "dso", "stats_id=", "99999999999999999999", " "]
)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_load_centroids_garbled_raises_only_format_error(tmp_path_factory, data):
    path, lines = _centroid_file(tmp_path_factory.mktemp("garble"))
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(["delete", "duplicate", "replace", "token", "cut", "swap"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "replace":
            lines[i] = data.draw(_GARBLE_TEXT)
        elif op == "token":
            parts = lines[i].split(" ")
            lines[i] = _token(lines[i], data.draw(st.integers(0, len(parts) - 1)),
                              data.draw(_GARBLE_TEXT))
        elif op == "cut":
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])))]
            del lines[i + 1:]
        else:
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        if not lines:
            break
    path.write_text("\n".join(lines) + "\n")
    try:
        model = load_centroids(path)
    except FormatError as exc:
        assert str(exc).startswith(f"{path}, line {exc.line_no}: ")
        return
    # the edits left a well-formed file: the model must be usable as loaded
    nearest, dist = assign_batch(model, np.zeros((3, N_FEATURES)))
    assert len(nearest) == 3 and np.isfinite(dist).all()
