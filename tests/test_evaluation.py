"""Confusion matrices, one-vs-rest metrics, overall accuracy, reports."""

from __future__ import annotations

import numpy as np
import pytest

from hybrid_ids.dataset import COARSE_NAMES, CoarseLabel
from hybrid_ids.evaluation import (
    confusion,
    format_report,
    load_confusion_csv,
    overall_accuracy,
    per_class_metrics,
    write_confusion_csv,
    write_metrics_csv,
)

from conftest import expect_load_error
from test_artifacts import saved


def test_perfect_predictions_are_diagonal():
    labels = [CoarseLabel.NORMAL, CoarseLabel.DOS, CoarseLabel.PROBE,
              CoarseLabel.DOS, CoarseLabel.U2R]
    m = confusion(labels, labels)
    assert m.shape == (5, 5) and m.dtype == np.int64
    assert np.array_equal(m, np.diag([1, 2, 1, 0, 1]))


def test_single_misprediction_cell():
    m = confusion([CoarseLabel.DOS], [CoarseLabel.NORMAL])
    assert m[COARSE_NAMES.index("normal"), COARSE_NAMES.index("dos")] == 1
    assert m.sum() == 1


def test_row_sums_match_brute_force_truth_counts():
    rng = np.random.default_rng(0)
    truths = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=200)]
    preds = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=200)]
    m = confusion(preds, truths)
    for i, name in enumerate(COARSE_NAMES):
        expected = sum(1 for t in truths if str(t) == name)
        assert int(m[i].sum()) == expected


def test_length_mismatch_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        confusion([CoarseLabel.DOS], [CoarseLabel.DOS, CoarseLabel.NORMAL])


def test_unknown_label_errors():
    with pytest.raises(ValueError, match="truth labels must be integer class codes"):
        confusion([CoarseLabel.DOS], ["neptune"])


@pytest.mark.parametrize("preds, truths, kind, dtype", [
    (["smurf", "normal"], [1, 0], "predicted", "<U6"),
    ([1, 0], ["dos", "normal"], "truth", "<U6"),
    (np.array([0.0, 1.0]), np.array([0, 1]), "predicted", "float64"),
    (np.array([0, 1]), [0, 1.5], "truth", "float64"),
])
def test_labels_that_are_not_class_codes_error(preds, truths, kind, dtype):
    with pytest.raises(ValueError, match=f"^{kind} labels must be integer class codes "
                                         f"or CoarseLabel values, got an array of {dtype}$"):
        confusion(preds, truths)


@pytest.mark.parametrize("as_enum", [False, True])
def test_coarse_confusion_equals_plain_loop(as_enum):
    rng = np.random.default_rng(1)
    for n in (0, 1, 7, 500):
        truths = rng.integers(0, 5, size=n)
        preds = rng.integers(0, 5, size=n)
        expected = np.zeros((5, 5), dtype=np.int64)
        for t, p in zip(truths, preds):
            expected[t, p] += 1
        if as_enum:
            truths = [CoarseLabel(int(v)) for v in truths]
            preds = [CoarseLabel(int(v)) for v in preds]
        m = confusion(preds, truths)
        assert m.dtype == np.int64
        assert np.array_equal(m, expected)


@pytest.mark.parametrize("preds, truths", [
    (np.array([0, 5]), np.array([0, 1])),
    (np.array([0, 1]), np.array([-1, 1])),
    ([0, 1], [1, 9]),
])
def test_out_of_range_coarse_class_errors(preds, truths):
    with pytest.raises(ValueError, match="unknown (truth|predicted) label"):
        confusion(preds, truths)


def test_identity_matrix_metrics_are_100():
    metrics = per_class_metrics(np.eye(5, dtype=np.int64) * 4)
    for name in COARSE_NAMES:
        assert metrics[name].precision == 100.0
        assert metrics[name].recall == 100.0
        assert metrics[name].accuracy == 100.0


def test_hand_counted_two_class_reduction():
    # 4 records, truth normal dos dos dos predicted normal normal dos dos;
    # class normal: TP=1, FP=1, FN=0, TN=2
    m = confusion([0, 0, 1, 1], [0, 1, 1, 1])
    metrics = per_class_metrics(m)
    assert metrics["normal"].precision == pytest.approx(50.0)
    assert metrics["normal"].recall == pytest.approx(100.0)
    assert metrics["normal"].accuracy == pytest.approx(75.0)


def test_undefined_divisions_flagged_as_zero():
    # class u2r never occurs and is never predicted
    preds = [CoarseLabel.NORMAL, CoarseLabel.DOS]
    truths = [CoarseLabel.NORMAL, CoarseLabel.DOS]
    metrics = per_class_metrics(confusion(preds, truths))
    u2r = metrics["u2r"]
    assert u2r.precision == 0.0 and not u2r.precision_defined
    assert u2r.recall == 0.0 and not u2r.recall_defined
    assert u2r.accuracy == 100.0
    assert "precision_undefined" in u2r.flags and "recall_undefined" in u2r.flags


def test_overall_accuracy_cases():
    assert overall_accuracy(np.eye(5, dtype=np.int64) * 3) == 100.0
    assert overall_accuracy(np.ones((5, 5), dtype=np.int64)) == pytest.approx(20.0)


def test_overall_accuracy_equals_brute_force_complement():
    rng = np.random.default_rng(1)
    truths = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=300)]
    preds = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=300)]
    m = confusion(preds, truths)
    wrong = sum(1 for p, t in zip(preds, truths) if p != t)
    assert overall_accuracy(m) == pytest.approx(100.0 - 100.0 * wrong / 300)


def test_micro_recall_equals_overall_accuracy():
    rng = np.random.default_rng(2)
    for _ in range(10):
        truths = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=120)]
        preds = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=120)]
        m = confusion(preds, truths)
        tp_sum, tp_fn_sum = 0, 0
        for i in range(5):
            tp_sum += int(m[i, i])
            tp_fn_sum += int(m[i].sum())
        assert 100.0 * tp_sum / tp_fn_sum == pytest.approx(overall_accuracy(m))


def test_per_class_tp_fp_fn_tn_partition():
    rng = np.random.default_rng(3)
    truths = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=77)]
    preds = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=77)]
    m = confusion(preds, truths)
    n = int(m.sum())
    for i in range(5):
        tp = int(m[i, i])
        fp = int(m[:, i].sum()) - tp
        fn = int(m[i].sum()) - tp
        tn = n - tp - fp - fn
        assert tp + fp + fn + tn == n


def test_metrics_permutation_invariant():
    # renaming the classes by a permutation moves each class's metrics with it
    truths = np.array([0, 1, 2, 0, 1, 2, 0, 4])
    preds = np.array([0, 1, 0, 2, 1, 2, 0, 3])
    perm = np.array([2, 4, 0, 1, 3])
    met1 = per_class_metrics(confusion(preds, truths))
    met2 = per_class_metrics(confusion(perm[preds], perm[truths]))
    for i, name in enumerate(COARSE_NAMES):
        assert met1[name] == met2[COARSE_NAMES[perm[i]]]
    assert overall_accuracy(confusion(preds, truths)) == overall_accuracy(
        confusion(perm[preds], perm[truths]))


def test_format_report_layout():
    m = confusion([CoarseLabel.NORMAL, CoarseLabel.DOS], [CoarseLabel.NORMAL, CoarseLabel.DOS])
    text = format_report(m, "Test table", seed=1999)
    lines = text.splitlines()
    assert lines[0] == "Test table"
    assert lines[1] == "seed=1999"
    assert lines[2].startswith("Label:")
    assert any(line.startswith("Precision:") for line in lines)
    assert any(line.startswith("Recall:") for line in lines)
    assert any(line.startswith("Accuracy:") for line in lines)
    assert "100.000" in text  # three-decimal rendering


def test_csv_output_headers(tmp_path):
    m = confusion([0, 1, 2, 3, 4, 1], [0, 1, 2, 3, 4, 2])
    write_confusion_csv(tmp_path / "confusion.csv", m, seed=7)
    write_metrics_csv(tmp_path / "metrics.csv", m, seed=7)
    assert (tmp_path / "confusion.csv").read_text().splitlines()[:3] == [
        "# hybrid-ids confusion v1", "# seed=7", "truth\\pred,normal,dos,probe,r2l,u2r"]
    assert (tmp_path / "metrics.csv").read_text().splitlines()[:3] == [
        "# hybrid-ids metrics v1", "# seed=7", "class,precision,recall,accuracy,flags"]


def _set(i, text):
    return lambda lines: lines[:i] + [text] + lines[i + 1:]


@pytest.mark.parametrize("edit, line_no, match", [
    (lambda lines: lines[:5], 6, "unexpected end of file, expected the row of 'probe'"),
    (lambda lines: lines[:2], 3, "unexpected end of file, expected the header"),
    (_set(0, "# hybrid-ids metrics v1"), 1, "expected format line 'hybrid-ids confusion v1'"),
    (_set(2, "truth,normal,dos,probe,r2l,u2r"), 3, "expected 'truth\\\\pred'"),
    (_set(2, "truth\\pred,normal,dos,dos,r2l,u2r"), 3, "distinct class names"),
    (_set(2, "truth\\pred"), 3, "distinct class names"),
    (_set(3, "dos,1,0,0,0,0"), 4, "expected 'normal' and 5 counts"),
    (_set(4, "dos,0,x,0,0,0"), 5, "count 'x' is not a valid int"),
    (_set(5, "probe,0,0,1"), 6, "expected 'probe' and 5 counts, got 'probe,0,0,1'"),
    (_set(6, "r2l,0,0,0,-1,0"), 7, "counts must be non-negative 64-bit integers"),
    (_set(7, "u2r,0,0,0,0,99999999999999999999"), 8, "counts must be non-negative"),
    (lambda lines: lines + ["normal,1,0,0,0,0"], 9, "unexpected content after the end"),
])
def test_load_confusion_csv_rejects_damage(tmp_path, edit, line_no, match):
    path, lines = saved("confusion", tmp_path)
    assert len(lines) == 8  # format line, seed, header, five rows
    expect_load_error(load_confusion_csv, path, edit(lines), line_no, match)
