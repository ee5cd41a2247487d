"""Confusion matrices, one-vs-rest metrics, overall accuracy, reports."""

from __future__ import annotations

import numpy as np
import pytest

from hybrid_ids.dataset import COARSE_NAMES, CoarseLabel
from hybrid_ids.errors import FormatError
from hybrid_ids.evaluation import (
    ConfusionMatrix,
    confusion,
    format_report,
    load_confusion_csv,
    overall_accuracy,
    per_class_metrics,
    write_confusion_csv,
    write_metrics_csv,
)


def test_perfect_predictions_are_diagonal():
    labels = [CoarseLabel.NORMAL, CoarseLabel.DOS, CoarseLabel.PROBE,
              CoarseLabel.DOS, CoarseLabel.U2R]
    m = confusion(labels, labels)
    assert np.array_equal(m.counts, np.diag([1, 2, 1, 0, 1]))
    assert m.classes == COARSE_NAMES


def test_single_misprediction_cell():
    m = confusion([CoarseLabel.DOS], [CoarseLabel.NORMAL])
    assert m.counts[m.index("normal"), m.index("dos")] == 1
    assert m.counts.sum() == 1


def test_row_sums_match_brute_force_truth_counts():
    rng = np.random.default_rng(0)
    truths = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=200)]
    preds = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=200)]
    m = confusion(preds, truths)
    for i, name in enumerate(m.classes):
        expected = sum(1 for t in truths if str(t) == name)
        assert int(m.counts[i].sum()) == expected


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
        assert m.classes == COARSE_NAMES
        assert m.counts.dtype == np.int64
        assert np.array_equal(m.counts, expected)


@pytest.mark.parametrize("preds, truths", [
    (np.array([0, 5]), np.array([0, 1])),
    (np.array([0, 1]), np.array([-1, 1])),
    ([0, 1], [1, 9]),
])
def test_out_of_range_coarse_class_errors(preds, truths):
    with pytest.raises(ValueError, match="unknown (truth|predicted) label"):
        confusion(preds, truths)


def test_identity_matrix_metrics_are_100():
    m = ConfusionMatrix(classes=COARSE_NAMES, counts=np.eye(5, dtype=np.int64) * 4)
    metrics = per_class_metrics(m)
    for name in COARSE_NAMES:
        assert metrics[name].precision == 100.0
        assert metrics[name].recall == 100.0
        assert metrics[name].accuracy == 100.0


def test_hand_counted_two_class_reduction():
    # 4 records, truth A B B B predicted A A B B; class A: TP=1, FP=1, FN=0, TN=2
    m = ConfusionMatrix(classes=("A", "B"), counts=np.array([[1, 0], [1, 2]]))
    metrics = per_class_metrics(m)
    assert metrics["A"].precision == pytest.approx(50.0)
    assert metrics["A"].recall == pytest.approx(100.0)
    assert metrics["A"].accuracy == pytest.approx(75.0)


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
    diag = ConfusionMatrix(classes=COARSE_NAMES, counts=np.eye(5, dtype=np.int64) * 3)
    assert overall_accuracy(diag) == 100.0
    uniform = ConfusionMatrix(classes=COARSE_NAMES, counts=np.ones((5, 5), dtype=np.int64))
    assert overall_accuracy(uniform) == pytest.approx(20.0)


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
            tp_sum += int(m.counts[i, i])
            tp_fn_sum += int(m.counts[i].sum())
        assert 100.0 * tp_sum / tp_fn_sum == pytest.approx(overall_accuracy(m))


def test_per_class_tp_fp_fn_tn_partition():
    rng = np.random.default_rng(3)
    truths = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=77)]
    preds = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=77)]
    m = confusion(preds, truths)
    n = m.total
    for i in range(5):
        tp = int(m.counts[i, i])
        fp = int(m.counts[:, i].sum()) - tp
        fn = int(m.counts[i].sum()) - tp
        tn = n - tp - fp - fn
        assert tp + fp + fn + tn == n


def _matrix(classes, preds, truths):
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(truths, preds):
        counts[classes.index(t), classes.index(p)] += 1
    return ConfusionMatrix(classes=classes, counts=counts)


def test_metrics_permutation_invariant():
    truths = ["a", "b", "c", "a", "b", "c", "a"]
    preds = ["a", "b", "a", "c", "b", "c", "a"]
    m1 = _matrix(("a", "b", "c"), preds, truths)
    m2 = _matrix(("c", "a", "b"), preds, truths)
    met1 = per_class_metrics(m1)
    met2 = per_class_metrics(m2)
    for name in ("a", "b", "c"):
        assert met1[name].precision == met2[name].precision
        assert met1[name].recall == met2[name].recall
        assert met1[name].accuracy == met2[name].accuracy
    assert overall_accuracy(m1) == overall_accuracy(m2)


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


def test_csv_outputs_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    truths = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=60)]
    preds = [CoarseLabel(int(v)) for v in rng.integers(0, 5, size=60)]
    m = confusion(preds, truths)
    confusion_path = tmp_path / "confusion.csv"
    metrics_path = tmp_path / "metrics.csv"
    write_confusion_csv(confusion_path, m, seed=7)
    write_metrics_csv(metrics_path, m, seed=7)
    assert confusion_path.read_text().startswith("# hybrid-ids confusion v1")
    assert metrics_path.read_text().startswith("# hybrid-ids metrics v1")
    assert "# seed=7" in confusion_path.read_text()
    loaded = load_confusion_csv(confusion_path)
    assert loaded.classes == m.classes
    assert np.array_equal(loaded.counts, m.counts)
    header = metrics_path.read_text().splitlines()[2]
    assert header == "class,precision,recall,accuracy,flags"


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
    path = tmp_path / "confusion.csv"
    write_confusion_csv(path, confusion([0, 1, 2, 3, 4, 1], [0, 1, 2, 3, 4, 2]), seed=7)
    lines = path.read_text().splitlines()
    assert len(lines) == 8  # format line, seed, header, five rows
    path.write_text("".join(line + "\n" for line in edit(lines)))
    with pytest.raises(FormatError, match=match) as info:
        load_confusion_csv(path)
    assert info.value.line_no == line_no
    assert str(info.value).startswith(f"{path}, line {line_no}: ")
