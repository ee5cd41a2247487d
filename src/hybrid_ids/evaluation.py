"""Confusion matrices and per-class one-vs-rest metrics.

:func:`confusion` counts integer coarse class codes over the five coarse
classes; the metrics and reports also take a :class:`ConfusionMatrix` of
other class names, as :func:`load_confusion_csv` may read. Metrics follow
the convention of scoring each class against the rest of the dataset
pooled: for class c, precision = TP/(TP+FP), recall = TP/(TP+FN),
accuracy = (TP+TN)/N, all reported as percentages with three decimals.
Zero denominators yield 0 with an explicit undefined flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import COARSE_NAMES
from .persist import LineReader, atomic_write, version_line


@dataclass
class ConfusionMatrix:
    classes: tuple[str, ...]
    counts: np.ndarray  # (K, K) int64, rows = truth, columns = prediction

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def index(self, label: str) -> int:
        return self.classes.index(label)


def confusion(preds: Sequence, truths: Sequence) -> ConfusionMatrix:
    """Count matrix over the five coarse classes in canonical order, rows
    indexed by truth and columns by prediction.

    Labels are integer class codes or CoarseLabel values; anything else,
    such as label strings or floats, is a ValueError.
    """
    if len(preds) != len(truths):
        raise ValueError(f"length mismatch: {len(preds)} predictions, {len(truths)} truths")
    k = len(COARSE_NAMES)
    codes = []
    for kind, labels in (("truth", truths), ("predicted", preds)):
        array = np.asarray(labels)
        if array.size and array.dtype.kind not in "iu":
            raise ValueError(f"{kind} labels must be integer class codes or CoarseLabel "
                             f"values, got an array of {array.dtype}")
        array = array.astype(np.int64, copy=False)
        bad = (array < 0) | (array >= k)
        if bad.any():
            raise ValueError(f"unknown {kind} label '{array[bad][0]}'")
        codes.append(array)
    counts = np.bincount(codes[0] * k + codes[1], minlength=k * k)
    return ConfusionMatrix(classes=COARSE_NAMES, counts=counts.reshape(k, k))


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    accuracy: float
    precision_defined: bool = True
    recall_defined: bool = True

    @property
    def flags(self) -> str:
        bits = []
        if not self.precision_defined:
            bits.append("precision_undefined")
        if not self.recall_defined:
            bits.append("recall_undefined")
        return ";".join(bits)


def per_class_metrics(m: ConfusionMatrix) -> dict[str, ClassMetrics]:
    """One-vs-rest precision/recall/accuracy per class, in percent."""
    if m.total < 1:
        raise ValueError("empty confusion matrix")
    out: dict[str, ClassMetrics] = {}
    n = m.total
    for i, name in enumerate(m.classes):
        tp = int(m.counts[i, i])
        fp = int(m.counts[:, i].sum()) - tp
        fn = int(m.counts[i, :].sum()) - tp
        tn = n - tp - fp - fn
        p_def = (tp + fp) > 0
        r_def = (tp + fn) > 0
        out[name] = ClassMetrics(
            precision=100.0 * tp / (tp + fp) if p_def else 0.0,
            recall=100.0 * tp / (tp + fn) if r_def else 0.0,
            accuracy=100.0 * (tp + tn) / n,
            precision_defined=p_def,
            recall_defined=r_def,
        )
    return out


def overall_accuracy(m: ConfusionMatrix) -> float:
    if m.total < 1:
        raise ValueError("empty confusion matrix")
    return 100.0 * float(np.trace(m.counts)) / m.total


def format_report(m: ConfusionMatrix, title: str, seed: int) -> str:
    """Human-readable table mirroring the per-class layout of the results
    tables (three decimals, classes as columns), under the run's seed."""
    metrics = per_class_metrics(m)
    width = max(10, max(len(c) for c in m.classes) + 2)
    lines = [title, f"seed={seed}"]
    header = "Label:".ljust(12) + "".join(c.rjust(width) for c in m.classes)
    lines.append(header)
    for row_name, attr in (("Precision:", "precision"), ("Recall:", "recall"), ("Accuracy:", "accuracy")):
        vals = []
        for c in m.classes:
            v = getattr(metrics[c], attr)
            vals.append(f"{v:.3f}".rjust(width))
        lines.append(row_name.ljust(12) + "".join(vals))
    lines.append(f"Overall accuracy: {overall_accuracy(m):.3f}")
    return "\n".join(lines)


def write_metrics_csv(path: str | Path, m: ConfusionMatrix, seed: int) -> None:
    metrics = per_class_metrics(m)
    lines = ["# " + version_line("metrics"), f"# seed={seed}",
             "class,precision,recall,accuracy,flags"]
    for c in m.classes:
        cm = metrics[c]
        lines.append(f"{c},{cm.precision:.3f},{cm.recall:.3f},{cm.accuracy:.3f},{cm.flags}")
    lines.append(f"overall,,,{overall_accuracy(m):.3f},")
    atomic_write(path, "\n".join(lines) + "\n")


def write_confusion_csv(path: str | Path, m: ConfusionMatrix, seed: int) -> None:
    lines = ["# " + version_line("confusion"), f"# seed={seed}",
             "truth\\pred," + ",".join(m.classes)]
    for i, c in enumerate(m.classes):
        lines.append(c + "," + ",".join(str(int(v)) for v in m.counts[i]))
    atomic_write(path, "\n".join(lines) + "\n")


def load_confusion_csv(path: str | Path) -> ConfusionMatrix:
    """Read a ``write_confusion_csv`` file. Raises FormatError naming the
    file and line on a wrong header or row, a cut or trailing content."""
    r = LineReader(path)
    r.version("confusion")
    line = r.next("the header").strip()
    while line.startswith("#"):
        line = r.next("the header").strip()
    head, *classes = line.split(",")
    if head != "truth\\pred" or not classes or "" in classes or len(set(classes)) < len(classes):
        raise r.error(f"expected 'truth\\pred' and distinct class names, got '{line}'")
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for i, name in enumerate(classes):
        line = r.next(f"the row of '{name}'").strip()
        cells = line.split(",")
        if cells[0] != name or len(cells) != len(classes) + 1:
            raise r.error(f"expected '{name}' and {len(classes)} counts, got '{line}'")
        row = [r.number(v, int, "count") for v in cells[1:]]
        if not all(0 <= v < 2**63 for v in row):
            raise r.error(f"counts must be non-negative 64-bit integers: '{line}'")
        counts[i] = row
    r.end()
    return ConfusionMatrix(classes=tuple(classes), counts=counts)
