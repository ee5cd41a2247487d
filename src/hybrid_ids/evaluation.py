"""Confusion counts and per-class one-vs-rest metrics.

:func:`confusion` counts integer coarse class codes into a (5, 5) int64
array, rows indexed by truth and columns by prediction, both in
``COARSE_NAMES`` order; the metrics, reports and CSV files take that array,
and :func:`load_confusion_csv` returns it. Metrics follow the convention of
scoring each class against the rest of the dataset pooled: for class c,
precision = TP/(TP+FP), recall = TP/(TP+FN), accuracy = (TP+TN)/N, all
reported as percentages with three decimals. Zero denominators yield 0
with an explicit undefined flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import COARSE_NAMES
from .persist import LineReader, atomic_write, version_line

_WIDTH = 10  # the report's column width
_HEADER = "truth\\pred," + ",".join(COARSE_NAMES)  # the confusion CSV's header


def confusion(preds: Sequence, truths: Sequence) -> np.ndarray:
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
    return np.bincount(codes[0] * k + codes[1], minlength=k * k).reshape(k, k)


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


def per_class_metrics(counts: np.ndarray) -> dict[str, ClassMetrics]:
    """One-vs-rest precision/recall/accuracy per coarse class, in percent."""
    n = int(counts.sum())
    if n < 1:
        raise ValueError("empty confusion matrix")
    out: dict[str, ClassMetrics] = {}
    for i, name in enumerate(COARSE_NAMES):
        tp = int(counts[i, i])
        fp = int(counts[:, i].sum()) - tp
        fn = int(counts[i, :].sum()) - tp
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


def overall_accuracy(counts: np.ndarray) -> float:
    n = int(counts.sum())
    if n < 1:
        raise ValueError("empty confusion matrix")
    return 100.0 * float(np.trace(counts)) / n


def format_report(counts: np.ndarray, title: str, seed: int) -> str:
    """Human-readable table mirroring the per-class layout of the results
    tables (three decimals, classes as columns), under the run's seed."""
    metrics = per_class_metrics(counts).values()
    lines = [title, f"seed={seed}"]
    lines.append("Label:".ljust(12) + "".join(c.rjust(_WIDTH) for c in COARSE_NAMES))
    for row_name, attr in (("Precision:", "precision"), ("Recall:", "recall"), ("Accuracy:", "accuracy")):
        cells = (f"{getattr(m, attr):.3f}".rjust(_WIDTH) for m in metrics)
        lines.append(row_name.ljust(12) + "".join(cells))
    lines.append(f"Overall accuracy: {overall_accuracy(counts):.3f}")
    return "\n".join(lines)


def write_metrics_csv(path: str | Path, counts: np.ndarray, seed: int) -> None:
    metrics = per_class_metrics(counts)
    lines = ["# " + version_line("metrics"), f"# seed={seed}",
             "class,precision,recall,accuracy,flags"]
    for c, cm in metrics.items():
        lines.append(f"{c},{cm.precision:.3f},{cm.recall:.3f},{cm.accuracy:.3f},{cm.flags}")
    lines.append(f"overall,,,{overall_accuracy(counts):.3f},")
    atomic_write(path, "\n".join(lines) + "\n")


def write_confusion_csv(path: str | Path, counts: np.ndarray, seed: int) -> None:
    lines = ["# " + version_line("confusion"), f"# seed={seed}", _HEADER]
    for c, row in zip(COARSE_NAMES, counts.tolist()):
        lines.append(c + "," + ",".join(map(str, row)))
    atomic_write(path, "\n".join(lines) + "\n")


def load_confusion_csv(path: str | Path) -> np.ndarray:
    """Read a ``write_confusion_csv`` file. Raises FormatError naming the
    file and line on a header other than the one it writes, a wrong row, a
    cut or trailing content."""
    r = LineReader(path)
    r.version("confusion")
    line = r.next("the header").strip()
    while line.startswith("#"):
        line = r.next("the header").strip()
    if line != _HEADER:
        raise r.error(f"expected 'truth\\pred' and distinct class names, got '{line}'")
    k = len(COARSE_NAMES)
    counts = np.zeros((k, k), dtype=np.int64)
    for i, name in enumerate(COARSE_NAMES):
        line = r.next(f"the row of '{name}'").strip()
        cells = line.split(",")
        if cells[0] != name or len(cells) != k + 1:
            raise r.error(f"expected '{name}' and {k} counts, got '{line}'")
        row = [r.number(v, int, "count") for v in cells[1:]]
        if not all(0 <= v < 2**63 for v in row):
            raise r.error(f"counts must be non-negative 64-bit integers: '{line}'")
        counts[i] = row
    r.end()
    return counts
