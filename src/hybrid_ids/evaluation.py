"""Confusion counts and per-class one-vs-rest metrics.

:func:`confusion` counts integer coarse class codes into a (5, 5) int64
array, rows indexed by truth and columns by prediction, both in
``COARSE_NAMES`` order; the metrics, reports and CSV files take that array.
Metrics follow the convention of scoring each class against the rest of the
dataset pooled: for class c, precision = TP/(TP+FP), recall = TP/(TP+FN),
accuracy = (TP+TN)/N, all reported as percentages with three decimals. Zero
denominators yield 0 with an explicit undefined flag.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import COARSE_NAMES
from .persist import atomic_write, version_line

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


def per_class_metrics(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-vs-rest metrics per coarse class, columns in ``COARSE_NAMES``
    order: a (3, 5) array of precision, recall and accuracy in percent (0.0
    where undefined), and a (2, 5) bool array of whether precision and
    recall are defined."""
    n = int(counts.sum())
    if n < 1:
        raise ValueError("empty confusion matrix")
    tp = np.diagonal(counts).astype(np.int64)
    fp, fn = counts.sum(axis=0) - tp, counts.sum(axis=1) - tp
    # integer numerators and denominators, divided as float64, give the bits
    # of the scalar 100.0 * tp / (tp + fp)
    num, den = np.stack([tp, tp, n - fp - fn]), np.stack([tp + fp, tp + fn, np.full_like(tp, n)])
    defined = den > 0
    return np.divide(100.0 * num, den, out=np.zeros(den.shape), where=defined), defined[:2]


def overall_accuracy(counts: np.ndarray) -> float:
    n = int(counts.sum())
    if n < 1:
        raise ValueError("empty confusion matrix")
    return 100.0 * float(np.trace(counts)) / n


def format_report(counts: np.ndarray, title: str, seed: int) -> str:
    """Human-readable table mirroring the per-class layout of the results
    tables (three decimals, classes as columns), under the run's seed."""
    values, _ = per_class_metrics(counts)
    lines = [title, f"seed={seed}"]
    lines.append("Label:".ljust(12) + "".join(c.rjust(_WIDTH) for c in COARSE_NAMES))
    for row_name, row in zip(("Precision:", "Recall:", "Accuracy:"), values.tolist()):
        lines.append(row_name.ljust(12) + "".join(f"{v:.3f}".rjust(_WIDTH) for v in row))
    lines.append(f"Overall accuracy: {overall_accuracy(counts):.3f}")
    return "\n".join(lines)


def write_metrics_csv(path: str | Path, counts: np.ndarray, seed: int) -> None:
    values, defined = per_class_metrics(counts)
    lines = ["# " + version_line("metrics"), f"# seed={seed}",
             "class,precision,recall,accuracy,flags"]
    for c, (p, r, a), ok in zip(COARSE_NAMES, values.T.tolist(), defined.T.tolist()):
        flags = ";".join(f"{m}_undefined" for m, d in zip(("precision", "recall"), ok) if not d)
        lines.append(f"{c},{p:.3f},{r:.3f},{a:.3f},{flags}")
    lines.append(f"overall,,,{overall_accuracy(counts):.3f},")
    atomic_write(path, "\n".join(lines) + "\n")


def write_confusion_csv(path: str | Path, counts: np.ndarray, seed: int) -> None:
    lines = ["# " + version_line("confusion"), f"# seed={seed}", _HEADER]
    for c, row in zip(COARSE_NAMES, counts.tolist()):
        lines.append(c + "," + ",".join(map(str, row)))
    atomic_write(path, "\n".join(lines) + "\n")

