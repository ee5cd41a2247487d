"""Centroid-signature misuse classifier.

One stored centroid per fine attack label (the arithmetic mean of the
label's standardized training vectors); classification picks the entry at
minimum Euclidean distance. The "normal" signature makes alarm
verification possible: an alarm whose nearest centroid is normal is a
false positive.

``clusters_per_label`` > 1 optionally sub-clusters each label with a small
seeded Lloyd iteration, producing several signatures per label.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import CoarseLabel, Dataset, N_FEATURES
from .persist import LineReader, atomic_write, fmt_floats, version_line

_CHUNK = 2048


@dataclass(frozen=True)
class CentroidEntry:
    fine_label: str
    coarse_label: CoarseLabel
    centroid: np.ndarray
    support: int


class CentroidModel:
    """Entries sorted by (fine_label, sub-cluster index); sorting makes the
    minimum-distance tie rule (lexicographically smallest fine label) fall
    out of the first-argmin convention."""

    def __init__(self, entries: list[CentroidEntry], stats_fingerprint: str = ""):
        if not entries:
            raise ValueError("centroid model needs at least one entry")
        self.entries = entries
        self.stats_fingerprint = stats_fingerprint
        self._matrix = np.stack([e.centroid for e in entries])
        self._coarse = np.array([int(e.coarse_label) for e in entries], dtype=np.int64)

    @property
    def fine_labels(self) -> list[str]:
        return [e.fine_label for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def _lloyd(X: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Plain k-means on one label's points; returns (centroids, sizes)."""
    distinct = np.unique(X, axis=0)
    k = min(k, len(distinct))
    start = rng.choice(len(distinct), size=k, replace=False)
    centers = distinct[np.sort(start)].copy()
    assignment = None
    for _round in range(100):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assignment = np.argmin(d2, axis=1)
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for j in range(k):
            members = X[assignment == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    sizes = np.bincount(assignment, minlength=k)
    keep = sizes > 0
    return centers[keep], sizes[keep]


def check_clusters_per_label(clusters_per_label: int) -> None:
    if clusters_per_label < 1:
        raise ValueError("clusters_per_label must be >= 1")


def fit(ds: Dataset, clusters_per_label: int = 1, seed: int = 0) -> CentroidModel:
    """Per-fine-label centroids of an already-standardized dataset."""
    if len(ds) == 0:
        raise ValueError("cannot fit centroids on an empty dataset")
    check_clusters_per_label(clusters_per_label)
    labels = sorted(set(ds.fine_labels))
    if "normal" not in labels:
        raise ValueError("training data has no 'normal' records; verification impossible")
    rng = np.random.default_rng(seed)
    entries: list[CentroidEntry] = []
    for label in labels:
        mask = ds.fine_labels == label
        points = ds.X[mask]
        classes = np.unique(ds.coarse[mask])
        if len(classes) > 1:
            names = ", ".join(str(CoarseLabel(int(c))) for c in classes)
            raise ValueError(f"fine label '{label}' has rows of more than one coarse class: {names}")
        coarse = CoarseLabel(int(classes[0]))
        if clusters_per_label == 1:
            entries.append(
                CentroidEntry(label, coarse, points.mean(axis=0), int(mask.sum()))
            )
        else:
            centers, sizes = _lloyd(points, clusters_per_label, rng)
            for c, s in zip(centers, sizes):
                entries.append(CentroidEntry(label, coarse, c, int(s)))
    return CentroidModel(entries)


def _distances(model: CentroidModel, X: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distances, chunked to bound memory."""
    out = np.empty((len(X), len(model.entries)))
    for start in range(0, len(X), _CHUNK):
        block = X[start : start + _CHUNK]
        out[start : start + _CHUNK] = (
            (block[:, None, :] - model._matrix[None, :, :]) ** 2
        ).sum(axis=2)
    return out


def assign_batch(model: CentroidModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (entry index, Euclidean distance) of the nearest centroid of
    standardized vectors. Exact distance ties pick the lexicographically
    smallest fine label."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model._matrix.shape[1]:
        raise ValueError(f"expected (n, {model._matrix.shape[1]}) inputs")
    d2 = _distances(model, X)
    nearest = np.argmin(d2, axis=1)
    return nearest, np.sqrt(d2[np.arange(len(X)), nearest])


@dataclass
class MisuseEvaluation:
    fine_accuracy: float  # percent, exact fine-label match
    coarse_accuracy: float  # percent, coarse family match
    n_fine_classes: int
    predicted_coarse: np.ndarray  # per test row, the nearest entry's coarse class


def evaluate_misuse(model: CentroidModel, test: Dataset) -> MisuseEvaluation:
    if len(test) == 0:
        raise ValueError("empty test set")
    nearest, _ = assign_batch(model, test.X)
    assigned_fine = np.array(model.fine_labels, dtype=object)[nearest]
    assigned_coarse = model._coarse[nearest]
    fine_acc = 100.0 * float((assigned_fine == test.fine_labels).mean())
    coarse_acc = 100.0 * float((assigned_coarse == test.coarse).mean())
    return MisuseEvaluation(
        fine_accuracy=fine_acc,
        coarse_accuracy=coarse_acc,
        n_fine_classes=len(set(model.fine_labels)),
        predicted_coarse=assigned_coarse,
    )


def signature_collisions(model: CentroidModel) -> list[str]:
    """Fine labels whose own centroid assigns elsewhere (shadowed
    signatures); logged as a warning when the misuse stage is trained."""
    nearest, _ = assign_batch(model, model._matrix)
    collisions = []
    for i, e in enumerate(model.entries):
        if model.entries[int(nearest[i])].fine_label != e.fine_label:
            collisions.append(e.fine_label)
    return collisions


def save_centroids(path: str | Path, model: CentroidModel) -> None:
    lines = [
        version_line("centroids"),
        f"stats_id={model.stats_fingerprint}",
        f"entries={len(model.entries)}",
    ]
    for e in model.entries:
        lines.append(
            f"entry {e.fine_label} {e.coarse_label} {e.support} " + fmt_floats(e.centroid)
        )
    atomic_write(path, "\n".join(lines) + "\n")


def _read_entry(r: LineReader) -> CentroidEntry:
    expected = "'entry <fine label> <coarse class> <support> <values>'"
    parts = r.next(expected).split()
    if len(parts) < 4 or parts[0] != "entry":
        raise r.error(f"expected {expected}")
    try:
        coarse = CoarseLabel.from_name(parts[2])
    except ValueError as exc:
        raise r.error(str(exc)) from None
    support = r.number(parts[3], int, "support")
    if support < 0:
        raise r.error(f"negative support {support}")
    return CentroidEntry(parts[1], coarse, r.floats(parts[4:], N_FEATURES, "centroid"), support)


def load_centroids(path: str | Path) -> CentroidModel:
    """Read a ``save_centroids`` file. Raises FormatError naming the file and
    line on truncated, garbled or inconsistent content, including an
    ``entries=`` count that disagrees with the entry lines present."""
    r = LineReader(path)
    r.version("centroids")
    stats_id = r.value("stats_id")
    n_entries = r.number(r.value("entries"), int, "entries")
    if n_entries < 1:
        raise r.error("entries must be >= 1")
    entries = [_read_entry(r) for _ in range(n_entries)]
    r.end()
    return CentroidModel(entries, stats_fingerprint=stats_id)
