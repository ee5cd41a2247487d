"""Centroid-signature misuse classifier.

One stored centroid per fine attack label (the arithmetic mean of the
label's standardized training vectors); classification picks the signature
at minimum Euclidean distance. The "normal" signature makes alarm
verification possible: an alarm whose nearest centroid is normal is a
false positive. ``clusters_per_label`` > 1 optionally sub-clusters each
label with a small seeded Lloyd iteration, producing several signatures
per label. The model holds the signatures as parallel arrays;
``save_centroids`` writes one ``entry`` line per signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import COARSE_NAMES, CoarseLabel, Dataset, N_FEATURES
from .persist import LineReader, atomic_write, fmt_floats, version_line

_CHUNK = 2048


@dataclass(eq=False)
class CentroidModel:
    """The signatures, one element of each field per signature: fine label,
    coarse class code, centroid row and training support. They are sorted
    by (fine label, sub-cluster index), so the minimum-distance tie rule
    (lexicographically smallest fine label) falls out of the first-argmin
    convention."""

    fine_labels: list[str]
    coarse: np.ndarray  # int64 CoarseLabel codes
    centroids: np.ndarray  # (signatures, N_FEATURES) float64
    support: np.ndarray  # int64 training rows per signature
    stats_fingerprint: str = ""

    def __post_init__(self):
        if not self.fine_labels:
            raise ValueError("centroid model needs at least one signature")

    def __len__(self) -> int:
        return len(self.fine_labels)


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
    fine, coarse, centers, support = [], [], [], []
    for label in labels:
        mask = ds.fine_labels == label
        points = ds.X[mask]
        classes = np.unique(ds.coarse[mask])
        if len(classes) > 1:
            names = ", ".join(str(CoarseLabel(int(c))) for c in classes)
            raise ValueError(f"fine label '{label}' has rows of more than one coarse class: {names}")
        if clusters_per_label == 1:
            label_centers, sizes = points.mean(axis=0)[None, :], [len(points)]
        else:
            label_centers, sizes = _lloyd(points, clusters_per_label, rng)
        fine += [label] * len(sizes)
        coarse += [int(classes[0])] * len(sizes)
        centers.append(label_centers)
        support.extend(sizes)
    return CentroidModel(fine, np.array(coarse, dtype=np.int64), np.concatenate(centers),
                         np.array(support, dtype=np.int64))


def _distances(model: CentroidModel, X: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distances, chunked to bound memory."""
    out = np.empty((len(X), len(model)))
    for start in range(0, len(X), _CHUNK):
        block = X[start : start + _CHUNK]
        out[start : start + _CHUNK] = (
            (block[:, None, :] - model.centroids[None, :, :]) ** 2
        ).sum(axis=2)
    return out


def assign_batch(model: CentroidModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (signature index, Euclidean distance) of the nearest centroid of
    standardized vectors. Exact distance ties pick the lexicographically
    smallest fine label."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.centroids.shape[1]:
        raise ValueError(f"expected (n, {model.centroids.shape[1]}) inputs")
    d2 = _distances(model, X)
    nearest = np.argmin(d2, axis=1)
    return nearest, np.sqrt(d2[np.arange(len(X)), nearest])


@dataclass
class MisuseEvaluation:
    fine_accuracy: float  # percent, exact fine-label match
    coarse_accuracy: float  # percent, coarse family match
    n_fine_classes: int
    predicted_coarse: np.ndarray  # per test row, the nearest signature's coarse class


def evaluate_misuse(model: CentroidModel, test: Dataset) -> MisuseEvaluation:
    if len(test) == 0:
        raise ValueError("empty test set")
    nearest, _ = assign_batch(model, test.X)
    assigned_fine = np.array(model.fine_labels, dtype=object)[nearest]
    assigned_coarse = model.coarse[nearest]
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
    nearest, _ = assign_batch(model, model.centroids)
    labels = model.fine_labels
    return [labels[i] for i, j in enumerate(nearest.tolist()) if labels[j] != labels[i]]


def save_centroids(path: str | Path, model: CentroidModel) -> None:
    lines = [
        version_line("centroids"),
        f"stats_id={model.stats_fingerprint}",
        f"entries={len(model)}",
    ]
    for fine, coarse, support, centroid in zip(
        model.fine_labels, model.coarse.tolist(), model.support.tolist(), model.centroids
    ):
        lines.append(f"entry {fine} {COARSE_NAMES[coarse]} {support} " + fmt_floats(centroid))
    atomic_write(path, "\n".join(lines) + "\n")


def _read_entry(r: LineReader) -> tuple[str, int, int, np.ndarray]:
    """One signature's (fine label, coarse code, support, centroid)."""
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
    if support >= 2**63:  # the model holds supports as int64
        raise r.error(f"support {support} does not fit in 64 bits")
    return parts[1], int(coarse), support, r.floats(parts[4:], N_FEATURES, "centroid")


def load_centroids(path: str | Path) -> CentroidModel:
    """Read a ``save_centroids`` file. Raises FormatError naming the file and
    line on truncated, garbled or inconsistent content, including an
    ``entries=`` count that disagrees with the entry lines present and
    entries out of fine-label order, which the tie rule of
    :class:`CentroidModel` needs (equal labels are sub-clusters)."""
    r = LineReader(path)
    r.version("centroids")
    stats_id = r.value("stats_id")
    n_entries = r.number(r.value("entries"), int, "entries")
    if n_entries < 1:
        raise r.error("entries must be >= 1")
    entries = []
    for _ in range(n_entries):
        entry = _read_entry(r)
        if entries and entry[0] < entries[-1][0]:
            raise r.error(f"fine label '{entry[0]}' sorts before '{entries[-1][0]}' above it")
        entries.append(entry)
    fine, coarse, support, centroids = zip(*entries)
    r.end()
    return CentroidModel(list(fine), np.array(coarse, dtype=np.int64), np.stack(centroids),
                         np.array(support, dtype=np.int64), stats_id)
