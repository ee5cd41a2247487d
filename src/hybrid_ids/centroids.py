"""Centroid-signature misuse classifier.

One stored centroid per fine attack label (the arithmetic mean of the
label's standardized training vectors); classification picks the signature
at minimum Euclidean distance. The "normal" signature makes alarm
verification possible: an alarm whose nearest centroid is normal is a
false positive. The model holds the signatures as parallel arrays;
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
    """The signatures, one element of each field per fine label: the label,
    its coarse class code, its centroid row and its training support. They
    are sorted by fine label, so the minimum-distance tie rule
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


def fit(ds: Dataset) -> CentroidModel:
    """Per-fine-label centroids of an already-standardized dataset: each
    label's mean row, with the label's row count as its support."""
    if len(ds) == 0:
        raise ValueError("cannot fit centroids on an empty dataset")
    labels = sorted(set(ds.fine_labels))
    if "normal" not in labels:
        raise ValueError("training data has no 'normal' records; verification impossible")
    coarse, centers, support = [], [], []
    for label in labels:
        mask = ds.fine_labels == label
        classes = np.unique(ds.coarse[mask])
        if len(classes) > 1:
            names = ", ".join(str(CoarseLabel(int(c))) for c in classes)
            raise ValueError(f"fine label '{label}' has rows of more than one coarse class: {names}")
        coarse.append(int(classes[0]))
        centers.append(ds.X[mask].mean(axis=0))
        support.append(int(mask.sum()))
    return CentroidModel(labels, np.array(coarse, dtype=np.int64), np.stack(centers),
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


def assign_batch(model: CentroidModel, X: np.ndarray) -> np.ndarray:
    """Per-row signature index of the nearest centroid of standardized
    vectors. Exact distance ties pick the lexicographically smallest fine
    label."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.centroids.shape[1]:
        raise ValueError(f"expected (n, {model.centroids.shape[1]}) inputs")
    return np.argmin(_distances(model, X), axis=1)


def evaluate_misuse(
    model: CentroidModel, test: Dataset, index: np.ndarray | None = None
) -> tuple[np.ndarray, float, float]:
    """Per test row, the nearest signature's coarse class; and the percent
    of rows whose coarse class, then whose fine label, it matches.

    The test rows are ``test``'s rows, or, given ``index``, the rows
    ``test.subset(index)`` would hold: each distinct row of ``test`` is
    assigned once, and every row it stands for counts."""
    rows = np.arange(len(test)) if index is None else np.asarray(index)
    if len(rows) == 0:
        raise ValueError("empty test set")
    nearest = assign_batch(model, test.X)[rows]
    coarse = model.coarse[nearest]
    fine = np.array(model.fine_labels, dtype=object)[nearest]
    return (coarse, 100.0 * float((coarse == test.coarse[rows]).mean()),
            100.0 * float((fine == test.fine_labels[rows]).mean()))


def signature_collisions(model: CentroidModel) -> list[str]:
    """Fine labels whose own centroid assigns elsewhere (shadowed
    signatures); logged as a warning when the misuse stage is trained."""
    nearest = assign_batch(model, model.centroids)
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
    entries out of strict fine-label order: the tie rule of
    :class:`CentroidModel` needs the order, and a label has one signature."""
    r = LineReader(path)
    r.version("centroids")
    stats_id = r.value("stats_id")
    n_entries = r.number(r.value("entries"), int, "entries")
    if n_entries < 1:
        raise r.error("entries must be >= 1")
    entries = []
    for _ in range(n_entries):
        entry = _read_entry(r)
        if entries and entry[0] == entries[-1][0]:
            raise r.error(f"fine label '{entry[0]}' repeats the one above it")
        if entries and entry[0] < entries[-1][0]:
            raise r.error(f"fine label '{entry[0]}' sorts before '{entries[-1][0]}' above it")
        entries.append(entry)
    fine, coarse, support, centroids = zip(*entries)
    r.end()
    return CentroidModel(list(fine), np.array(coarse, dtype=np.int64), np.stack(centroids),
                         np.array(support, dtype=np.int64), stats_id)
