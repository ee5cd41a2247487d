"""Sequential hybrid pipeline: both anomaly detectors run in parallel, the
union of their alarms routes to the misuse stage, and the misuse stage's
nearest-signature verdict verifies each alarm and refines it into a fine
attack class. A distinct record is scored once; verdicts stay one per row.

A record is never emitted as an attack unless at least one anomaly model
flagged it: the misuse stage can only confirm, refine, or trim alarms.

``STAGES`` gives each model stage's file, trainer, saver and loader. A saved
bundle is a manifest naming the three model files and the stats file
(``STATS_FILE``) their inputs were standardized with. The coarse class
tagged on each misuse signature is the one fine-to-coarse mapping that
prediction reads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import centroids as misuse
from . import neural_net as nn
from . import random_forest as rf
from .centroids import CentroidModel
from .dataset import (
    CoarseLabel,
    Dataset,
    StandardizationStats,
    first_seen,
    load_stats,
    save_stats,
    standardize_apply,
    standardize_dataset,
    standardize_fit,
)
from .neural_net import MLPModel, TrainConfig
from .persist import LineReader, atomic_write, version_line
from .random_forest import ForestConfig, ForestModel

log = logging.getLogger(__name__)


def route(nn_label, rf_label):
    """True where the record must go to the misuse stage: either detector
    raised an alarm. Takes two votes or two arrays of votes."""
    return (nn_label != CoarseLabel.NORMAL) | (rf_label != CoarseLabel.NORMAL)


@dataclass(frozen=True)
class FinalPrediction:
    coarse: CoarseLabel
    fine: str | None
    routed: bool
    nn_vote: CoarseLabel
    rf_vote: CoarseLabel
    misuse_vote: CoarseLabel | None


@dataclass(frozen=True, eq=False)
class Verdicts:
    """The chain's verdicts on a batch, one array element per row: the two
    anomaly votes, the index in ``centroids`` of each routed row's nearest
    signature (-1 where the row is not routed), the routing mask and the
    final coarse class. Indexing or iterating gives :class:`FinalPrediction`
    rows, built on demand from the columns."""

    nn_votes: np.ndarray
    rf_votes: np.ndarray
    entry: np.ndarray
    routed: np.ndarray
    coarse: np.ndarray
    centroids: CentroidModel

    def __len__(self) -> int:
        return len(self.coarse)

    def __getitem__(self, i: int) -> FinalPrediction:
        coarse = CoarseLabel(int(self.coarse[i]))
        routed = bool(self.routed[i])
        return FinalPrediction(
            coarse=coarse,
            fine=self.centroids.fine_labels[int(self.entry[i])] if routed else None,
            routed=routed,
            nn_vote=CoarseLabel(int(self.nn_votes[i])),
            rf_vote=CoarseLabel(int(self.rf_votes[i])),
            misuse_vote=coarse if routed else None,
        )

    def __iter__(self) -> Iterator[FinalPrediction]:
        return (self[i] for i in range(len(self)))


@dataclass
class RoutingStats:
    total: int = 0
    routed: int = 0
    trimmed: int = 0  # routed alarms resolved to normal by the misuse stage
    confirmed: int = 0  # routed alarms confirmed as attacks

    def __iadd__(self, other: "RoutingStats") -> "RoutingStats":
        self.total += other.total
        self.routed += other.routed
        self.trimmed += other.trimmed
        self.confirmed += other.confirmed
        return self

    def describe(self) -> str:
        return (
            f"records={self.total} routed={self.routed} trimmed={self.trimmed} "
            f"confirmed={self.confirmed}"
        )


@dataclass
class HybridConfig:
    nn: TrainConfig = field(default_factory=TrainConfig)
    rf: ForestConfig = field(default_factory=ForestConfig)


@dataclass
class HybridModel:
    mlp: MLPModel
    forest: ForestModel
    centroids: CentroidModel
    stats: StandardizationStats


def train_rf(std_train: Dataset, config: HybridConfig) -> ForestModel:
    """The forest stage, retrained on its important features (see
    ``prune_and_retrain``)."""
    ranked = rf.rank_columns(std_train.X)  # shared by the forest and its retrain
    forest = rf.train_forest(std_train, config.rf, ranked=ranked)
    return rf.prune_and_retrain(std_train, forest, config.rf, ranked=ranked)


def train_misuse(std_train: Dataset, config: HybridConfig) -> CentroidModel:
    """The misuse stage's centroids. Shadowed signatures (see
    ``signature_collisions``) are logged as a warning."""
    cen = misuse.fit(std_train)
    collisions = misuse.signature_collisions(cen)
    if collisions:
        log.warning("signature collisions (shadowed centroids): %s", ", ".join(collisions))
    return cen


# manifest key (a HybridModel field) -> (file, train(std_train, config),
# save(path, model), load(path)), in manifest order. A tracer that rebinds
# module names misses calls made through these rows.
STAGES = {
    "mlp": ("mlp.model", lambda ds, config: nn.train(ds, config.nn), nn.save_mlp, nn.load_mlp),
    "forest": ("forest.model", train_rf, rf.save_forest, rf.load_forest),
    "centroids": ("centroids.model", train_misuse, misuse.save_centroids, misuse.load_centroids),
}
STATS_FILE = "stats.txt"


def train_stage(key: str, std_train: Dataset, config: HybridConfig, stats: StandardizationStats):
    """The ``key`` stage trained on ``std_train``, tagged with the
    fingerprint of the ``stats`` it was standardized with."""
    model = STAGES[key][1](std_train, config)
    model.stats_fingerprint = stats.fingerprint
    return model


def train_all(train: Dataset, config: HybridConfig) -> HybridModel:
    """Fit standardization on the training split, then train all three
    stages on the same standardized data."""
    stats = standardize_fit(train)
    std_train = standardize_dataset(stats, train)
    return HybridModel(**{key: train_stage(key, std_train, config, stats) for key in STAGES},
                       stats=stats)


def predict_dataset(h: HybridModel, ds: Dataset) -> tuple[Verdicts, RoutingStats]:
    """Vectorized chain over an encoded (unstandardized) dataset: both anomaly
    votes on every row, the misuse verdict on the routed rows; rows of equal
    bytes are scored once. Only ``ds.X`` is read."""
    raw = np.ascontiguousarray(ds.X)
    distinct, inverse = first_seen(raw.view(f"V{raw.itemsize * raw.shape[1]}").ravel().tolist())
    X = standardize_apply(h.stats, np.frombuffer(b"".join(distinct)).reshape(-1, raw.shape[1]))
    nn_votes = nn.predict_batch(h.mlp, X)
    rf_votes = rf.predict_batch(h.forest, X)
    routed = route(nn_votes, rf_votes)
    entry = np.full(len(X), -1, dtype=np.int64)
    entry[routed] = misuse.assign_batch(h.centroids, X[routed])[0]
    nn_votes, rf_votes, routed, entry = (a[inverse] for a in (nn_votes, rf_votes, routed, entry))
    # entry -1 (not routed) picks the appended normal
    coarse = np.append(h.centroids.coarse, int(CoarseLabel.NORMAL))[entry]
    n_routed = int(routed.sum())
    trimmed = int(np.count_nonzero(coarse[routed] == CoarseLabel.NORMAL))
    stats = RoutingStats(
        total=len(raw), routed=n_routed, trimmed=trimmed, confirmed=n_routed - trimmed
    )
    return Verdicts(nn_votes, rf_votes, entry, routed, coarse, h.centroids), stats


# ---------------------------------------------------------------------------
# Persistence: a manifest referencing the three model files and the stats
# file; loading cross-checks dimensions and stats fingerprints.

def check_fingerprint(name: str, model, stats: StandardizationStats) -> None:
    """ValueError unless the ``name`` model (a manifest key) was trained on
    data standardized with ``stats``."""
    if model.stats_fingerprint != stats.fingerprint:
        raise ValueError(
            f"stats fingerprint mismatch: {name} model was standardized with "
            f"'{model.stats_fingerprint}', the stats file has '{stats.fingerprint}'"
        )


def save_hybrid(directory: str | Path, h: HybridModel) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_stats(directory / STATS_FILE, h.stats)
    for key, (file, _, save, _) in STAGES.items():
        save(directory / file, getattr(h, key))
    lines = [version_line("hybrid")]
    lines += [f"{key}={row[0]}" for key, row in STAGES.items()] + [f"stats={STATS_FILE}"]
    manifest = directory / "hybrid.manifest"
    atomic_write(manifest, "\n".join(lines) + "\n")
    return manifest


def load_hybrid(manifest_path: str | Path) -> HybridModel:
    """Load the manifest's models, ignoring unknown keys, so the extra lines
    of older manifests do no harm. A line that is not ``<key>=<file>``, a
    repeated key or a missing entry is a FormatError."""
    directory = Path(manifest_path).parent
    r = LineReader(manifest_path)
    r.version("hybrid")
    entries: dict[str, str] = {}
    for line in r.rest():
        line = line.strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not value:
            raise r.error(f"expected '<key>=<file>', got '{line}'")
        if key in entries:
            raise r.error(f"repeated key '{key}'")
        entries[key] = value
    missing = [k for k in (*STAGES, "stats") if k not in entries]
    if missing:
        raise r.error(f"manifest missing entries: {missing}")
    stats = load_stats(directory / entries["stats"])
    models = {key: row[3](directory / entries[key]) for key, row in STAGES.items()}
    for key, model in models.items():
        check_fingerprint(key, model, stats)
    h = HybridModel(**models, stats=stats)
    n_in = stats.mean.shape[0]
    if h.mlp.dims[0] != n_in or h.forest.n_features != n_in:
        raise ValueError("model input dimensions disagree with the stats file")
    if h.centroids.centroids.shape[1] != n_in:
        raise ValueError("centroid dimension disagrees with the stats file")
    return h
