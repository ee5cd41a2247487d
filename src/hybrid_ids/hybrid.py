"""Sequential hybrid pipeline: both anomaly detectors run in parallel, the
union of their alarms routes to the misuse stage, and the misuse stage's
nearest-signature verdict verifies each alarm and refines it into a fine
attack class.

A record is never emitted as an attack unless at least one anomaly model
flagged it: the misuse stage can only confirm, refine, or trim alarms.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import centroids as misuse
from . import neural_net as nn
from . import random_forest as rf
from .centroids import CentroidEntry, CentroidModel
from .dataset import (
    CoarseLabel,
    Dataset,
    StandardizationStats,
    Taxonomy,
    load_stats,
    load_taxonomy,
    save_stats,
    save_taxonomy,
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
    anomaly votes, the nearest centroid entry of each routed row (-1 where
    the row is not routed), the routing mask and the final coarse class.
    Indexing or iterating gives :class:`FinalPrediction` rows, built on
    demand from the columns."""

    nn_votes: np.ndarray
    rf_votes: np.ndarray
    entry: np.ndarray
    routed: np.ndarray
    coarse: np.ndarray
    entries: Sequence[CentroidEntry]

    def __len__(self) -> int:
        return len(self.coarse)

    def __getitem__(self, i: int) -> FinalPrediction:
        coarse = CoarseLabel(int(self.coarse[i]))
        routed = bool(self.routed[i])
        return FinalPrediction(
            coarse=coarse,
            fine=self.entries[int(self.entry[i])].fine_label if routed else None,
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
    clusters_per_label: int = 1
    misuse_seed: int = 0
    prune_forest: bool = True


@dataclass
class HybridModel:
    mlp: MLPModel
    forest: ForestModel
    centroids: CentroidModel
    stats: StandardizationStats
    taxonomy: Taxonomy


def train_all(
    train: Dataset, config: HybridConfig, taxonomy: Taxonomy | None = None
) -> HybridModel:
    """Fit standardization on the training split, then train all three
    sub-models on the same standardized data.

    When no taxonomy is given, the fine-to-coarse mapping observed in the
    training data is recorded in the manifest.
    """
    stats = standardize_fit(train)
    std_train = standardize_dataset(stats, train)

    mlp = nn.train(std_train, config.nn)
    mlp.stats_fingerprint = stats.fingerprint

    forest = rf.train_forest(std_train, config.rf)
    forest.stats_fingerprint = stats.fingerprint
    if config.prune_forest:
        forest = rf.prune_and_retrain(std_train, forest, config.rf)
        forest.stats_fingerprint = stats.fingerprint

    cen = misuse.fit(std_train, config.clusters_per_label, config.misuse_seed)
    cen.stats_fingerprint = stats.fingerprint
    collisions = misuse.signature_collisions(cen)
    if collisions:
        log.warning("signature collisions (shadowed centroids): %s", ", ".join(collisions))

    if taxonomy is None:
        taxonomy = Taxonomy({e.fine_label: e.coarse_label for e in cen.entries})
    return HybridModel(mlp=mlp, forest=forest, centroids=cen, stats=stats, taxonomy=taxonomy)


def predict_dataset(h: HybridModel, ds: Dataset) -> tuple[Verdicts, RoutingStats]:
    """Vectorized chain over an encoded (unstandardized) dataset: both
    anomaly votes on every row, the misuse verdict on the routed rows.
    Only ``ds.X`` is read."""
    X = standardize_apply(h.stats, ds.X)
    nn_votes = nn.predict_batch(h.mlp, X)
    rf_votes = rf.predict_batch(h.forest, X)
    routed = route(nn_votes, rf_votes)
    entry = np.full(len(X), -1, dtype=np.int64)
    entry[routed] = misuse.assign_batch(h.centroids, X[routed])[0]
    # entry -1 (not routed) picks the appended normal
    coarse = np.append(h.centroids._coarse, int(CoarseLabel.NORMAL))[entry]
    n_routed = int(routed.sum())
    trimmed = int(np.count_nonzero(coarse[routed] == CoarseLabel.NORMAL))
    stats = RoutingStats(
        total=len(X), routed=n_routed, trimmed=trimmed, confirmed=n_routed - trimmed
    )
    return Verdicts(nn_votes, rf_votes, entry, routed, coarse, h.centroids.entries), stats


# ---------------------------------------------------------------------------
# Persistence: a manifest referencing the sub-model, stats, and taxonomy
# files; loading cross-checks dimensions and stats fingerprints.

MANIFEST_FILES = {
    "mlp": "mlp.model",
    "forest": "forest.model",
    "centroids": "centroids.model",
    "stats": "stats.txt",
    "taxonomy": "taxonomy.txt",
}


def save_hybrid(directory: str | Path, h: HybridModel, manifest_name: str = "hybrid.manifest") -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_stats(directory / MANIFEST_FILES["stats"], h.stats)
    save_taxonomy(directory / MANIFEST_FILES["taxonomy"], h.taxonomy)
    nn.save_mlp(directory / MANIFEST_FILES["mlp"], h.mlp)
    rf.save_forest(directory / MANIFEST_FILES["forest"], h.forest)
    misuse.save_centroids(directory / MANIFEST_FILES["centroids"], h.centroids)
    lines = [version_line("hybrid")]
    lines += [f"{key}={name}" for key, name in MANIFEST_FILES.items()]
    manifest = directory / manifest_name
    atomic_write(manifest, "\n".join(lines) + "\n")
    return manifest


def load_hybrid(manifest_path: str | Path) -> HybridModel:
    """Load the manifest's models, ignoring unknown keys. A line that is not
    ``<key>=<file>``, a repeated key or a missing entry is a FormatError."""
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
    missing = [k for k in MANIFEST_FILES if k not in entries]
    if missing:
        raise r.error(f"manifest missing entries: {missing}")
    stats = load_stats(directory / entries["stats"])
    taxonomy = load_taxonomy(directory / entries["taxonomy"])
    mlp = nn.load_mlp(directory / entries["mlp"])
    forest = rf.load_forest(directory / entries["forest"])
    cen = misuse.load_centroids(directory / entries["centroids"])
    fingerprint = stats.fingerprint
    for name, got in (
        ("mlp", mlp.stats_fingerprint),
        ("forest", forest.stats_fingerprint),
        ("centroids", cen.stats_fingerprint),
    ):
        if got != fingerprint:
            raise ValueError(
                f"stats fingerprint mismatch: {name} model was standardized with "
                f"'{got}', manifest stats are '{fingerprint}'"
            )
    n_in = stats.mean.shape[0]
    if mlp.dims[0] != n_in or forest.n_features != n_in:
        raise ValueError("model input dimensions disagree with the stats file")
    if cen.entries[0].centroid.shape[0] != n_in:
        raise ValueError("centroid dimension disagrees with the stats file")
    for e in cen.entries:
        if e.fine_label in taxonomy and taxonomy.coarse(e.fine_label) != e.coarse_label:
            raise ValueError(
                f"centroid '{e.fine_label}' is tagged {e.coarse_label} but the "
                f"taxonomy maps it to {taxonomy.coarse(e.fine_label)}"
            )
    return HybridModel(mlp=mlp, forest=forest, centroids=cen, stats=stats, taxonomy=taxonomy)
