"""Sequential hybrid pipeline: both anomaly detectors run in parallel, the
union of their alarms routes to the misuse stage, and the misuse stage's
nearest-signature verdict verifies each alarm and refines it into a fine
attack class. The readers (``dataset.load_dataset`` and
``dataset.parse_kdd_block``) decide which records are the same: they hand
``predict_dataset`` their distinct rows and an index, so a repeated record
is scored once while the verdicts stay one per input row.

A record is never emitted as an attack unless at least one anomaly model
flagged it: the misuse stage can only confirm, refine, or trim alarms.

``STAGES`` holds the three model stages by their command-line names:
each stage's manifest key, file, report title and ``train`` summary, and
its trainer, saver and loader. A saved bundle is a manifest naming the
three model files and the stats file (``STATS_FILE``) their inputs were
standardized with. The coarse class tagged on each misuse signature is
the one fine-to-coarse mapping that prediction reads.

``train_all`` trains the neural net beside the forest and the centroids
(see ``jobs.beside``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import centroids as misuse
from . import jobs
from . import neural_net as nn
from . import random_forest as rf
from .centroids import CentroidModel
from .dataset import (
    CoarseLabel,
    Dataset,
    StandardizationStats,
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
    final coarse class. Iterating gives :class:`FinalPrediction` rows,
    built on demand from the columns."""

    nn_votes: np.ndarray
    rf_votes: np.ndarray
    entry: np.ndarray
    routed: np.ndarray
    coarse: np.ndarray
    centroids: CentroidModel

    def __len__(self) -> int:
        return len(self.coarse)

    def __iter__(self) -> Iterator[FinalPrediction]:
        fine = self.centroids.fine_labels
        columns = (self.coarse, self.entry, self.routed, self.nn_votes, self.rf_votes)
        for coarse, e, routed, nn_vote, rf_vote in zip(*(c.tolist() for c in columns)):
            coarse = CoarseLabel(coarse)
            yield FinalPrediction(coarse, fine[e] if routed else None, routed, CoarseLabel(nn_vote),
                                  CoarseLabel(rf_vote), coarse if routed else None)


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
    # shared by the forest and its retrain
    ranked = rf.rank_columns(std_train.X, std_train.coarse)
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


class Stage(NamedTuple):
    key: str  # the manifest key, which is also the HybridModel field
    file: str
    title: str  # of the ``evaluate`` report
    summary: Callable  # model -> what the ``train`` line "wrote <file>" adds
    train: Callable  # (std_train, config) -> model
    save: Callable  # (path, model)
    load: Callable  # path -> model


# command-line stage name -> Stage, in manifest order. A tracer that
# rebinds module names misses calls made through these rows.
STAGES = {
    "nn": Stage("mlp", "mlp.model", "Neural Network (anomaly stage)", lambda mlp: "",
                lambda ds, config: nn.train(ds, config.nn), nn.save_mlp, nn.load_mlp),
    "rf": Stage("forest", "forest.model", "Random Forest (anomaly stage)",
                lambda f: f" ({len(f.active_features)}/{f.n_features} features active)",
                train_rf, rf.save_forest, rf.load_forest),
    "misuse": Stage("centroids", "centroids.model", "Misuse (centroid signatures)",
                    lambda cen: f" ({len(cen)} signatures)",
                    train_misuse, misuse.save_centroids, misuse.load_centroids),
}
STATS_FILE = "stats.txt"


def train_stage(name: str, std_train: Dataset, config: HybridConfig, stats: StandardizationStats):
    """The ``name`` stage (a ``STAGES`` key) trained on ``std_train``,
    tagged with the fingerprint of the ``stats`` it was standardized with."""
    model = STAGES[name].train(std_train, config)
    model.stats_fingerprint = stats.fingerprint
    return model


def train_all(train: Dataset, config: HybridConfig) -> HybridModel:
    """Fit standardization on the training split, then train all three
    stages on the same standardized data: the neural net beside the
    forest and the centroids (see ``jobs.beside``). The forest takes the
    net's CPU back once the net is done (see ``random_forest.grow_trees``).
    """
    stats = standardize_fit(train)
    std_train = standardize_dataset(stats, train)
    mlp, rest = jobs.beside(
        lambda: train_stage("nn", std_train, config, stats),
        lambda: {stage.key: train_stage(name, std_train, config, stats)
                 for name, stage in STAGES.items() if name != "nn"},
        log, what="training the neural net", done="trained the neural net beside the forest")
    return HybridModel(mlp=mlp, **rest, stats=stats)


def predict_dataset(
    h: HybridModel, ds: Dataset, index: np.ndarray | None = None
) -> tuple[Verdicts, RoutingStats]:
    """Vectorized chain over an encoded (unstandardized) dataset: both anomaly
    votes on every row of ``ds``, the misuse verdict on the routed rows,
    each row scored once. Input row ``i`` gets the verdict of row
    ``index[i]``; with no index, each row is its own. The verdicts and the
    counts are per input row. Only ``ds.X`` is read."""
    X = standardize_apply(h.stats, ds.X)
    nn_votes = nn.predict_batch(h.mlp, X)
    rf_votes = rf.predict_batch(h.forest, X)
    routed = route(nn_votes, rf_votes)
    entry = np.full(len(X), -1, dtype=np.int64)
    entry[routed] = misuse.assign_batch(h.centroids, X[routed])
    if index is not None:
        nn_votes, rf_votes, routed, entry = (a[index] for a in (nn_votes, rf_votes, routed, entry))
    log.debug("scored %d rows for %d input rows", len(X), len(entry))
    # entry -1 (not routed) picks the appended normal
    coarse = np.append(h.centroids.coarse, int(CoarseLabel.NORMAL))[entry]
    n_routed = int(routed.sum())
    trimmed = int(np.count_nonzero(coarse[routed] == CoarseLabel.NORMAL))
    stats = RoutingStats(
        total=len(entry), routed=n_routed, trimmed=trimmed, confirmed=n_routed - trimmed
    )
    return Verdicts(nn_votes, rf_votes, entry, routed, coarse, h.centroids), stats


# ---------------------------------------------------------------------------
# Persistence: a manifest referencing the three model files and the stats
# file; loading checks each model's stats fingerprint, and the neural net's
# and the forest's input widths against the stats file's 41 columns.

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
    for stage in STAGES.values():
        stage.save(directory / stage.file, getattr(h, stage.key))
    lines = [version_line("hybrid")]
    lines += [f"{stage.key}={stage.file}" for stage in STAGES.values()] + [f"stats={STATS_FILE}"]
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
    missing = [k for k in [stage.key for stage in STAGES.values()] + ["stats"] if k not in entries]
    if missing:
        raise r.error(f"manifest missing entries: {missing}")
    stats = load_stats(directory / entries["stats"])
    models = {stage.key: stage.load(directory / entries[stage.key]) for stage in STAGES.values()}
    for key, model in models.items():
        check_fingerprint(key, model, stats)
    h = HybridModel(**models, stats=stats)
    n_in = stats.mean.shape[0]
    if h.mlp.dims[0] != n_in or h.forest.n_features != n_in:
        raise ValueError("model input dimensions disagree with the stats file")
    return h
