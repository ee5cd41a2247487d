"""Command-line driver: prepare data, train models, evaluate, predict.

Every command is deterministic given its config file. A single root seed
(default 1999) derives per-component seeds by fixed offsets:

    sampling = seed      split   = seed + 1    neural net = seed + 2
    forest   = seed + 3  misuse  = seed + 4    CV folds   = seed + 5

Config files are flat ``key=value`` text with ``#`` comments; see
``CONFIG_KEYS`` for the accepted keys. All artifacts are plain text and
live in the output directory under fixed names.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import centroids as misuse_mod
from . import neural_net as nn_mod
from . import random_forest as rf_mod
from .dataset import (
    COARSE_NAMES,
    CoarseLabel,
    Dataset,
    Provenance,
    SamplingPlan,
    Taxonomy,
    deduplicate,
    load_dataset,
    load_stats,
    load_taxonomy,
    parse_kdd_line,
    read_kdd_file,
    resample,
    save_dataset,
    save_stats,
    save_taxonomy,
    standardize_dataset,
    standardize_fit,
    stratified_split,
)
from .errors import ParseError
from .evaluation import (
    confusion,
    format_report,
    load_confusion_csv,
    write_confusion_csv,
    write_metrics_csv,
)
from .hybrid import (
    HybridConfig,
    RoutingStats,
    Verdicts,
    load_hybrid,
    predict_dataset,
    save_hybrid,
    train_all,
)
from .neural_net import TrainConfig
from .persist import atomic_open, atomic_write, version_line
from .random_forest import ForestConfig

DEFAULT_SEED = 1999
TRAIN_FILE = "train.csv"
TEST_FILE = "test.csv"
# Records per predict_dataset call in ``predict``: every call walks every
# tree node once, so small chunks repeat that walk, while large ones hold
# more encoded records in memory.
_PREDICT_CHUNK = 1024

CONFIG_KEYS = {
    "data", "out", "seed", "split.test_fraction",
    "sampling.normal", "sampling.dos", "sampling.probe", "sampling.r2l",
    "sampling.rtl", "sampling.u2r",
    "nn.hidden1", "nn.hidden2", "nn.learning_rate", "nn.epochs",
    "nn.batch_size", "nn.folds",
    "rf.trees", "rf.max_depth", "rf.min_samples_split",
    "rf.features_per_split", "rf.importance_threshold", "rf.prune",
    "misuse.clusters_per_label",
}


@dataclass
class RunConfig:
    data: str = ""
    out: str = "out"
    seed: int = DEFAULT_SEED
    test_fraction: float = 0.30
    sampling: dict[CoarseLabel, int] = dc_field(
        default_factory=lambda: dict(SamplingPlan.DEFAULT_TARGETS)
    )
    taxonomy_extra: dict[str, CoarseLabel] = dc_field(default_factory=dict)
    nn_hidden: tuple[int, int] = (64, 32)
    nn_learning_rate: float = 0.01
    nn_epochs: int = 30
    nn_batch_size: int = 128
    nn_folds: int = 2
    rf_trees: int = 100
    rf_max_depth: int | None = None
    rf_min_samples_split: int = 2
    rf_features_per_split: int = 7
    rf_importance_threshold: float = 0.99
    rf_prune: bool = True
    misuse_clusters: int = 1

    # Per-component seeds, derived from the root seed by fixed offsets.
    @property
    def sampling_seed(self) -> int:
        return self.seed

    @property
    def split_seed(self) -> int:
        return self.seed + 1

    @property
    def nn_seed(self) -> int:
        return self.seed + 2

    @property
    def rf_seed(self) -> int:
        return self.seed + 3

    @property
    def misuse_seed(self) -> int:
        return self.seed + 4

    @property
    def fold_seed(self) -> int:
        return self.seed + 5

    def nn_config(self) -> TrainConfig:
        return TrainConfig(
            hidden_dims=self.nn_hidden,
            learning_rate=self.nn_learning_rate,
            epochs=self.nn_epochs,
            batch_size=self.nn_batch_size,
            seed=self.nn_seed,
        )

    def rf_config(self) -> ForestConfig:
        return ForestConfig(
            n_trees=self.rf_trees,
            max_depth=self.rf_max_depth,
            min_samples_split=self.rf_min_samples_split,
            features_per_split=self.rf_features_per_split,
            seed=self.rf_seed,
            importance_keep_threshold=self.rf_importance_threshold,
        )

    def hybrid_config(self) -> HybridConfig:
        return HybridConfig(
            nn=self.nn_config(),
            rf=self.rf_config(),
            clusters_per_label=self.misuse_clusters,
            misuse_seed=self.misuse_seed,
            prune_forest=self.rf_prune,
        )

    def sampling_plan(self) -> SamplingPlan:
        return SamplingPlan(dict(self.sampling), rng_seed=self.sampling_seed)

    def taxonomy(self) -> Taxonomy:
        return Taxonomy.default().extended(self.taxonomy_extra)

    def out_path(self, name: str) -> Path:
        return Path(self.out) / name


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got '{value}'")


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; unknown keys are errors
    unless they are taxonomy extensions."""
    entries: dict[str, str] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got '{raw.strip()}'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS and not key.startswith("taxonomy."):
                raise ValueError(f"{path}:{line_no}: unknown config key '{key}'")
            entries[key] = value
    return entries


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    entries = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in entries.items():
        if key == "data":
            cfg.data = value
        elif key == "out":
            cfg.out = value
        elif key == "seed":
            cfg.seed = int(value)
        elif key == "split.test_fraction":
            cfg.test_fraction = float(value)
        elif key.startswith("sampling."):
            cls = CoarseLabel.from_name(key.split(".", 1)[1])
            cfg.sampling[cls] = int(value)
        elif key.startswith("taxonomy."):
            cfg.taxonomy_extra[key.split(".", 1)[1]] = CoarseLabel.from_name(value)
        elif key == "nn.hidden1":
            cfg.nn_hidden = (int(value), cfg.nn_hidden[1])
        elif key == "nn.hidden2":
            cfg.nn_hidden = (cfg.nn_hidden[0], int(value))
        elif key == "nn.learning_rate":
            cfg.nn_learning_rate = float(value)
        elif key == "nn.epochs":
            cfg.nn_epochs = int(value)
        elif key == "nn.batch_size":
            cfg.nn_batch_size = int(value)
        elif key == "nn.folds":
            cfg.nn_folds = int(value)
        elif key == "rf.trees":
            cfg.rf_trees = int(value)
        elif key == "rf.max_depth":
            depth = int(value)
            cfg.rf_max_depth = None if depth == 0 else depth
        elif key == "rf.min_samples_split":
            cfg.rf_min_samples_split = int(value)
        elif key == "rf.features_per_split":
            cfg.rf_features_per_split = int(value)
        elif key == "rf.importance_threshold":
            cfg.rf_importance_threshold = float(value)
        elif key == "rf.prune":
            cfg.rf_prune = _parse_bool(value)
        elif key == "misuse.clusters_per_label":
            cfg.misuse_clusters = int(value)
    if getattr(args, "data", None):
        cfg.data = args.data
    if getattr(args, "out", None):
        cfg.out = args.out
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


_TABLE_ORDER = (CoarseLabel.DOS, CoarseLabel.NORMAL, CoarseLabel.PROBE,
                CoarseLabel.R2L, CoarseLabel.U2R)


def _counts_row(title: str, counts: dict[CoarseLabel, int]) -> str:
    cells = "".join(str(counts.get(c, 0)).rjust(9) for c in _TABLE_ORDER)
    return title.ljust(17) + cells


def cmd_prepare(cfg: RunConfig) -> int:
    if not cfg.data:
        raise ValueError("prepare needs an input file (config key 'data' or --data)")
    taxonomy = cfg.taxonomy()
    records = list(read_kdd_file(cfg.data))
    if not records:
        raise ValueError(f"input file {cfg.data} contains no records")
    distinct = deduplicate(records)
    encoded = Dataset(
        np.stack([r.x for r in distinct]),
        [r.fine_label for r in distinct],
        [taxonomy.coarse(r.fine_label) for r in distinct],
        Provenance(str(cfg.data), deduplicated=True),
    )
    before = encoded.counts_by_coarse()
    sampled = resample(encoded, cfg.sampling_plan())
    after = sampled.counts_by_coarse()
    train_ds, test_ds = stratified_split(sampled, cfg.test_fraction, cfg.split_seed)

    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    save_dataset(cfg.out_path(TRAIN_FILE), train_ds)
    save_dataset(cfg.out_path(TEST_FILE), test_ds)
    save_taxonomy(cfg.out_path("taxonomy.txt"), taxonomy)

    header = "Label:".ljust(17) + "".join(str(c).rjust(9) for c in _TABLE_ORDER)
    summary = "\n".join(
        [
            version_line("prepare-summary"),
            f"seed={cfg.seed}",
            f"source={cfg.data}",
            f"parsed={len(records)} distinct={len(distinct)}",
            header,
            _counts_row("Before Sampling:", before),
            _counts_row("After Sampling:", after),
            f"train={len(train_ds)} test={len(test_ds)} "
            f"(test_fraction={cfg.test_fraction})",
        ]
    )
    atomic_write(cfg.out_path("prepare_summary.txt"), summary + "\n")
    print(summary)
    return 0


def _load_train(cfg: RunConfig) -> Dataset:
    path = cfg.out_path(TRAIN_FILE)
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run 'prepare' first")
    return load_dataset(path)


def _prepared_taxonomy(cfg: RunConfig, train_ds: Dataset) -> Taxonomy:
    path = cfg.out_path("taxonomy.txt")
    if path.exists():
        return load_taxonomy(path)
    mapping = {
        fine: CoarseLabel(int(c))
        for fine, c in zip(train_ds.fine_labels, train_ds.coarse)
    }
    return Taxonomy(mapping)


def cmd_train(cfg: RunConfig, which: str) -> int:
    train_ds = _load_train(cfg)
    started = time.perf_counter()

    if which == "hybrid":
        taxonomy = _prepared_taxonomy(cfg, train_ds)
        model = train_all(train_ds, cfg.hybrid_config(), taxonomy)
        manifest = save_hybrid(cfg.out, model)
        print(f"wrote {manifest}")
        print(f"training time: {time.perf_counter() - started:.1f}s")
        return 0

    stats = standardize_fit(train_ds)
    std_train = standardize_dataset(stats, train_ds)
    if which == "nn":
        cv = nn_mod.cross_validate(std_train, cfg.nn_folds, cfg.nn_config(), cfg.fold_seed)
        print(
            f"{cfg.nn_folds}-fold CV mean overall accuracy: {cv.mean_accuracy:.3f} "
            f"(folds: {', '.join(f'{a:.3f}' for a in cv.fold_accuracies)})"
        )
        model = nn_mod.train(std_train, cfg.nn_config())
        model.stats_fingerprint = stats.fingerprint
        save_stats(cfg.out_path("stats.txt"), stats)
        nn_mod.save_mlp(cfg.out_path("mlp.model"), model)
        print(f"wrote {cfg.out_path('mlp.model')}")
    elif which == "rf":
        forest = rf_mod.train_forest(std_train, cfg.rf_config())
        if cfg.rf_prune:
            forest = rf_mod.prune_and_retrain(std_train, forest, cfg.rf_config())
        forest.stats_fingerprint = stats.fingerprint
        save_stats(cfg.out_path("stats.txt"), stats)
        rf_mod.save_forest(cfg.out_path("forest.model"), forest)
        print(f"wrote {cfg.out_path('forest.model')} "
              f"({len(forest.active_features)}/{forest.n_features} features active)")
    elif which == "misuse":
        model = misuse_mod.fit(std_train, cfg.misuse_clusters, cfg.misuse_seed)
        model.stats_fingerprint = stats.fingerprint
        collisions = misuse_mod.signature_collisions(model)
        if collisions:
            print(f"warning: shadowed signatures: {', '.join(collisions)}", file=sys.stderr)
        save_stats(cfg.out_path("stats.txt"), stats)
        misuse_mod.save_centroids(cfg.out_path("centroids.model"), model)
        print(f"wrote {cfg.out_path('centroids.model')} ({len(model)} signatures)")
    else:
        raise ValueError(f"unknown train target '{which}'")
    print(f"training time: {time.perf_counter() - started:.1f}s")
    return 0


def _load_test(cfg: RunConfig, override: str | None) -> Dataset:
    path = Path(override) if override else cfg.out_path(TEST_FILE)
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run 'prepare' first")
    return load_dataset(path)


def _check_stats(cfg: RunConfig, model_fingerprint: str):
    stats = load_stats(cfg.out_path("stats.txt"))
    if model_fingerprint != stats.fingerprint:
        raise ValueError(
            f"stats fingerprint mismatch: model has '{model_fingerprint}', "
            f"stats file has '{stats.fingerprint}'"
        )
    return stats


def cmd_evaluate(cfg: RunConfig, which: str, test_override: str | None = None) -> int:
    test_ds = _load_test(cfg, test_override)

    if which == "nn":
        model = nn_mod.load_mlp(cfg.out_path("mlp.model"))
        stats = _check_stats(cfg, model.stats_fingerprint)
        preds = nn_mod.predict_batch(model, standardize_dataset(stats, test_ds).X)
        matrix = confusion(preds, test_ds.coarse)
        title = "Neural Network (anomaly stage)"
    elif which == "rf":
        model = rf_mod.load_forest(cfg.out_path("forest.model"))
        stats = _check_stats(cfg, model.stats_fingerprint)
        preds = rf_mod.predict_batch(model, standardize_dataset(stats, test_ds).X)
        matrix = confusion(preds, test_ds.coarse)
        title = "Random Forest (anomaly stage)"
    elif which == "misuse":
        model = misuse_mod.load_centroids(cfg.out_path("centroids.model"))
        stats = _check_stats(cfg, model.stats_fingerprint)
        result = misuse_mod.evaluate_misuse(model, standardize_dataset(stats, test_ds))
        matrix = confusion(result.predicted_coarse, test_ds.coarse)
        title = "Misuse (centroid signatures)"
        table = "\n".join(
            [
                f"Type of Classification:   5 Class   {result.n_fine_classes} Class",
                f"Accuracy:               {result.coarse_accuracy:9.3f} {result.fine_accuracy:9.3f}",
            ]
        )
        print(table)
        atomic_write(
            cfg.out_path("report_misuse_accuracy.txt"),
            version_line("misuse-accuracy") + f"\nseed={cfg.seed}\n" + table + "\n",
        )
    elif which == "hybrid":
        model = load_hybrid(cfg.out_path("hybrid.manifest"))
        preds, routing = predict_dataset(model, test_ds)
        matrix = confusion(preds.coarse, test_ds.coarse)
        title = "Hybrid pipeline"
        routing_text = "\n".join(
            [
                version_line("routing"),
                f"seed={cfg.seed}",
                f"total={routing.total}",
                f"routed={routing.routed}",
                f"trimmed={routing.trimmed}",
                f"confirmed={routing.confirmed}",
            ]
        )
        atomic_write(cfg.out_path("routing_hybrid.txt"), routing_text + "\n")
        print(routing.describe())
    else:
        raise ValueError(f"unknown evaluate target '{which}'")

    report = format_report(matrix, title, seed=cfg.seed)
    print(report)
    write_confusion_csv(cfg.out_path(f"confusion_{which}.csv"), matrix, seed=cfg.seed)
    write_metrics_csv(cfg.out_path(f"metrics_{which}.csv"), matrix, seed=cfg.seed)
    atomic_write(cfg.out_path(f"report_{which}.txt"), report + "\n")
    return 0


def _encoded_chunks(lines: Iterable[str], rejects: list[str]) -> Iterator[np.ndarray]:
    """Feature blocks of at most ``_PREDICT_CHUNK`` well-formed KDD lines,
    labeled or not, each encoded as soon as it parses. The messages of
    malformed lines go to ``rejects``."""
    chunk: list[np.ndarray] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            chunk.append(parse_kdd_line(line, line_no, labeled=line.count(",") != 40).x)
        except ParseError as exc:
            rejects.append(str(exc))
            continue
        if len(chunk) == _PREDICT_CHUNK:
            yield np.array(chunk)
            chunk = []
    if chunk:
        yield np.array(chunk)


def _verdict_rows(verdicts: Verdicts) -> str:
    """The rows of ``predictions.csv``, formatted from the verdict columns
    through string tables: one per centroid entry and one per vote pair."""
    # a routed row takes the columns of its entry; -1 picks the last, unrouted one
    heads = [f"{e.coarse_label},{e.fine_label},true," for e in verdicts.entries]
    heads.append("normal,-,false,")
    tails = [f",{e.coarse_label}\n" for e in verdicts.entries] + [",-\n"]
    votes = [f"{nn},{rf}" for nn in COARSE_NAMES for rf in COARSE_NAMES]
    pairs = verdicts.nn_votes * len(COARSE_NAMES) + verdicts.rf_votes
    return "".join(
        heads[e] + votes[p] + tails[e]
        for e, p in zip(verdicts.entry.tolist(), pairs.tolist())
    )


def cmd_predict(cfg: RunConfig, input_path: str) -> int:
    model = load_hybrid(cfg.out_path("hybrid.manifest"))
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    reject_lines: list[str] = []
    stats = RoutingStats()
    with open(input_path) as fh, atomic_open(cfg.out_path("predictions.csv")) as out:
        out.write("# " + version_line("predictions") + "\n"
                  "coarse,fine,routed,nn_vote,rf_vote,misuse_vote\n")
        for X in _encoded_chunks(fh, reject_lines):
            # predict_dataset reads only X; the label columns are placeholders.
            verdicts, chunk_stats = predict_dataset(model, Dataset(X, [""] * len(X), [0] * len(X)))
            rows = _verdict_rows(verdicts)
            out.write(rows)
            print(rows, end="")
            stats += chunk_stats
    rejects_path = cfg.out_path("predictions.rejects.txt")
    if reject_lines:
        atomic_write(rejects_path, "\n".join(reject_lines) + "\n")
        print(f"{len(reject_lines)} rejected lines written to {rejects_path}", file=sys.stderr)
    elif rejects_path.exists():
        rejects_path.unlink()  # no stale rejects from earlier runs
    print(stats.describe(), file=sys.stderr)
    return 0


def cmd_report(cfg: RunConfig, targets: list[str]) -> int:
    names = targets or ["nn", "rf", "misuse", "hybrid"]
    found = False
    for which in names:
        path = cfg.out_path(f"confusion_{which}.csv")
        if not path.exists():
            continue
        found = True
        matrix = load_confusion_csv(path)
        print(format_report(matrix, f"{which} (from {path})", seed=cfg.seed))
        print()
    if not found:
        raise FileNotFoundError(f"no confusion matrices found under {cfg.out}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybrid-ids",
        description="Sequential hybrid intrusion detection over KDD-format data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="root seed (default 1999)")
        p.add_argument("--out", help="output directory (default 'out')")

    p_prepare = sub.add_parser("prepare", help="parse, dedup, encode, resample, split")
    common(p_prepare)
    p_prepare.add_argument("--data", help="KDD-format input file (.gz ok)")

    p_train = sub.add_parser("train", help="train models on the prepared split")
    p_train.add_argument("which", choices=["nn", "rf", "misuse", "hybrid"])
    common(p_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a trained model")
    p_eval.add_argument("which", choices=["nn", "rf", "misuse", "hybrid"])
    common(p_eval)
    p_eval.add_argument("--test-file", help="override the test split file")

    p_pred = sub.add_parser("predict", help="stream verdicts for KDD-format lines")
    common(p_pred)
    p_pred.add_argument("--input", required=True, help="KDD lines, labeled or not")

    p_rep = sub.add_parser("report", help="re-render saved evaluation tables")
    common(p_rep)
    p_rep.add_argument("targets", nargs="*", help="subset of nn rf misuse hybrid")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg, args.which)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.which, args.test_file)
        if args.command == "predict":
            return cmd_predict(cfg, args.input)
        if args.command == "report":
            return cmd_report(cfg, args.targets)
        raise ValueError(f"unknown command {args.command}")
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
