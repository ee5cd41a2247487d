"""Command-line driver: prepare data, train models, evaluate, predict.

Every command is deterministic given its config file. A single root seed
(default 1999) derives per-component seeds by fixed offsets:

    sampling = seed      split   = seed + 1    neural net = seed + 2
    forest   = seed + 3  CV folds = seed + 5  (seed + 4 is unused)

Config files are flat ``key=value`` text with ``#`` comments;
``CONFIG_TABLE`` and ``CONFIG_PREFIXES`` map each accepted key to the
setting it fills. All artifacts are plain text and live in the output
directory under fixed names.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import centroids as misuse_mod
from . import neural_net as nn_mod
from . import random_forest as rf_mod
from .dataset import (
    COARSE_NAMES,
    SAMPLING_TARGETS,
    CoarseLabel,
    Dataset,
    Taxonomy,
    check_fine_label,
    check_folds,
    check_test_fraction,
    load_dataset,
    load_stats,
    numbered_blocks,
    open_kdd,
    parse_kdd_block,
    read_kdd_dataset,
    resample,
    save_dataset,
    save_stats,
    save_taxonomy,
    standardize_dataset,
    standardize_fit,
    stratified_split,
)
from .evaluation import (
    confusion,
    format_report,
    write_confusion_csv,
    write_metrics_csv,
)
from .hybrid import (
    STAGES,
    STATS_FILE,
    HybridConfig,
    RoutingStats,
    Verdicts,
    check_fingerprint,
    load_hybrid,
    predict_dataset,
    save_hybrid,
    train_all,
    train_stage,
)
from .neural_net import TrainConfig
from .persist import atomic_open, atomic_write, version_line
from .random_forest import ForestConfig

DEFAULT_SEED = 1999
TRAIN_FILE = "train.csv"
TEST_FILE = "test.csv"


@dataclass
class RunConfig:
    """The settings of one command: the run's own, and the three stages'
    model configs in ``hybrid``. :func:`build_config` fills it in and
    stamps the seeds derived from ``seed``."""

    data: str = ""
    out: str = "out"
    seed: int = DEFAULT_SEED
    test_fraction: float = 0.30
    cv_folds: int = 2
    sampling: dict[CoarseLabel, int] = dc_field(default_factory=SAMPLING_TARGETS.copy)
    taxonomy_extra: dict[str, CoarseLabel] = dc_field(default_factory=dict)
    hybrid: HybridConfig = dc_field(default_factory=HybridConfig)
    split_seed: int = 0
    fold_seed: int = 0

    def validate(self) -> None:
        """The range checks of the run's own settings and of the three
        stages' configs; ValueError names the setting."""
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if min(self.sampling.values()) < 0:
            raise ValueError("sampling targets must be >= 0")
        check_test_fraction(self.test_fraction)
        check_folds(self.cv_folds)
        self.hybrid.nn.validate()
        self.hybrid.rf.validate()

    def taxonomy(self) -> Taxonomy:
        return Taxonomy.default().extended(self.taxonomy_extra)

    def out_path(self, name: str) -> Path:
        return Path(self.out) / name


def _max_depth(value: str) -> int | None:
    depth = int(value)
    if depth < 0:
        raise ValueError(f"expected a depth >= 0 (0 means no limit), got {depth}")
    return depth or None


# the class each sampling.<name> key targets
_SAMPLING_CLASSES = {**{str(c): c for c in CoarseLabel}, "rtl": CoarseLabel.R2L}

# key -> (section, field, converter). The sections are RunConfig ("run"),
# the neural net's TrainConfig ("nn") and the forest's ForestConfig ("rf");
# nn.hidden1 and nn.hidden2 fill the one hidden_dims tuple.
CONFIG_TABLE = {
    "data": ("run", "data", str),
    "out": ("run", "out", str),
    "seed": ("run", "seed", int),
    "split.test_fraction": ("run", "test_fraction", float),
    "nn.hidden1": ("nn", "hidden1", int),
    "nn.hidden2": ("nn", "hidden2", int),
    "nn.learning_rate": ("nn", "learning_rate", float),
    "nn.epochs": ("nn", "epochs", int),
    "nn.batch_size": ("nn", "batch_size", int),
    "nn.folds": ("run", "cv_folds", int),
    "rf.trees": ("rf", "n_trees", int),
    "rf.max_depth": ("rf", "max_depth", _max_depth),
    "rf.min_samples_split": ("rf", "min_samples_split", int),
    "rf.features_per_split": ("rf", "features_per_split", int),
    "rf.importance_threshold": ("rf", "importance_keep_threshold", float),
}
# key prefix -> (section, converter of the rest of the key, converter of the
# value); the section is a dict that the converted key indexes
CONFIG_PREFIXES = {
    "sampling.": ("sampling", _SAMPLING_CLASSES.__getitem__, int),
    "taxonomy.": ("taxonomy", check_fine_label, CoarseLabel.from_name),
}


def _setting(key: str, value: str) -> tuple[str, object, object]:
    """(section, field, converted value) of one entry; KeyError if the key
    is unknown, ValueError if its converter rejects the value."""
    if key in CONFIG_TABLE:
        section, name, convert = CONFIG_TABLE[key]
        return section, name, convert(value)
    prefix, dot, rest = key.partition(".")
    section, convert_rest, convert = CONFIG_PREFIXES[prefix + dot]
    return section, convert_rest(rest), convert(value)


def parse_config_file(path: str | Path) -> dict[str, dict]:
    """The settings of flat key=value lines ('#' starts a comment), as
    section -> field -> converted value. A line without '=', an unknown
    key, a key whose setting an earlier line filled (the same key or its
    alias, such as ``sampling.rtl`` after ``sampling.r2l``), or a value its
    key rejects (by its converter, or by ``RunConfig.validate`` with that
    one setting on the defaults) is an error that names the file, line and
    key."""
    sections: dict[str, dict] = {}
    keys: dict[tuple[str, object], str] = {}  # (section, field) -> the key that filled it
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key=value, got '{raw.strip()}'")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                section, name, converted = _setting(key, value)
                _run_config({section: {name: converted}}).validate()
            except KeyError:
                raise ValueError(f"{where}: unknown config key '{key}'") from None
            except ValueError as exc:
                raise ValueError(f"{where}: {key}: {exc}") from None
            if (section, name) in keys:
                first = keys[section, name]
                alias = "" if first == key else f", the same setting as '{first}'"
                raise ValueError(f"{where}: repeated key '{key}'{alias}")
            keys[section, name] = key
            sections.setdefault(section, {})[name] = converted
    return sections


def _run_config(sections: dict[str, dict]) -> RunConfig:
    """The run config that ``sections`` (section -> field -> converted
    value, as ``_setting`` gives them) fill in on the defaults, with the
    seeds derived from the root seed."""
    run, nn = sections.get("run", {}), dict(sections.get("nn", {}))
    hidden = TrainConfig.hidden_dims
    nn["hidden_dims"] = (nn.pop("hidden1", hidden[0]), nn.pop("hidden2", hidden[1]))
    seed = run.get("seed", DEFAULT_SEED)
    return RunConfig(
        **run,
        sampling={**SAMPLING_TARGETS, **sections.get("sampling", {})},
        split_seed=seed + 1,
        hybrid=HybridConfig(
            nn=TrainConfig(**nn, seed=seed + 2),
            rf=ForestConfig(**sections.get("rf", {}), seed=seed + 3),
        ),
        fold_seed=seed + 5,
        taxonomy_extra=sections.get("taxonomy", {}),
    )


def build_config(args: argparse.Namespace) -> RunConfig:
    """The defaults, overridden by the config file, overridden by --data,
    --out and --seed; then the seeds derived from the root seed. ValueError
    on a value out of range."""
    sections = parse_config_file(args.config) if getattr(args, "config", None) else {}
    run = sections.setdefault("run", {})
    for name in ("data", "out", "seed"):
        if getattr(args, name, None) not in (None, ""):
            run[name] = getattr(args, name)
    cfg = _run_config(sections)
    cfg.validate()
    return cfg


_TABLE_ORDER = (CoarseLabel.DOS, CoarseLabel.NORMAL, CoarseLabel.PROBE,
                CoarseLabel.R2L, CoarseLabel.U2R)


def _counts_row(title: str, counts: dict[CoarseLabel, int]) -> str:
    cells = "".join(str(counts.get(c, 0)).rjust(9) for c in _TABLE_ORDER)
    return title.ljust(17) + cells


def _write_record(cfg: RunConfig, name: str, kind: str, lines: list[str]) -> str:
    """Write ``lines`` to ``name`` under the version and seed lines; return
    the whole text."""
    text = "\n".join([version_line(kind), f"seed={cfg.seed}", *lines])
    atomic_write(cfg.out_path(name), text + "\n")
    return text


def cmd_prepare(cfg: RunConfig) -> int:
    if not cfg.data:
        raise ValueError("prepare needs an input file (config key 'data' or --data)")
    if "\n" in cfg.data or "\r" in cfg.data:
        # the path goes into one line of train.csv, test.csv and the summary
        raise ValueError(f"input path {cfg.data!r} holds a line break")
    taxonomy = cfg.taxonomy()
    distinct, parsed = read_kdd_dataset(cfg.data, taxonomy)
    if not parsed:
        raise ValueError(f"input file {cfg.data} contains no records")
    before = distinct.counts_by_coarse()
    sampled = resample(distinct, cfg.sampling, cfg.seed)
    after = sampled.counts_by_coarse()
    train_ds, test_ds = stratified_split(sampled, cfg.test_fraction, cfg.split_seed)

    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    save_dataset(cfg.out_path(TRAIN_FILE), train_ds, cfg.data, cfg.sampling)
    save_dataset(cfg.out_path(TEST_FILE), test_ds, cfg.data, cfg.sampling)
    save_taxonomy(cfg.out_path("taxonomy.txt"), taxonomy)

    header = "Label:".ljust(17) + "".join(str(c).rjust(9) for c in _TABLE_ORDER)
    print(_write_record(cfg, "prepare_summary.txt", "prepare-summary", [
        f"source={cfg.data}",
        f"parsed={parsed} distinct={len(distinct)}",
        header,
        _counts_row("Before Sampling:", before),
        _counts_row("After Sampling:", after),
        f"train={len(train_ds)} test={len(test_ds)} "
        f"(test_fraction={cfg.test_fraction})",
    ]))
    return 0


def _load_split(path: Path) -> tuple[Dataset, np.ndarray]:
    """The split's distinct rows and each row's index among them (see
    ``load_dataset``)."""
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run 'prepare' first")
    return load_dataset(path)


def cmd_train(cfg: RunConfig, which: str) -> int:
    # only the expanded rows stay alive through training
    train_ds = Dataset.subset(*_load_split(cfg.out_path(TRAIN_FILE)))
    started = time.perf_counter()

    if which == "hybrid":
        print(f"wrote {save_hybrid(cfg.out, train_all(train_ds, cfg.hybrid))}")
    else:
        stage = STAGES[which]
        stats = standardize_fit(train_ds)
        std_train = standardize_dataset(stats, train_ds)
        if which == "nn":
            accs = nn_mod.cross_validate(std_train, cfg.cv_folds, cfg.hybrid.nn, cfg.fold_seed)
            print(
                f"{cfg.cv_folds}-fold CV mean overall accuracy: {np.mean(accs):.3f} "
                f"(folds: {', '.join(f'{a:.3f}' for a in accs)})"
            )
        model = train_stage(which, std_train, cfg.hybrid, stats)
        path = cfg.out_path(stage.file)
        save_stats(cfg.out_path(STATS_FILE), stats)
        stage.save(path, model)
        print(f"wrote {path}{stage.summary(model)}")
    print(f"training time: {time.perf_counter() - started:.1f}s")
    return 0


def cmd_evaluate(cfg: RunConfig, which: str, test_override: str | None = None) -> int:
    path = Path(test_override) if test_override else cfg.out_path(TEST_FILE)
    distinct, index = _load_split(path)
    if not len(index):
        raise ValueError(f"test split {path} holds no records")

    if which == "hybrid":
        model = load_hybrid(cfg.out_path("hybrid.manifest"))
        verdicts, routing = predict_dataset(model, distinct, index)
        preds = verdicts.coarse
        title = "Hybrid pipeline"
        _write_record(cfg, "routing_hybrid.txt", "routing", [
            f"total={routing.total}",
            f"routed={routing.routed}",
            f"trimmed={routing.trimmed}",
            f"confirmed={routing.confirmed}",
        ])
        print(routing.describe())
    else:
        stage = STAGES[which]
        title = stage.title
        model = stage.load(cfg.out_path(stage.file))
        stats = load_stats(cfg.out_path(STATS_FILE))
        check_fingerprint(stage.key, model, stats)
        # each distinct row is scored once, and its prediction counts for
        # every row of the split that repeats it
        std_test = standardize_dataset(stats, distinct)
        if which == "misuse":
            preds, coarse_acc, fine_acc = misuse_mod.evaluate_misuse(model, std_test, index)
            table = [
                f"Type of Classification:   5 Class   {len(model)} Class",
                f"Accuracy:               {coarse_acc:9.3f} {fine_acc:9.3f}",
            ]
            print("\n".join(table))
            _write_record(cfg, "report_misuse_accuracy.txt", "misuse-accuracy", table)
        else:
            preds = (nn_mod if which == "nn" else rf_mod).predict_batch(model, std_test.X)[index]

    matrix = confusion(preds, distinct.coarse[index])
    report = format_report(matrix, title, seed=cfg.seed)
    print(report)
    write_confusion_csv(cfg.out_path(f"confusion_{which}.csv"), matrix, seed=cfg.seed)
    write_metrics_csv(cfg.out_path(f"metrics_{which}.csv"), matrix, seed=cfg.seed)
    atomic_write(cfg.out_path(f"report_{which}.txt"), report + "\n")
    return 0


def _verdict_rows(verdicts: Verdicts) -> str:
    """The rows of ``predictions.csv``, formatted from the verdict columns
    through string tables: one per centroid signature and one per vote pair."""
    cen = verdicts.centroids
    names = [COARSE_NAMES[c] for c in cen.coarse.tolist()]
    # a routed row takes the columns of its signature; -1 picks the last, unrouted one
    heads = [f"{c},{f},true," for c, f in zip(names, cen.fine_labels)] + ["normal,-,false,"]
    tails = [f",{c}\n" for c in names] + [",-\n"]
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
    with open_kdd(input_path) as fh, atomic_open(cfg.out_path("predictions.csv")) as out:
        out.write("# " + version_line("predictions") + "\n"
                  "coarse,fine,routed,nn_vote,rf_vote,misuse_vote\n")
        for block in numbered_blocks(fh):
            X, index, errors = parse_kdd_block(block, labeled=None)
            reject_lines += map(str, errors)
            # predict_dataset reads only X; the label columns are placeholders.
            verdicts, block_stats = predict_dataset(
                model, Dataset(X, [""] * len(X), [0] * len(X)), index)
            rows = _verdict_rows(verdicts)
            out.write(rows)
            print(rows, end="")
            stats += block_stats
    rejects_path = cfg.out_path("predictions.rejects.txt")
    if reject_lines:
        atomic_write(rejects_path, "\n".join(reject_lines) + "\n")
        print(f"{len(reject_lines)} rejected lines written to {rejects_path}", file=sys.stderr)
    elif rejects_path.exists():
        rejects_path.unlink()  # no stale rejects from earlier runs
    print(stats.describe(), file=sys.stderr)
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
        p.add_argument("--log-level", choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                       help="print the package's log lines of this level and above to "
                            "stderr (default: warnings and errors, message only)")

    p_prepare = sub.add_parser("prepare", help="parse, dedup, encode, resample, split")
    common(p_prepare)
    p_prepare.add_argument("--data", help="KDD-format input file (.gz ok)")
    p_prepare.set_defaults(run=lambda cfg, args: cmd_prepare(cfg))

    p_train = sub.add_parser("train", help="train models on the prepared split")
    p_train.add_argument("which", choices=["nn", "rf", "misuse", "hybrid"])
    common(p_train)
    p_train.set_defaults(run=lambda cfg, args: cmd_train(cfg, args.which))

    p_eval = sub.add_parser("evaluate", help="evaluate a trained model")
    p_eval.add_argument("which", choices=["nn", "rf", "misuse", "hybrid"])
    common(p_eval)
    p_eval.add_argument("--test-file", help="override the test split file")
    p_eval.set_defaults(run=lambda cfg, args: cmd_evaluate(cfg, args.which, args.test_file))

    p_pred = sub.add_parser("predict", help="stream verdicts for KDD-format lines")
    common(p_pred)
    p_pred.add_argument("--input", required=True, help="KDD lines, labeled or not (.gz ok)")
    p_pred.set_defaults(run=lambda cfg, args: cmd_predict(cfg, args.input))
    return parser


@contextlib.contextmanager
def _log_to_stderr(level: str | None):
    """With a level, the package's log records of that level and above go
    to stderr, tagged with level and logger, until the block ends. Without
    one, logging stays as the caller set it up (by default Python prints
    warnings and errors, message only)."""
    if level is None:
        yield
        return
    logger = logging.getLogger("hybrid_ids")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(level)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    with _log_to_stderr(args.log_level):
        try:
            return args.run(build_config(args), args)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
