"""Run config: the value every config key sets on the built config, the
seeds derived from the root seed, the command-line overrides and the
config file's error messages."""

from __future__ import annotations

from argparse import Namespace

import pytest

from hybrid_ids.cli import build_config, main


def settings(cfg) -> dict:
    """Every value a built RunConfig carries, flat, under the config key
    that sets it; the derived seeds under ``seed.<component>``."""
    h = cfg.hybrid
    return {
        "data": cfg.data,
        "out": cfg.out,
        "seed": cfg.seed,
        "split.test_fraction": cfg.test_fraction,
        **{f"sampling.{c}": n for c, n in sorted(cfg.sampling.items())},
        "taxonomy": [(fine, str(c)) for fine, c in cfg.taxonomy().items()],
        "nn.hidden": h.nn.hidden_dims,
        "nn.learning_rate": h.nn.learning_rate,
        "nn.epochs": h.nn.epochs,
        "nn.batch_size": h.nn.batch_size,
        "nn.folds": cfg.cv_folds,
        "rf.trees": h.rf.n_trees,
        "rf.max_depth": h.rf.max_depth,
        "rf.min_samples_split": h.rf.min_samples_split,
        "rf.features_per_split": h.rf.features_per_split,
        "rf.importance_threshold": h.rf.importance_keep_threshold,
        "seed.sampling": cfg.seed,
        "seed.split": cfg.split_seed,
        "seed.nn": h.nn.seed,
        "seed.rf": h.rf.seed,
        "seed.folds": cfg.fold_seed,
    }


def _typed(values: dict) -> dict:
    """Values with their types, so 1 and True or 2 and 2.0 differ."""
    return {k: (type(v).__name__, v) for k, v in values.items()}


def _built(tmp_path, text: str | None, **flags):
    args = Namespace(config=None, data=None, out=None, seed=None)
    if text is not None:
        path = tmp_path / "run.cfg"
        path.write_text(text)
        args.config = str(path)
    for name, value in flags.items():
        setattr(args, name, value)
    return settings(build_config(args))


DEFAULT_TAXONOMY = settings(build_config(Namespace(config=None)))["taxonomy"]

DEFAULTS = {
    "data": "",
    "out": "out",
    "seed": 1999,
    "split.test_fraction": 0.30,
    "sampling.normal": 39524,
    "sampling.dos": 27285,
    "sampling.probe": 2131,
    "sampling.r2l": 999,
    "sampling.u2r": 86,
    "taxonomy": DEFAULT_TAXONOMY,
    "nn.hidden": (64, 32),
    "nn.learning_rate": 0.01,
    "nn.epochs": 30,
    "nn.batch_size": 128,
    "nn.folds": 2,
    "rf.trees": 100,
    "rf.max_depth": None,
    "rf.min_samples_split": 2,
    "rf.features_per_split": 7,
    "rf.importance_threshold": 0.99,
    "seed.sampling": 1999,
    "seed.split": 2000,
    "seed.nn": 2001,
    "seed.rf": 2002,
    "seed.folds": 2004,
}


def test_defaults_without_a_config_file(tmp_path):
    assert _typed(_built(tmp_path, None)) == _typed(DEFAULTS)
    assert len(DEFAULT_TAXONOMY) > 20
    assert ("smurf", "dos") in DEFAULT_TAXONOMY


def _seeds(root: int) -> dict:
    offsets = {"sampling": 0, "split": 1, "nn": 2, "rf": 3, "folds": 5}
    return {"seed": root, **{f"seed.{n}": root + i for n, i in offsets.items()}}


# one config line -> the settings it changes
KEY_EFFECTS = [
    ("data=corpus.txt", {"data": "corpus.txt"}),
    ("out=models/run 1", {"out": "models/run 1"}),
    ("seed=7", _seeds(7)),
    ("seed=0", _seeds(0)),
    ("split.test_fraction=0.25", {"split.test_fraction": 0.25}),
    ("sampling.normal=10", {"sampling.normal": 10}),
    ("sampling.dos=11", {"sampling.dos": 11}),
    ("sampling.probe=12", {"sampling.probe": 12}),
    ("sampling.r2l=13", {"sampling.r2l": 13}),
    ("sampling.rtl=14", {"sampling.r2l": 14}),
    ("sampling.u2r=15", {"sampling.u2r": 15}),
    ("taxonomy.saint=probe", {"taxonomy": sorted(DEFAULT_TAXONOMY + [("saint", "probe")])}),
    ("taxonomy.xterm=rtl", {"taxonomy": sorted(DEFAULT_TAXONOMY + [("xterm", "r2l")])}),
    ("taxonomy.smurf=probe", {"taxonomy": sorted(
        [p for p in DEFAULT_TAXONOMY if p[0] != "smurf"] + [("smurf", "probe")])}),
    ("nn.hidden1=16", {"nn.hidden": (16, 32)}),
    ("nn.hidden2=8", {"nn.hidden": (64, 8)}),
    ("nn.hidden2=8\nnn.hidden1=16", {"nn.hidden": (16, 8)}),
    ("nn.learning_rate=0.05", {"nn.learning_rate": 0.05}),
    ("nn.epochs=40", {"nn.epochs": 40}),
    ("nn.batch_size=16", {"nn.batch_size": 16}),
    ("nn.folds=3", {"nn.folds": 3}),
    ("rf.trees=5", {"rf.trees": 5}),
    ("rf.max_depth=6", {"rf.max_depth": 6}),
    ("rf.max_depth=0", {"rf.max_depth": None}),
    ("rf.min_samples_split=4", {"rf.min_samples_split": 4}),
    ("rf.features_per_split=9", {"rf.features_per_split": 9}),
    ("rf.importance_threshold=0.9", {"rf.importance_threshold": 0.9}),
    ("# comment only\n\n  rf.trees = 5  # trailing comment", {"rf.trees": 5}),
]


@pytest.mark.parametrize("text, effect", KEY_EFFECTS, ids=[t for t, _ in KEY_EFFECTS])
def test_each_key_sets_its_value(tmp_path, text, effect):
    assert _typed(_built(tmp_path, text + "\n")) == _typed({**DEFAULTS, **effect})


def test_every_key_at_once(tmp_path):
    text = "\n".join([
        "data=corpus.txt", "out=models", "seed=7", "split.test_fraction=0.25",
        "sampling.normal=10", "sampling.dos=11", "sampling.probe=12", "sampling.rtl=13",
        "sampling.u2r=15", "taxonomy.saint=probe", "nn.hidden1=16", "nn.hidden2=8",
        "nn.learning_rate=0.05", "nn.epochs=40", "nn.batch_size=16", "nn.folds=3",
        "rf.trees=5", "rf.max_depth=6", "rf.min_samples_split=4", "rf.features_per_split=9",
        "rf.importance_threshold=0.9",
    ]) + "\n"
    assert _typed(_built(tmp_path, text)) == _typed({
        "data": "corpus.txt", "out": "models", "seed": 7, "split.test_fraction": 0.25,
        "sampling.normal": 10, "sampling.dos": 11, "sampling.probe": 12, "sampling.r2l": 13,
        "sampling.u2r": 15, "taxonomy": sorted(DEFAULT_TAXONOMY + [("saint", "probe")]),
        "nn.hidden": (16, 8), "nn.learning_rate": 0.05, "nn.epochs": 40, "nn.batch_size": 16,
        "nn.folds": 3, "rf.trees": 5, "rf.max_depth": 6, "rf.min_samples_split": 4,
        "rf.features_per_split": 9, "rf.importance_threshold": 0.9, **_seeds(7),
    })


def test_command_line_overrides_the_file(tmp_path):
    text = "data=a.txt\nout=a\nseed=3\n"
    got = _built(tmp_path, text, data="b.txt", out="b", seed=9)
    assert _typed(got) == _typed({**DEFAULTS, "data": "b.txt", "out": "b", **_seeds(9)})
    # empty or absent flags leave the file's values
    got = _built(tmp_path, text, data="", out=None, seed=None)
    assert _typed(got) == _typed({**DEFAULTS, "data": "a.txt", "out": "a", **_seeds(3)})


@pytest.mark.parametrize(
    "text, message",
    [
        ("sampling.dos=5\nturbo=yes\n", "{path}:2: unknown config key 'turbo'"),
        ("sampling.DOS=5\n", "{path}:1: unknown config key 'sampling.DOS'"),
        ("sampling.all=5\n", "{path}:1: unknown config key 'sampling.all'"),
        ("nn.hidden=5\n", "{path}:1: unknown config key 'nn.hidden'"),
        ("rf.prune=false\n", "{path}:1: unknown config key 'rf.prune'"),
        ("seed=1\nmisuse.clusters_per_label=2\n",
         "{path}:2: unknown config key 'misuse.clusters_per_label'"),
        ("seed=1\n\nrf.trees 5\n", "{path}:3: expected key=value, got 'rf.trees 5'"),
        ("taxonomy.guess passwd=r2l\n",
         "{path}:1: taxonomy.guess passwd: fine label 'guess passwd' is empty or holds whitespace"),
        ("seed=1\ntaxonomy.=dos\n", "{path}:2: taxonomy.: fine label '' is empty or holds whitespace"),
    ],
)
def test_config_file_errors(tmp_path, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        build_config(Namespace(config=str(path), data=None, out=None, seed=None))
    assert str(info.value) == message.format(path=path)


@pytest.mark.parametrize(
    "text, key",
    [("rf.trees=0\n", "rf.trees"), ("nn.batch_size=0\n", "nn.batch_size"),
     ("split.test_fraction=1.5\n", "split.test_fraction"), ("seed=-1\n", "seed"),
     ("sampling.rtl=-5\n", "sampling.rtl"), ("nn.learning_rate=nan\n", "nn.learning_rate"),
     ("nn.learning_rate=inf\n", "nn.learning_rate")],
)
def test_prepare_refuses_out_of_range_values(tmp_path, capsys, text, key):
    path, out = tmp_path / "run.cfg", tmp_path / "out"
    path.write_text(text)
    assert main(["prepare", "--config", str(path), "--data", "absent.txt", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:1: {key}: ")
    assert not out.exists()


def test_prepare_refuses_a_negative_seed_flag(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["prepare", "--seed", "-1", "--data", "absent.txt", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not out.exists()
