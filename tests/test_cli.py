"""CLI: prepare/train/evaluate/predict flows on a synthetic corpus,
config parsing, determinism of produced files."""

from __future__ import annotations

import argparse
import gzip
import hashlib
import io
import os
import re
import signal
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybrid_ids import cli, jobs
from hybrid_ids import neural_net as nn_mod
from hybrid_ids import random_forest as rf_mod
from hybrid_ids.cli import build_config, main, parse_config_file
from hybrid_ids import centroids as misuse_mod
from hybrid_ids import dataset as dataset_mod
from hybrid_ids.centroids import CentroidModel, assign_batch
from hybrid_ids.dataset import (
    COARSE_NAMES,
    N_FEATURES,
    SAMPLING_TARGETS,
    CoarseLabel,
    Dataset,
    load_dataset,
    parse_kdd_line,
    save_dataset,
    standardize_dataset,
    standardize_fit,
)
from hybrid_ids.errors import ParseError
from hybrid_ids.evaluation import confusion, format_report, write_confusion_csv, write_metrics_csv
from hybrid_ids.hybrid import RoutingStats, Verdicts, load_hybrid, predict_dataset
from hybrid_ids.neural_net import cross_validate
from hybrid_ids.persist import version_line
from hybrid_ids.random_forest import load_forest, predict_batch as rf_predict_batch

from conftest import DEFAULT_SYNTH_COUNTS, load_rows, make_kdd_lines
from test_random_forest import two_or_more_cpus


def _distinct_class_counts(lines: list[str]) -> dict[str, int]:
    """Independent dedup oracle: distinct full lines, counted by label."""
    coarse_of = {
        "normal": "normal", "neptune": "dos", "smurf": "dos",
        "ipsweep": "probe", "guess_passwd": "r2l", "buffer_overflow": "u2r",
    }
    out: Counter[str] = Counter()
    for line in dict.fromkeys(lines):
        fine = line.rsplit(",", 1)[1].rstrip(".")
        out[coarse_of[fine]] += 1
    return dict(out)


@pytest.fixture
def workspace(tmp_path: Path):
    lines = make_kdd_lines(DEFAULT_SYNTH_COUNTS, seed=7)
    data = tmp_path / "synth.txt"
    data.write_text("\n".join(lines) + "\n")
    distinct = _distinct_class_counts(lines)
    targets = {
        "normal": distinct["normal"],
        "dos": min(distinct["dos"], 80),   # exercises down-sampling
        "probe": distinct["probe"],
        "r2l": distinct["r2l"],
        "u2r": distinct["u2r"] + 10,       # exercises up-sampling
    }
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(
        "\n".join(
            [
                "# synthetic corpus run",
                f"data={data}",
                f"out={out}",
                "seed=1999",
                "split.test_fraction=0.30",
                f"sampling.normal={targets['normal']}",
                f"sampling.dos={targets['dos']}",
                f"sampling.probe={targets['probe']}",
                f"sampling.rtl={targets['r2l']}",  # alias spelling
                f"sampling.u2r={targets['u2r']}",
                "nn.hidden1=16",
                "nn.hidden2=8",
                "nn.epochs=40",
                "nn.batch_size=16",
                "nn.learning_rate=0.05",
                "nn.folds=2",
                "rf.trees=5",
            ]
        )
        + "\n"
    )
    return {"data": data, "out": out, "config": config,
            "distinct": distinct, "targets": targets, "lines": lines}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_config_parsing_and_aliases(workspace):
    sections = parse_config_file(workspace["config"])
    assert sections["run"]["seed"] == 1999 and sections["run"]["test_fraction"] == 0.30
    assert sections["sampling"][CoarseLabel.R2L] == workspace["targets"]["r2l"]  # sampling.rtl
    assert sections["nn"]["hidden1"] == 16 and sections["rf"]["n_trees"] == 5


def test_config_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("sampling.dos=5\nturbo=yes\n")
    with pytest.raises(ValueError, match="unknown config key 'turbo'"):
        parse_config_file(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("seed=3\nnn.epochs=abc\n",
         "{path}:2: nn.epochs: invalid literal for int() with base 10: 'abc'"),
        ("rf.max_depth=-2\n",
         "{path}:1: rf.max_depth: expected a depth >= 0 (0 means no limit), got -2"),
        ("sampling.dos=1.5\n",
         "{path}:1: sampling.dos: invalid literal for int() with base 10: '1.5'"),
        ("taxonomy.saint=scan\n", "{path}:1: taxonomy.saint: unknown coarse class 'scan'"),
        ("seed=3\n# again\nseed=4\n", "{path}:3: repeated key 'seed'"),
        ("sampling.r2l=5\nsampling.rtl=7\n",
         "{path}:2: repeated key 'sampling.rtl', the same setting as 'sampling.r2l'"),
        ("seed=1\nrf.trees=0\n", "{path}:2: rf.trees: n_trees must be >= 1"),
        ("nn.batch_size=0\n", "{path}:1: nn.batch_size: batch_size must be positive"),
        ("data=x.txt\n\nsplit.test_fraction=1.5\n",
         "{path}:3: split.test_fraction: test_fraction must be in (0, 1)"),
        ("seed=2\nnn.folds=1\n", "{path}:2: nn.folds: k must be >= 2"),
        ("data=x.txt\nout=o\nseed=-1\n", "{path}:3: seed: seed must be >= 0"),
        ("sampling.dos=1\n\nsampling.rtl=-5\n",
         "{path}:3: sampling.rtl: sampling targets must be >= 0"),
    ],
)
def test_config_errors_name_file_line_and_key(tmp_path, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        parse_config_file(path)
    assert str(info.value) == message.format(path=path)


def test_readme_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split(" | ")[0])]
    listed = set(keys)
    assert len(keys) == len(listed), "a key is listed twice"
    assert {key for key in listed if "<" not in key} == set(cli.CONFIG_TABLE)
    assert {key.split("<")[0] for key in listed if "<" in key} == set(cli.CONFIG_PREFIXES)


def test_readme_quickstart_lists_exactly_the_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    listed = {line.split()[1] for line in block.splitlines() if line.startswith("hybrid-ids ")}
    commands = next(a for a in cli.make_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert listed == set(commands)


def test_config_taxonomy_extension(tmp_path):
    cfg_file = tmp_path / "tax.cfg"
    cfg_file.write_text("taxonomy.saint=probe\ntaxonomy.xterm=u2r\n")

    class Args:
        config = str(cfg_file)
        data = None
        out = None
        seed = None

    cfg = build_config(Args())
    tax = cfg.taxonomy()
    assert str(tax.coarse("saint")) == "probe"
    assert str(tax.coarse("xterm")) == "u2r"


def test_prepare_summary_counts(workspace, capsys):
    rc = main(["prepare", "--config", str(workspace["config"])])
    assert rc == 0
    summary = (workspace["out"] / "prepare_summary.txt").read_text()
    d, t = workspace["distinct"], workspace["targets"]
    before = next(l for l in summary.splitlines() if l.startswith("Before Sampling:"))
    after = next(l for l in summary.splitlines() if l.startswith("After Sampling:"))
    # Table layout order: dos normal probe r2l u2r
    assert before.split()[2:] == [str(d["dos"]), str(d["normal"]), str(d["probe"]),
                                  str(d["r2l"]), str(d["u2r"])]
    assert after.split()[2:] == [str(t["dos"]), str(t["normal"]), str(t["probe"]),
                                 str(t["r2l"]), str(t["u2r"])]
    train = load_rows(workspace["out"] / "train.csv")
    test = load_rows(workspace["out"] / "test.csv")
    assert len(train) + len(test) == sum(t.values())
    out = capsys.readouterr().out
    assert "Before Sampling:" in out


def test_prepare_rerun_is_byte_identical(workspace, tmp_path):
    assert main(["prepare", "--config", str(workspace["config"])]) == 0
    first = {name: _sha(workspace["out"] / name)
             for name in ("train.csv", "test.csv", "taxonomy.txt", "prepare_summary.txt")}
    assert main(["prepare", "--config", str(workspace["config"])]) == 0
    second = {name: _sha(workspace["out"] / name) for name in first}
    assert first == second


# SHA-256 of the files ``prepare`` writes for the corpus of
# test_prepare_files_match_golden_hashes, as produced by the two-pass parser
# (validate, keep the field strings, convert them again to encode).
GOLDEN_PREPARE = {
    "train.csv": "0966240634d401198acf76591b2de985d56bacfc629e7fe4f6a3441dc4ba6af7",
    "test.csv": "90bcc6477393d7f02d3ed4d4fad39848d3742ab7c5ae85100f9f5d56d529f67d",
    "taxonomy.txt": "85cba0a543012aa7263a359032b6f5909064b14dfc7472039b537945a86fc32d",
    "prepare_summary.txt": "f8d24d98f4cc502e1ff5ee104c95be563947f20a257ca372904ded2667547783",
}


def test_prepare_files_match_golden_hashes(tmp_path, monkeypatch):
    # prepare writes the input path into the files, so it must be the same
    # relative path on every run
    monkeypatch.chdir(tmp_path)
    lines = make_kdd_lines(DEFAULT_SYNTH_COUNTS, seed=7)
    odd = lines[0].split(",")
    odd[0], odd[4], odd[5], odd[24], odd[28] = "1_000", " 7", ".5", "-0", "1E-2"
    lines += [
        ",".join(odd), ",".join(odd) + "  ",  # equal once stripped: one distinct record
        "", lines[1].replace("normal.", "normal.."),  # same record, label spelled differently
    ]
    Path("data.txt").write_text("\n".join(lines) + "\n")
    Path("run.cfg").write_text(
        "data=data.txt\nout=out\nseed=5\nsplit.test_fraction=0.25\n"
        "sampling.normal=100\nsampling.dos=70\nsampling.probe=40\n"
        "sampling.r2l=35\nsampling.u2r=25\n"
    )
    assert main(["prepare", "--config", "run.cfg"]) == 0
    assert {name: _sha(Path("out", name)) for name in GOLDEN_PREPARE} == GOLDEN_PREPARE


# SHA-256 of the files ``evaluate hybrid`` and ``predict`` write for the
# repeated inputs of test_scoring_files_match_golden_hashes, as produced by
# the code that parsed, converted and scored every copy of a record.
GOLDEN_SCORING = {
    "confusion_hybrid.csv": "70225699a96b630c3e2d8876dded55d3bc313b8a5d59cbd968819fcc0121315b",
    "metrics_hybrid.csv": "cf1d234cca3c077c5a1037572fe5263db866ce52b186e87a1171f4bc2b26dceb",
    "report_hybrid.txt": "c4586820632f57d328305ee2a289ed3cbc9530a5dabec555a3c6ca89196f3fa8",
    "routing_hybrid.txt": "64d3ffe2716799cd9bc9e0a09da2e931fdf56c38385c09aca048864d8fdb1cba",
    "predictions.csv": "8aaef5e7600ef4aac2f078ecd022afa87d9f8badeb95e92fc67e28db9bb9cde5",
    "predictions.rejects.txt": "fe82119f52c0b5c540d6f85812bbe3d895ea1e81691a54326fd1ca1203ff40e2",
}


def test_scoring_files_match_golden_hashes(workspace, tmp_path):
    """Evaluate and predict on inputs whose feature rows repeat, shuffled,
    some with another label or without one: every file keeps one row or
    count per input row."""
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    lines = (workspace["out"] / "test.csv").read_text().splitlines()
    rows = lines[3:]
    relabeled = [row.rsplit(",", 2)[0] + ",normal,normal" for row in rows[:10]]
    tiled = rows * 3 + relabeled
    order = np.random.default_rng(0).permutation(len(tiled))
    batch = tmp_path / "batch.csv"
    batch.write_text("\n".join(lines[:3] + [tiled[i] for i in order]) + "\n")
    assert main(["evaluate", "hybrid", "--config", str(workspace["config"]),
                 "--test-file", str(batch)]) == 0

    corpus = workspace["lines"]
    stream = corpus + [line.rsplit(",", 1)[0] for line in corpus[::3]] + corpus[::2]
    stream = [stream[i] for i in np.random.default_rng(1).permutation(len(stream))]
    stream[5:5] = ["bad,line", ""]
    inputs = tmp_path / "stream.txt"
    inputs.write_text("\n".join(stream + corpus[:4]) + "\n")
    assert main(["predict", "--config", str(workspace["config"]), "--input", str(inputs)]) == 0
    assert {name: _sha(workspace["out"] / name) for name in GOLDEN_SCORING} == GOLDEN_SCORING


# SHA-256 of each command's stdout and stderr (the training time masked) and
# of every file the command flow of test_cli_flow_matches_golden_hashes
# leaves in its output directory.
GOLDEN_FLOW = {
    "prepare: stdout": "0308460cf30b7fe40c9047ad0fc1554a31b9e59267dc3b0a4053e9e61316b3b6",
    "prepare: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "train hybrid --log-level INFO: stdout": "5ba2e6324678b37e8665e5ee9accb754e305ba10fc45c1b765ee151074ae5fdf",
    "train hybrid --log-level INFO: stderr": "7db9870d0711d089f6367049fd2bd09abfe8a525f8f2cd8a21c749bcd140d25c",
    "train nn --log-level INFO: stdout": "91ff6fcfef5d635c560bac4144f92e942092f198646eb578b67fd6839b7d02da",
    "train nn --log-level INFO: stderr": "6150d641b334438df013ab2ca31ab6cc335597ffd104ea1c28b931909c94d7eb",
    "train rf --log-level INFO: stdout": "fc6e832ebafe0625e39001235cb1502915e5e0a91b4016abc5dfdfb91d7919f7",
    "train rf --log-level INFO: stderr": "377d7aea13605139250aad1f93fea351672cc286c6fc8776bdfc45560195ee8b",
    "train misuse --log-level INFO: stdout": "000895307bbcc8b6a2a4b925aadbe7c962fd4ec1c73389d34e45aedd9b5d2ee0",
    "train misuse --log-level INFO: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "evaluate hybrid: stdout": "0bd966d27413dd74fca8ee7ab4d9f925cb587d0291851bfecd689430acf17ad8",
    "evaluate hybrid: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "evaluate nn: stdout": "15f2ff8bdb54884acee85f615e2b1b894a91ebce6ef61264542ab70868c1b259",
    "evaluate nn: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "evaluate rf: stdout": "f43542de689a053c879deb0daea704d93e3afe469a3749bf3b691abc8c3bad0b",
    "evaluate rf: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "evaluate misuse: stdout": "5dc866a98eebb169fc0a970c96207be21944bdc60b9ce2ca0774fe94cadf12fb",
    "evaluate misuse: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "predict --input stream.txt: stdout": "2bde446a2fabe2a7d2a317cec0227ad95d4d52dc5a390397dfd6ec7ef7ff9f63",
    "predict --input stream.txt: stderr": "a2e5e028bdb527643f43430b598405e650c64f4673f3eaa270a855a7c4ada00e",
    "centroids.model": "d239d7aeb618d95d2497fa1421ff0bab1cef0fb34c78f8748910a047428ac802",
    "confusion_hybrid.csv": "31b729e705b9d2b0b9af0ff28630903e290cc77674cb505e95937e3928944170",
    "confusion_misuse.csv": "31b729e705b9d2b0b9af0ff28630903e290cc77674cb505e95937e3928944170",
    "confusion_nn.csv": "140e237927f49e2ac9f267ed39a59da8b284ca2da438d031278686f348899a11",
    "confusion_rf.csv": "31b729e705b9d2b0b9af0ff28630903e290cc77674cb505e95937e3928944170",
    "forest.model": "ccef3766a488d9d4b4f6931ceb4245bc8ac1169c5849fa466a08ef869d4239f7",
    "hybrid.manifest": "7b70665b42af539438e6df85edd78682bb4030c46e39226710551c40e363f034",
    "metrics_hybrid.csv": "b1b20af7fc5edba57782b38d6bec4742009fd68d9d70ba86e5d5d6a93d3c0755",
    "metrics_misuse.csv": "b1b20af7fc5edba57782b38d6bec4742009fd68d9d70ba86e5d5d6a93d3c0755",
    "metrics_nn.csv": "9c2d2ff077e9e3d8c1bec648ece848d9249dc2f94c06d7b3eaa6aca749b8bdab",
    "metrics_rf.csv": "b1b20af7fc5edba57782b38d6bec4742009fd68d9d70ba86e5d5d6a93d3c0755",
    "mlp.model": "e67f4d23190dd2012d3c5b52ac8902d2312e61f2a0e469294aa2c4021fd785b3",
    "predictions.csv": "1e58c01b8ad4bb6da96f510542ded3df43f2f1dac5e7d37332ada752b94b0f47",
    "predictions.rejects.txt": "53cf699d05f4e031cb9a625f240a9f8b23aa85e59a21b3e9bcbeb9dfccebe9d5",
    "prepare_summary.txt": "0308460cf30b7fe40c9047ad0fc1554a31b9e59267dc3b0a4053e9e61316b3b6",
    "report_hybrid.txt": "3b350a1220bc1e0e6398f5f421f320266f172327eb46b1eb945081ef6fc94803",
    "report_misuse.txt": "89ab60b20eee3d5b6897543f8870242c34dfc8a1a54c1418f8312b7622a642cb",
    "report_misuse_accuracy.txt": "339537f0f0f6db11e92f778f943a2742589e29d3f949c71ed417c59812f503cf",
    "report_nn.txt": "15f2ff8bdb54884acee85f615e2b1b894a91ebce6ef61264542ab70868c1b259",
    "report_rf.txt": "f43542de689a053c879deb0daea704d93e3afe469a3749bf3b691abc8c3bad0b",
    "routing_hybrid.txt": "5e112e0e15c699087050e78cc91306ad46f5dfefa1e3606ec7cd1cd8a2594874",
    "stats.txt": "d863254bb347892c61d0c54eada82be08beac929e69add380f33d69e8b9bac70",
    "taxonomy.txt": "85cba0a543012aa7263a359032b6f5909064b14dfc7472039b537945a86fc32d",
    "test.csv": "aa0d8ccf87c1a7c9f7545e12692a725263a7b3c95129f65207f21e130ea554b4",
    "train.csv": "97d07e7bc4c735249426c84b75db94dc69240e2c3874847b9048e6325d7befda",
}


def test_cli_flow_matches_golden_hashes(tmp_path, monkeypatch, capsys):
    """prepare, the four trainings (the single stages after the hybrid one
    rewrite its files), the four evaluations and predict, from a
    fixed relative path: every output byte is pinned."""
    monkeypatch.chdir(tmp_path)
    lines = make_kdd_lines(DEFAULT_SYNTH_COUNTS, seed=7)
    Path("data.txt").write_text("\n".join(lines) + "\n")
    stream = [line.rsplit(",", 1)[0] for line in lines[::3]] + lines[::5]
    stream[7:7] = ["bad,line", ""]
    Path("stream.txt").write_text("\n".join(stream) + "\n")
    Path("run.cfg").write_text(
        "data=data.txt\nout=out\nseed=11\nsampling.normal=90\nsampling.dos=80\n"
        "sampling.probe=40\nsampling.r2l=30\nsampling.u2r=30\nnn.hidden1=16\n"
        "nn.hidden2=8\nnn.epochs=20\nnn.batch_size=16\nnn.folds=3\nrf.trees=5\n"
    )
    commands = [["prepare"]]
    commands += [["train", which, "--log-level", "INFO"] for which in ("hybrid", "nn", "rf", "misuse")]
    commands += [["evaluate", which] for which in ("hybrid", "nn", "rf", "misuse")]
    commands += [["predict", "--input", "stream.txt"]]
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    hashes = {}
    for command in commands:
        assert main([*command, "--config", "run.cfg"]) == 0, command
        out, err = capsys.readouterr()
        name = " ".join(command)
        hashes[f"{name}: stdout"] = digest(re.sub(r"training time: \S+", "training time: -", out))
        hashes[f"{name}: stderr"] = digest(err)
    hashes.update((path.name, _sha(path)) for path in sorted(Path("out").iterdir()))
    assert hashes == GOLDEN_FLOW


def test_prepare_empty_input_errors(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    for text in ("", "\n  \n\t\n"):  # empty, and blank lines only
        empty.write_text(text)
        rc = main(["prepare", "--data", str(empty), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "contains no records" in capsys.readouterr().err
        assert not (tmp_path / "o" / "train.csv").exists()


@pytest.mark.parametrize("name", ["a\nb.txt", "a\rb.txt", "a\r\nb.txt"])
def test_prepare_refuses_a_data_path_with_a_line_break(tmp_path, capsys, name):
    # the file exists and parses, so only the line break is at fault
    data = tmp_path / name
    data.write_text("\n".join(make_kdd_lines(DEFAULT_SYNTH_COUNTS)) + "\n")
    rc = main(["prepare", "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: input path {str(data)!r} holds a line break\n"
    assert not (tmp_path / "o").exists()


def _prepare_lines(tmp_path: Path, lines: list[str | bytes], name: str = "data.txt") -> int:
    """Run ``prepare`` on ``lines`` (bytes written as they are) with small
    sampling targets; the files go to ``tmp_path/out``."""
    data = tmp_path / name
    payload = b"".join(l if isinstance(l, bytes) else l.encode() for l in lines)
    data.write_bytes(gzip.compress(payload, mtime=0) if name.endswith(".gz") else payload)
    (tmp_path / "run.cfg").write_text(
        f"data={data}\nout={tmp_path / 'out'}\nsplit.test_fraction=0.5\n"
        "sampling.normal=2\nsampling.dos=1\nsampling.probe=0\nsampling.r2l=0\nsampling.u2r=0\n")
    return main(["prepare", "--config", str(tmp_path / "run.cfg")])


def test_prepare_collapses_label_dot_and_padding_variants(tmp_path, capsys):
    first, second = make_kdd_lines({"normal": 2}, seed=1)
    head = first.rsplit(",", 1)[0]
    lines = [f"{head},normal.\n", f"{head},normal\n", f"  {head},normal.  \n",
             f"{head},normal..\n", f"{head},smurf.\n", second + "\n"]
    assert _prepare_lines(tmp_path, lines) == 0
    assert "parsed=6 distinct=3" in capsys.readouterr().out
    train = load_rows(tmp_path / "out" / "train.csv")
    test = load_rows(tmp_path / "out" / "test.csv")
    assert sorted(train.fine_labels.tolist() + test.fine_labels.tolist()) == [
        "normal", "normal", "smurf"]


def test_prepare_unmapped_label_names_it(tmp_path, capsys):
    lines = make_kdd_lines({"normal": 3, "neptune": 2}, seed=1)
    lines[2] = lines[2].rsplit(",", 1)[0] + ",saint."
    assert _prepare_lines(tmp_path, [l + "\n" for l in lines]) == 1
    assert "fine label 'saint' is not mapped" in capsys.readouterr().err
    assert not (tmp_path / "out" / "train.csv").exists()


def test_prepare_malformed_line_after_unmapped_label_wins(tmp_path, capsys):
    lines = make_kdd_lines({"normal": 3, "neptune": 2}, seed=1)
    lines[1] = lines[1].rsplit(",", 1)[0] + ",saint."
    lines[3] = lines[3].replace(",tcp,", ",sctp,")
    assert _prepare_lines(tmp_path, [l + "\n" for l in lines]) == 1
    with pytest.raises(ParseError) as expected:
        parse_kdd_line(lines[3], 4)
    assert capsys.readouterr().err == f"error: {expected.value}\n"


def test_prepare_reads_gzip_as_plain(tmp_path):
    lines = [l + "\n" for l in make_kdd_lines({"normal": 6, "neptune": 4, "smurf": 2}, seed=2)]
    lines += [lines[0], "\n", lines[6].replace("neptune.", "neptune")]
    written = {}
    for name in ("data.txt", "data.txt.gz"):
        run = tmp_path / name.replace(".", "_")
        run.mkdir()
        assert _prepare_lines(run, lines, name) == 0
        written[name] = {f.name: f.read_text().replace(str(run / name), "DATA")
                         for f in sorted((run / "out").iterdir())}
    assert written["data.txt"] == written["data.txt.gz"]
    assert "parsed=14 distinct=12" in written["data.txt"]["prepare_summary.txt"]


@pytest.mark.parametrize("field, value, message", [
    (4, b"1\xff8", "line 3, column 'src_bytes': unparseable numeric value '1\\xff8'"),
    (41, b"norm\xffal.", "fine label 'norm\\xffal' is not mapped"),
])
def test_prepare_undecodable_byte_fails_its_line(tmp_path, capsys, field, value, message):
    lines = [l.encode() for l in make_kdd_lines({"normal": 4, "neptune": 2}, seed=1)]
    fields = lines[2].split(b",")
    fields[field] = value
    lines[2] = b",".join(fields)
    assert _prepare_lines(tmp_path, [l + b"\n" for l in lines]) == 1
    assert message in capsys.readouterr().err


def test_prepare_parse_error_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    lines = make_kdd_lines({"normal": 3}, seed=1)
    lines.insert(2, "only,three,fields")
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["prepare", "--data", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 3" in err
    assert not (tmp_path / "o" / "train.csv").exists()


def _prepared(workspace) -> dict:
    assert main(["prepare", "--config", str(workspace["config"])]) == 0
    return workspace


def test_train_nn_prints_cv_accuracy(workspace, capsys):
    # 5 epochs leave each fold short of 100%, so the line tells the folds apart
    config = workspace["config"]
    config.write_text(config.read_text().replace("nn.folds=2", "nn.folds=3")
                      .replace("nn.epochs=40", "nn.epochs=5"))
    _prepared(workspace)
    rc = main(["train", "nn", "--config", str(config)])
    assert rc == 0
    out = capsys.readouterr().out
    cv_line = next(l for l in out.splitlines() if "CV mean overall accuracy" in l)
    cfg = build_config(argparse.Namespace(config=str(config)))
    train = load_rows(workspace["out"] / "train.csv")
    std_train = standardize_dataset(standardize_fit(train), train)
    accs = cross_validate(std_train, 3, cfg.hybrid.nn, cfg.fold_seed)
    assert cv_line == (f"3-fold CV mean overall accuracy: {np.mean(accs):.3f} "
                       f"(folds: {', '.join(f'{a:.3f}' for a in accs)})")
    assert np.mean(accs) >= 90.0  # separable synthetic corpus
    assert (workspace["out"] / "mlp.model").exists()
    assert (workspace["out"] / "stats.txt").exists()
    assert "training time" in out


def test_train_misuse_logs_one_collision_warning(tmp_path, capsys, caplog):
    """The misuse stage reports a shadowed signature once, through the
    log, and ``train misuse`` prints no second warning of its own."""
    rows = np.full((2, N_FEATURES), 1.0)  # smurf's centroid is normal's
    save_dataset(tmp_path / "train.csv", Dataset(rows, ["normal", "smurf"], [0, 1]),
                 "corpus.txt", dict.fromkeys(CoarseLabel, 1))
    with caplog.at_level("WARNING", logger="hybrid_ids.hybrid"):
        assert main(["train", "misuse", "--out", str(tmp_path)]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "signature collisions (shadowed centroids): smurf"
    ]
    assert "shadowed signatures" not in capsys.readouterr().err


def test_train_rf_reload_predicts_identically(workspace):
    _prepared(workspace)
    assert main(["train", "rf", "--config", str(workspace["config"])]) == 0
    from hybrid_ids.dataset import load_stats, standardize_apply

    model = load_forest(workspace["out"] / "forest.model")
    stats = load_stats(workspace["out"] / "stats.txt")
    test = load_rows(workspace["out"] / "test.csv")
    X = standardize_apply(stats, test.X)
    first = rf_predict_batch(model, X)
    again = rf_predict_batch(load_forest(workspace["out"] / "forest.model"), X)
    assert np.array_equal(first, again)
    assert model.stats_fingerprint == stats.fingerprint


def test_single_stage_trains_write_the_files_of_train_hybrid(workspace):
    _prepared(workspace)
    config, out = str(workspace["config"]), workspace["out"]
    assert main(["train", "hybrid", "--config", config]) == 0
    names = ("stats.txt", "mlp.model", "forest.model", "centroids.model")
    hybrid = {name: (out / name).read_bytes() for name in names}
    for which, name in (("nn", "mlp.model"), ("rf", "forest.model"), ("misuse", "centroids.model")):
        (out / "stats.txt").unlink()
        (out / name).unlink()
        assert main(["train", which, "--config", config]) == 0
        assert (out / "stats.txt").read_bytes() == hybrid["stats.txt"], which
        assert (out / name).read_bytes() == hybrid[name], which


def test_log_level_info_shows_the_prune_decision(workspace, capsys):
    _prepared(workspace)
    capsys.readouterr()
    config = str(workspace["config"])
    assert main(["train", "rf", "--config", config]) == 0
    default = capsys.readouterr()
    assert main(["train", "rf", "--config", config, "--log-level", "INFO"]) == 0
    shown = capsys.readouterr()
    assert default.err == ""
    assert re.fullmatch(r"INFO hybrid_ids\.random_forest: pruned forest to \d+/41 features "
                        r"\(accuracy [\d.]+ -> [\d.]+\)\n", shown.err)
    untimed = lambda out: [l for l in out.splitlines() if not l.startswith("training time")]
    assert untimed(shown.out) == untimed(default.out)
    # the level ends with the command
    assert main(["train", "rf", "--config", config]) == 0
    assert capsys.readouterr().err == ""


def test_train_hybrid_writes_loadable_bundle(workspace):
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    out = workspace["out"]
    for name in ("hybrid.manifest", "mlp.model", "forest.model", "centroids.model", "stats.txt"):
        assert (out / name).exists(), name
    from hybrid_ids.hybrid import load_hybrid

    model = load_hybrid(out / "hybrid.manifest")
    assert model.stats.fingerprint == model.mlp.stats_fingerprint


@pytest.mark.parametrize("which", ["rf", "hybrid"])
def test_train_refuses_a_column_too_large_to_standardize(workspace, capsys, which):
    # two finite src_bytes values pass prepare, but their column's sum overflows
    lines = list(workspace["lines"])
    for i in [i for i, line in enumerate(lines) if line.endswith("normal.")][:2]:
        fields = lines[i].split(",")
        fields[4] = "1e308"
        lines[i] = ",".join(fields)
    workspace["data"].write_text("\n".join(lines) + "\n")
    _prepared(workspace)
    assert load_rows(workspace["out"] / "train.csv").X[:, 4].tolist().count(1e308) == 2
    prepared = sorted(workspace["out"].iterdir())
    capsys.readouterr()
    assert main(["train", which, "--config", str(workspace["config"])]) == 1
    assert capsys.readouterr().err == (
        "error: column 'src_bytes' is too large to standardize: its mean or stddev overflows\n")
    assert sorted(workspace["out"].iterdir()) == prepared  # nothing written


def test_train_determinism_byte_identical_models(workspace):
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    names = ("mlp.model", "forest.model", "centroids.model", "stats.txt")
    first = {n: _sha(workspace["out"] / n) for n in names}
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    second = {n: _sha(workspace["out"] / n) for n in names}
    assert first == second


def test_evaluate_hybrid_routing_partition(workspace, capsys):
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    rc = main(["evaluate", "hybrid", "--config", str(workspace["config"])])
    assert rc == 0
    routing = (workspace["out"] / "routing_hybrid.txt").read_text()
    values = {
        line.split("=")[0]: int(line.split("=")[1])
        for line in routing.splitlines()
        if line.split("=")[0] in ("total", "routed", "trimmed", "confirmed")
    }
    assert values["routed"] == values["trimmed"] + values["confirmed"]
    for name in ("confusion_hybrid.csv", "metrics_hybrid.csv", "report_hybrid.txt"):
        assert (workspace["out"] / name).exists()
    out = capsys.readouterr().out
    assert "Overall accuracy" in out


def test_evaluate_misuse_emits_both_accuracy_lines(workspace, capsys):
    _prepared(workspace)
    assert main(["train", "misuse", "--config", str(workspace["config"])]) == 0
    rc = main(["evaluate", "misuse", "--config", str(workspace["config"])])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Type of Classification:" in out
    assert "5 Class" in out
    accuracy_line = next(l for l in out.splitlines() if l.startswith("Accuracy:"))
    five_class, fine_class = accuracy_line.split()[1:3]
    assert 0.0 <= float(five_class) <= 100.0
    assert 0.0 <= float(fine_class) <= 100.0


def test_evaluate_misuse_assigns_each_row_once(workspace, monkeypatch):
    """``evaluate misuse`` assigns each distinct row of its split once, in
    one call; the split repeats some of its rows."""
    _prepared(workspace)
    assert main(["train", "misuse", "--config", str(workspace["config"])]) == 0
    calls = []

    def counting(model, X):
        calls.append(len(X))
        return assign_batch(model, X)

    monkeypatch.setattr(misuse_mod, "assign_batch", counting)
    assert main(["evaluate", "misuse", "--config", str(workspace["config"])]) == 0
    distinct, index = load_dataset(workspace["out"] / "test.csv")
    assert calls == [len(distinct)] and len(distinct) < len(index)


def test_evaluate_detects_stats_mismatch(workspace, capsys):
    _prepared(workspace)
    assert main(["train", "nn", "--config", str(workspace["config"])]) == 0
    # refit stats on the test split and overwrite: fingerprints now disagree
    from hybrid_ids.dataset import save_stats, standardize_fit

    test = load_rows(workspace["out"] / "test.csv")
    save_stats(workspace["out"] / "stats.txt", standardize_fit(test))
    capsys.readouterr()
    rc = main(["evaluate", "nn", "--config", str(workspace["config"])])
    assert rc == 1
    # the message load_hybrid gives for the same mismatch
    assert capsys.readouterr().err.startswith("error: stats fingerprint mismatch: mlp model ")


def test_evaluate_rerun_byte_identical_reports(workspace):
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    assert main(["evaluate", "hybrid", "--config", str(workspace["config"])]) == 0
    names = ("confusion_hybrid.csv", "metrics_hybrid.csv",
             "report_hybrid.txt", "routing_hybrid.txt")
    first = {n: _sha(workspace["out"] / n) for n in names}
    assert main(["evaluate", "hybrid", "--config", str(workspace["config"])]) == 0
    second = {n: _sha(workspace["out"] / n) for n in names}
    assert first == second


@pytest.mark.parametrize("which", ["hybrid", "nn", "rf", "misuse"])
def test_evaluate_refuses_an_empty_test_split(workspace, tmp_path, capsys, which):
    """A split with its head lines and no rows fails, naming the file,
    before the earlier run's confusion, metrics, report and routing files
    are touched."""
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    assert main(["evaluate", which, "--config", str(workspace["config"])]) == 0
    empty = tmp_path / "empty.csv"
    head = (workspace["out"] / "test.csv").read_text().splitlines()[:3]
    empty.write_text("\n".join(head) + "\n\n")
    before = {path.name: path.read_bytes() for path in workspace["out"].iterdir()}
    capsys.readouterr()
    assert main(["evaluate", which, "--config", str(workspace["config"]),
                 "--test-file", str(empty)]) == 1
    assert capsys.readouterr() == ("", f"error: test split {empty} holds no records\n")
    assert {path.name: path.read_bytes() for path in workspace["out"].iterdir()} == before


_EVALUATE_FILES = ("confusion_hybrid.csv", "metrics_hybrid.csv", "report_hybrid.txt",
                   "routing_hybrid.txt")


@pytest.fixture(scope="module")
def trained_hybrid(tmp_path_factory):
    """The config and output directory of a hybrid model trained on the
    synthetic corpus (seed 11), and the lines of its test split."""
    root = tmp_path_factory.mktemp("trained")
    (root / "data.txt").write_text("\n".join(make_kdd_lines(DEFAULT_SYNTH_COUNTS, seed=7)) + "\n")
    config = root / "run.cfg"
    config.write_text(
        f"data={root / 'data.txt'}\nout={root / 'out'}\nseed=11\nsampling.normal=90\n"
        "sampling.dos=80\nsampling.probe=40\nsampling.r2l=30\nsampling.u2r=30\n"
        "nn.hidden1=16\nnn.hidden2=8\nnn.epochs=20\nnn.batch_size=16\nrf.trees=5\n"
    )
    for command in (["prepare"], ["train", "hybrid"]):
        assert main([*command, "--config", str(config)]) == 0
    return config, root / "out", (root / "out" / "test.csv").read_text().splitlines()


# another label for a row: a (fine, coarse) pair of the taxonomy
_RELABELS = (",normal,normal", ",smurf,dos", ",ipsweep,probe", ",guess_passwd,r2l")


@st.composite
def repeated_rows(draw, rows):
    """Rows drawn from ``rows`` with repeats; some under another label, some
    with a protocol column spelled ``1``/``0`` instead of ``1.0``/``0.0``."""
    picks = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=40))
    out = []
    for row in picks:
        variant = draw(st.sampled_from(["same", "same", "relabel", "respell"]))
        if variant == "relabel":
            row = row.rsplit(",", 2)[0] + draw(st.sampled_from(_RELABELS))
        elif variant == "respell":
            fields = row.split(",")
            fields[1] = fields[1].removesuffix(".0")
            row = ",".join(fields)
        out.append(row)
    return out


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_evaluate_hybrid_matches_scoring_each_row_alone(trained_hybrid, tmp_path_factory, data):
    """``evaluate hybrid`` scores each distinct row of its split once; its
    files are the ones that scoring the split's rows one at a time gives,
    each row read from its own text."""
    config, out, lines = trained_hybrid
    rows = data.draw(repeated_rows(lines[3:10] + lines[-5:]))
    work = tmp_path_factory.mktemp("evaluate")
    path = work / "split.csv"
    path.write_text("\n".join(lines[:3] + rows) + "\n")
    assert main(["evaluate", "hybrid", "--config", str(config), "--test-file", str(path)]) == 0
    written = {name: (out / name).read_bytes() for name in _EVALUATE_FILES}

    fields = [row.split(",") for row in rows]
    test = Dataset(np.array([[float(text) for text in f[:N_FEATURES]] for f in fields]),
                   [f[-2] for f in fields], [COARSE_NAMES.index(f[-1]) for f in fields])
    loaded = load_rows(path)
    assert loaded.X.tobytes() == test.X.tobytes()
    assert (loaded.fine_labels.tolist(), loaded.coarse.tolist()) == (
        test.fine_labels.tolist(), test.coarse.tolist())
    model = load_hybrid(out / "hybrid.manifest")
    preds, routing = [], RoutingStats()
    for i in range(len(test)):
        verdicts, stats = predict_dataset(model, test.subset([i]))
        preds.append(int(verdicts.coarse[0]))
        routing += stats
    matrix = confusion(np.array(preds), test.coarse)
    write_confusion_csv(work / "confusion_hybrid.csv", matrix, seed=11)
    write_metrics_csv(work / "metrics_hybrid.csv", matrix, seed=11)
    (work / "report_hybrid.txt").write_text(format_report(matrix, "Hybrid pipeline", seed=11) + "\n")
    (work / "routing_hybrid.txt").write_text("\n".join([
        version_line("routing"), "seed=11", f"total={routing.total}", f"routed={routing.routed}",
        f"trimmed={routing.trimmed}", f"confirmed={routing.confirmed}"]) + "\n")
    assert written == {name: (work / name).read_bytes() for name in _EVALUATE_FILES}


def test_evaluate_hybrid_logs_the_rows_it_scores(workspace, tmp_path, caplog):
    """One DEBUG line per ``predict_dataset`` call gives the distinct rows
    scored against the rows of the split."""
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    lines = (workspace["out"] / "test.csv").read_text().splitlines()
    tiled = tmp_path / "tiled.csv"
    tiled.write_text("\n".join(lines[:3] + lines[3:] * 4) + "\n")
    with caplog.at_level("DEBUG", logger="hybrid_ids.hybrid"):
        assert main(["evaluate", "hybrid", "--config", str(workspace["config"]),
                     "--test-file", str(tiled)]) == 0
    n = len(set(lines[3:]))
    assert [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"] == [
        f"scored {n} rows for {4 * (len(lines) - 3)} input rows"]


def test_evaluate_hybrid_peak_memory_stays_bounded(workspace, tmp_path):
    """``evaluate hybrid`` over a split of 1,200 distinct rows tiled 16x
    (19,200 rows, 3.6 MB) peaks at 8.34 MB of traced allocations, most of
    it the file's lines; the bound is 1.25 times that. Expanding the
    features to every row and keying the rows on their bytes, as
    ``predict_dataset`` did, peaked at 14.0 MB."""
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    lines = make_kdd_lines({"normal": 600, "neptune": 300, "ipsweep": 200, "guess_passwd": 100},
                           seed=9)
    codes = {"normal": 0, "neptune": 1, "ipsweep": 2, "guess_passwd": 3}
    fine = [line.rsplit(",", 1)[1].rstrip(".") for line in lines]
    distinct = Dataset(np.array([parse_kdd_line(line).x for line in lines]), fine,
                       [codes[f] for f in fine])
    path = tmp_path / "tiled.csv"
    save_dataset(path, distinct.subset(np.tile(np.arange(len(distinct)), 16)), "corpus.txt",
                 SAMPLING_TARGETS)
    tracemalloc.start()
    try:
        assert main(["evaluate", "hybrid", "--config", str(workspace["config"]),
                     "--test-file", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10.4e6


def test_predict_stream(workspace, tmp_path, capsys):
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    normal_line = next(l for l in workspace["lines"] if l.endswith("normal."))
    unlabeled = normal_line.rsplit(",", 1)[0]
    inputs = tmp_path / "stream.txt"
    inputs.write_text(
        "\n".join([normal_line, "bad,line", unlabeled]) + "\n"
    )
    rc = main(["predict", "--config", str(workspace["config"]),
               "--input", str(inputs)])
    assert rc == 0
    captured = capsys.readouterr()
    rows = [l for l in captured.out.splitlines() if "," in l]
    assert len(rows) == 2  # two valid records
    assert rows[0].startswith("normal,-,false")
    rejects = (workspace["out"] / "predictions.rejects.txt").read_text()
    assert "line 2" in rejects and "expected 42 fields" in rejects
    predictions = (workspace["out"] / "predictions.csv").read_text().splitlines()
    assert len(predictions) == 2 + 2  # version line + header + 2 rows


def test_predict_bounds_a_huge_finite_field(workspace, tmp_path, capsys):
    """A finite field so large that its squared standardized value would
    overflow is clipped, so no numpy warning fires (tier-1 makes one an
    error), the neural net votes on finite logits, and every centroid
    distance ties, naming the smallest fine label."""
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    normal_line = next(l for l in workspace["lines"] if l.endswith("normal."))
    fields = normal_line.rsplit(",", 1)[0].split(",")
    huge = [",".join(fields[:column] + [value] + fields[column + 1:])
            for column, value in ((4, "1e300"), (24, "1e308"))]  # src_bytes, serror_rate
    inputs = tmp_path / "stream.txt"
    inputs.write_text("\n".join(huge) + "\n")
    capsys.readouterr()
    assert main(["predict", "--config", str(workspace["config"]), "--input", str(inputs)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == ["u2r,buffer_overflow,true,u2r,normal,u2r",
                                "u2r,buffer_overflow,true,dos,normal,u2r"]
    assert min(load_hybrid(workspace["out"] / "hybrid.manifest").centroids.fine_labels) == (
        "buffer_overflow")
    assert err == "records=2 routed=2 trimmed=0 confirmed=2\n"


def test_predict_undecodable_byte_rejects_only_its_line(workspace, tmp_path):
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    stream = [l.encode() for l in workspace["lines"][::7]]
    inputs = tmp_path / "stream.txt"
    inputs.write_bytes(b"\n".join(stream) + b"\n")
    assert main(["predict", "--config", str(workspace["config"]), "--input", str(inputs)]) == 0
    clean = (workspace["out"] / "predictions.csv").read_bytes().splitlines()

    fields = stream[4].split(b",")
    fields[5] = b"\xff" + fields[5]
    inputs.write_bytes(b"\n".join(stream[:4] + [b",".join(fields)] + stream[5:]) + b"\n")
    assert main(["predict", "--config", str(workspace["config"]), "--input", str(inputs)]) == 0
    # the version line and the header, then one row per accepted line
    rows = (workspace["out"] / "predictions.csv").read_bytes().splitlines()
    assert rows == clean[:6] + clean[7:]
    assert (workspace["out"] / "predictions.rejects.txt").read_text() == (
        f"line 5, column 'dst_bytes': unparseable numeric value '\\xff{fields[5][1:].decode()}'\n")


def test_predict_chunks_match_predict_dataset(workspace, tmp_path, capsys, monkeypatch):
    """``predict`` scores each parse block with one ``predict_dataset`` call
    and writes that block's rows before it parses the next. Whatever the
    sizes of the first block and of the rest, and also where the first
    block holds only rejected lines, its rows equal one ``predict_dataset``
    call over all accepted lines, and each rejected line keeps its own
    number."""
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    by_label: dict[str, list[str]] = {}
    for line in workspace["lines"]:
        by_label.setdefault(line.rsplit(",", 1)[1], []).append(line)
    good = [lines[k] for lines in by_label.values() for k in (0, 1)][:10]
    good = [l if i % 2 else l.rsplit(",", 1)[0] for i, l in enumerate(good)]  # some unlabeled
    nan_line = good[0].split(",")
    nan_line[4] = "nan"
    mixed = good[:2] + ["bad,line"] + good[2:5] + [""] + good[5:8] + [",".join(nan_line)] + good[8:]

    X = np.array([parse_kdd_line(l, labeled=l.count(",") == 41).x for l in good])
    preds, stats = predict_dataset(load_hybrid(workspace["out"] / "hybrid.manifest"),
                                   Dataset(X, [""] * len(X), [0] * len(X)))
    expected = [
        f"{p.coarse},{'-' if p.fine is None else p.fine},{str(p.routed).lower()},"
        f"{p.nn_vote},{p.rf_vote},{'-' if p.misuse_vote is None else p.misuse_vote}"
        for p in preds
    ]
    assert 0 < stats.routed < stats.total

    for first_lines, block_lines in ((1, 1), (2, 5), (5, 2),
                                     (dataset_mod.FIRST_BLOCK_LINES, dataset_mod.BLOCK_LINES)):
        # the first block holds only malformed lines
        stream = ["0,tcp,http,SF,1"] * first_lines + mixed
        inputs = tmp_path / "stream.txt"
        inputs.write_text("\n".join(stream) + "\n")
        calls, printed, scored = [], [], []

        def parse_spy(block, labeled=True):
            # the rows of every block scored so far are out
            printed.extend(capsys.readouterr().out.splitlines())
            assert len(printed) == sum(scored)
            calls.append("parse")
            return dataset_mod.parse_kdd_block(block, labeled)

        def predict_spy(model, ds, index=None):
            calls.append("predict")
            scored.append(len(index))
            return predict_dataset(model, ds, index)

        monkeypatch.setattr(dataset_mod, "FIRST_BLOCK_LINES", first_lines)
        monkeypatch.setattr(dataset_mod, "BLOCK_LINES", block_lines)
        monkeypatch.setattr(cli, "parse_kdd_block", parse_spy)
        monkeypatch.setattr(cli, "predict_dataset", predict_spy)
        capsys.readouterr()
        assert main(["predict", "--config", str(workspace["config"]), "--input", str(inputs)]) == 0
        captured = capsys.readouterr()
        printed.extend(captured.out.splitlines())

        # one line is blank, and the first block holds the malformed lines
        n_blocks = 1 + -(-(len(stream) - 1 - first_lines) // block_lines)
        assert calls == ["parse", "predict"] * n_blocks
        assert printed == expected
        csv_lines = (workspace["out"] / "predictions.csv").read_text().splitlines()
        assert csv_lines[:2] == ["# hybrid-ids predictions v1",
                                 "coarse,fine,routed,nn_vote,rf_vote,misuse_vote"]
        assert csv_lines[2:] == expected
        assert stats.describe() in captured.err
        rejects = (workspace["out"] / "predictions.rejects.txt").read_text().splitlines()
        assert [r.split(":")[0] for r in rejects] == [
            *(f"line {n}" for n in range(1, first_lines + 1)),
            f"line {first_lines + 3}", f"line {first_lines + 11}, column 'src_bytes'"]


def test_predict_writes_the_first_verdicts_before_parsing_past_the_first_block(
        workspace, tmp_path, capsys, monkeypatch):
    """``predict`` writes and flushes the verdicts of the first
    ``FIRST_BLOCK_LINES`` non-blank lines before it parses a later line, so
    a reader at the other end of a pipe gets them then. Where all those
    lines are malformed, its first verdict comes with the next block.
    Either way its stdout, stderr, ``predictions.csv`` and rejects are the
    ones that blocks of ``BLOCK_LINES`` from the first line on give."""
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    first = dataset_mod.FIRST_BLOCK_LINES
    good = [l if i % 2 else l.rsplit(",", 1)[0] for i, l in enumerate(workspace["lines"])]
    good = (good * 4)[:first + dataset_mod.BLOCK_LINES + 20]  # three blocks
    head = ["0,tcp,http,SF,1", "", good[0].replace(",tcp,", ",sctp,", 1)]
    inputs = tmp_path / "stream.txt"

    class Stdout(io.StringIO):
        flushed = 0  # the lines written by the last flush

        def flush(self):
            self.flushed = self.getvalue().count("\n")

    def predict(first_lines):
        """Per parse call, its last line number and the rows flushed before
        it; then the outputs."""
        parsed, stdout = [], Stdout()

        def parse_spy(block, labeled=True):
            parsed.append((block[-1][0], stdout.flushed))
            return dataset_mod.parse_kdd_block(block, labeled)

        monkeypatch.setattr(dataset_mod, "FIRST_BLOCK_LINES", first_lines)
        monkeypatch.setattr(cli, "parse_kdd_block", parse_spy)
        monkeypatch.setattr(sys, "stdout", stdout)
        capsys.readouterr()
        assert main(["predict", "--config", str(workspace["config"]),
                     "--input", str(inputs)]) == 0
        files = [(workspace["out"] / f).read_bytes()
                 for f in ("predictions.csv", "predictions.rejects.txt")]
        return parsed, (stdout.getvalue(), capsys.readouterr().err, *files)

    blocks = dataset_mod.BLOCK_LINES
    # (stream, rows flushed before the second block is parsed); blank lines do
    # not count towards the first block
    for stream, early in ((["", *good[:5], "bad,line", "", *good[5:]], first - 1),
                          ([head[k % 3] for k in range(first * 3 // 2)] + good, 0)):
        inputs.write_text("\n".join(stream) + "\n")
        parsed, outputs = predict(first)
        assert parsed[0][0] == [n for n, line in enumerate(stream, start=1) if line][first - 1]
        assert [rows for _, rows in parsed] == [0, early, early + blocks]
        assert predict(blocks)[1] == outputs


def test_predict_reads_gzip_as_plain(workspace, tmp_path, capsys):
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    payload = ("\n".join(workspace["lines"][::5] + ["bad,line", ""]) + "\n").encode()
    outputs = []
    for name in ("stream.txt", "stream.txt.gz"):
        inputs = tmp_path / name
        inputs.write_bytes(gzip.compress(payload, mtime=0) if name.endswith(".gz") else payload)
        capsys.readouterr()
        assert main(["predict", "--config", str(workspace["config"]), "--input", str(inputs)]) == 0
        outputs.append((capsys.readouterr(),
                        *((workspace["out"] / f).read_bytes()
                          for f in ("predictions.csv", "predictions.rejects.txt"))))
    assert outputs[0] == outputs[1]
    assert b"line " in outputs[0][2] and len(outputs[0][1].splitlines()) > 2


def test_predict_calls_the_line_parser_once_per_rejected_line(workspace, tmp_path, monkeypatch):
    """The traced benchmark counts rejected lines as ``parse_kdd_line``
    calls that raise: each rejected line must make exactly one, and no
    accepted line any, also where lines repeat and where a number only
    ``float()`` reads sends a whole block through the line parser."""
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    good = [l if i % 3 else l.rsplit(",", 1)[0] for i, l in enumerate(workspace["lines"])]
    stream = (good * 5)[:1500]
    odd = stream[1200].split(",")
    odd[5] = "1_000"  # loadtxt refuses the last block
    stream[1200] = ",".join(odd)
    faults = {3: "0,tcp,http,SF,1", 40: good[0].replace(",tcp,", ",sctp,"),
              41: good[1].replace(",0,", ",-1,", 1), 900: "0,tcp,http,SF,1",
              1100: good[2].replace(",0,", ",nan,", 1), 1400: good[1].replace(",0,", ",-1,", 1)}
    for line_no, line in faults.items():
        stream[line_no - 1] = line
    inputs = tmp_path / "stream.txt"
    inputs.write_text("\n".join(stream) + "\n")

    raised: list[int] = []

    def spy(line, line_no=1, labeled=True):
        try:
            return parse_kdd_line(line, line_no, labeled)
        except ParseError:
            raised.append(line_no)
            raise

    monkeypatch.setattr(dataset_mod, "parse_kdd_line", spy)
    assert main(["predict", "--config", str(workspace["config"]), "--input", str(inputs)]) == 0
    assert raised == sorted(faults)
    rejects = (workspace["out"] / "predictions.rejects.txt").read_text().splitlines()
    assert [int(r.split(":")[0].split(",")[0].split()[1]) for r in rejects] == sorted(faults)


def test_verdict_rows_cover_every_vote_pair_and_entry():
    centroids = CentroidModel(["neptune", "normal", "satan"], np.array([1, 0, 2]),
                              np.repeat(np.arange(3.0)[:, None], N_FEATURES, axis=1),
                              np.ones(3, dtype=np.int64))
    pair = np.arange(25)
    entry = pair % 4 - 1
    coarse = np.array([1, 0, 2, 0])[entry]
    verdicts = Verdicts(pair // 5, pair % 5, entry, entry >= 0, coarse, centroids)
    rows = cli._verdict_rows(verdicts).splitlines()
    assert rows[0] == "normal,-,false,normal,normal,-"
    assert rows[6] == "normal,normal,true,dos,dos,normal"
    assert rows[7] == "probe,satan,true,dos,probe,probe"
    assert rows[21] == "dos,neptune,true,u2r,dos,dos"
    assert rows == [
        f"{p.coarse},{'-' if p.fine is None else p.fine},{str(p.routed).lower()},"
        f"{p.nn_vote},{p.rf_vote},{'-' if p.misuse_vote is None else p.misuse_vote}"
        for p in verdicts
    ]


def test_cli_seed_override(workspace):
    _prepared(workspace)
    cfg = build_config(type("A", (), {"config": str(workspace["config"]),
                                      "data": None, "out": None, "seed": 7})())
    assert cfg.seed == 7
    assert cfg.hybrid.nn.seed == 9  # documented fixed offset


def test_evaluate_on_own_training_data_smoke(workspace):
    _prepared(workspace)
    assert main(["train", "misuse", "--config", str(workspace["config"])]) == 0
    rc = main(["evaluate", "misuse", "--config", str(workspace["config"]),
               "--test-file", str(workspace["out"] / "train.csv")])
    assert rc == 0


def test_predict_empty_input(workspace, tmp_path, capsys):
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    empty = tmp_path / "empty_in.txt"
    empty.write_text("")
    rc = main(["predict", "--config", str(workspace["config"]),
               "--input", str(empty)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "records=0 routed=0 trimmed=0 confirmed=0" in err
    rows = (workspace["out"] / "predictions.csv").read_text().splitlines()
    assert len(rows) == 2  # version line + header only


# ---------------------------------------------------------------------------
# One CPU or two: where a job may run, ``train hybrid`` trains the neural
# net beside the forest and ``train nn`` half of its folds beside the rest,
# and every output byte, stderr included, is the one-CPU run's.

def _on_cpus(monkeypatch, cores: int) -> None:
    monkeypatch.setattr(jobs, "_cpus", (lambda: [0]) if cores == 1 else two_or_more_cpus)


def _train_outputs(workspace, capsys, monkeypatch, cores, which, *flags) -> tuple:
    """Exit code, stdout with the training time masked, stderr, and the
    bytes of every file in the output directory, of one ``train`` run."""
    _on_cpus(monkeypatch, cores)
    capsys.readouterr()
    rc = main(["train", which, "--config", str(workspace["config"]), *flags])
    out, err = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in sorted(workspace["out"].iterdir())}
    assert jobs._running == []
    return rc, re.sub(r"training time: \S+", "training time: -", out), err, files


@pytest.mark.parametrize("which", ["hybrid", "nn"])
def test_forked_and_one_cpu_training_print_and_write_the_same(workspace, capsys, monkeypatch, which):
    _prepared(workspace)
    one, two = (_train_outputs(workspace, capsys, monkeypatch, cores, which, "--log-level", "INFO")
                for cores in (1, 2))
    assert one == two
    assert one[0] == 0
    assert one[2].count("INFO hybrid_ids.neural_net: epoch ") == 40 * (1 if which == "hybrid" else 3)


@pytest.mark.parametrize("level", [None, "INFO"])
def test_a_diverging_neural_net_fails_as_on_one_cpu(workspace, capsys, monkeypatch, level):
    """The job's warnings and records come back in their order, then its
    error; the forest's records never show, as the forest never trains on
    one CPU."""
    config = workspace["config"]
    config.write_text(config.read_text().replace("nn.learning_rate=0.05", "nn.learning_rate=1e200"))
    _prepared(workspace)
    flags = ["--log-level", level] if level else []
    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = lambda message, category, filename, lineno, file=None, line=None: \
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))
        one, two = (_train_outputs(workspace, capsys, monkeypatch, cores, "hybrid", *flags)
                    for cores in (1, 2))
    assert one == two
    rc, _, err, _ = one
    assert rc == 1
    assert "RuntimeWarning: overflow encountered" in err
    assert err.endswith("error: training diverged: non-finite loss at epoch 0, batch starting 16; "
                        "lower the learning rate\n")
    assert "random_forest" not in err


def test_a_failing_forest_stage_still_reaps_the_neural_net_job(workspace, capsys, monkeypatch):
    """The forest fails in this process while the job trains the neural
    net: the job is reaped, and stderr is the one-CPU run's, the neural
    net's records and then the forest's error."""
    _prepared(workspace)

    def fail(*args, **kwargs):
        raise MemoryError("no room for the forest")

    monkeypatch.setattr(rf_mod, "train_forest", fail)
    one, two = (_train_outputs(workspace, capsys, monkeypatch, cores, "hybrid", "--log-level", "INFO")
                for cores in (1, 2))
    assert one == two
    rc, _, err, _ = one
    *epochs, last = err.splitlines()
    assert rc == 1
    assert [line.split(":")[1] for line in epochs] == [f" epoch {i}" for i in range(40)]
    assert last == "error: no room for the forest"


def test_a_killed_neural_net_job_names_the_signal(workspace, capsys, monkeypatch):
    _prepared(workspace)
    parent, real = os.getpid(), nn_mod.train

    def train(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(nn_mod, "train", train)
    rc, _, err, _ = _train_outputs(workspace, capsys, monkeypatch, 2, "hybrid")
    assert (rc, err) == (1, "error: the process training the neural net was killed by SIGKILL\n")
