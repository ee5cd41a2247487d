"""CLI: prepare/train/evaluate/predict/report flows on a synthetic corpus,
config parsing, determinism of produced files."""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hybrid_ids import cli
from hybrid_ids.cli import build_config, main, parse_config_file
from hybrid_ids import centroids as misuse_mod
from hybrid_ids.centroids import CentroidEntry, assign_batch
from hybrid_ids.dataset import (
    N_FEATURES,
    CoarseLabel,
    Dataset,
    load_dataset,
    parse_kdd_line,
)
from hybrid_ids.evaluation import confusion, write_confusion_csv
from hybrid_ids.hybrid import Verdicts, load_hybrid, predict_dataset
from hybrid_ids.random_forest import load_forest, predict_batch as rf_predict_batch

from conftest import DEFAULT_SYNTH_COUNTS, make_kdd_lines


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
                "misuse.clusters_per_label=1",
            ]
        )
        + "\n"
    )
    return {"data": data, "out": out, "config": config,
            "distinct": distinct, "targets": targets, "lines": lines}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_config_parsing_and_aliases(workspace):
    entries = parse_config_file(workspace["config"])
    assert entries["seed"] == "1999"
    assert "sampling.rtl" in entries


def test_config_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("sampling.dos=5\nturbo=yes\n")
    with pytest.raises(ValueError, match="unknown config key 'turbo'"):
        parse_config_file(bad)


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
    train = load_dataset(workspace["out"] / "train.csv")
    test = load_dataset(workspace["out"] / "test.csv")
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


def test_prepare_empty_input_errors(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    rc = main(["prepare", "--data", str(empty), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "no records" in capsys.readouterr().err
    assert not (tmp_path / "o" / "train.csv").exists()


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
    _prepared(workspace)
    rc = main(["train", "nn", "--config", str(workspace["config"])])
    assert rc == 0
    out = capsys.readouterr().out
    cv_line = next(l for l in out.splitlines() if "CV mean overall accuracy" in l)
    value = float(cv_line.split(":")[1].split("(")[0])
    assert value >= 90.0  # separable synthetic corpus
    assert (workspace["out"] / "mlp.model").exists()
    assert (workspace["out"] / "stats.txt").exists()
    assert "training time" in out


def test_train_rf_reload_predicts_identically(workspace):
    _prepared(workspace)
    assert main(["train", "rf", "--config", str(workspace["config"])]) == 0
    from hybrid_ids.dataset import load_stats, standardize_apply

    model = load_forest(workspace["out"] / "forest.model")
    stats = load_stats(workspace["out"] / "stats.txt")
    test = load_dataset(workspace["out"] / "test.csv")
    X = standardize_apply(stats, test.X)
    first = rf_predict_batch(model, X)
    again = rf_predict_batch(load_forest(workspace["out"] / "forest.model"), X)
    assert np.array_equal(first, again)
    assert model.stats_fingerprint == stats.fingerprint


def test_train_hybrid_writes_loadable_bundle(workspace):
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    out = workspace["out"]
    for name in ("hybrid.manifest", "mlp.model", "forest.model",
                 "centroids.model", "stats.txt", "taxonomy.txt"):
        assert (out / name).exists(), name
    from hybrid_ids.hybrid import load_hybrid

    model = load_hybrid(out / "hybrid.manifest")
    assert model.stats.fingerprint == model.mlp.stats_fingerprint


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
    _prepared(workspace)
    assert main(["train", "misuse", "--config", str(workspace["config"])]) == 0
    calls = []

    def counting(model, X):
        calls.append(len(X))
        return assign_batch(model, X)

    monkeypatch.setattr(misuse_mod, "assign_batch", counting)
    assert main(["evaluate", "misuse", "--config", str(workspace["config"])]) == 0
    assert calls == [len(load_dataset(workspace["out"] / "test.csv"))]


def test_evaluate_detects_stats_mismatch(workspace):
    _prepared(workspace)
    assert main(["train", "nn", "--config", str(workspace["config"])]) == 0
    # refit stats on the test split and overwrite: fingerprints now disagree
    from hybrid_ids.dataset import save_stats, standardize_fit

    test = load_dataset(workspace["out"] / "test.csv")
    save_stats(workspace["out"] / "stats.txt", standardize_fit(test))
    rc = main(["evaluate", "nn", "--config", str(workspace["config"])])
    assert rc == 1


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


def test_predict_chunks_match_predict_dataset(workspace, tmp_path, capsys, monkeypatch):
    _prepared(workspace)
    assert main(["train", "hybrid", "--config", str(workspace["config"])]) == 0
    by_label: dict[str, list[str]] = {}
    for line in workspace["lines"]:
        by_label.setdefault(line.rsplit(",", 1)[1], []).append(line)
    good = [lines[k] for lines in by_label.values() for k in (0, 1)][:10]
    good = [l if i % 2 else l.rsplit(",", 1)[0] for i, l in enumerate(good)]  # some unlabeled
    nan_line = good[0].split(",")
    nan_line[4] = "nan"
    stream = good[:2] + ["bad,line"] + good[2:5] + [""] + good[5:8] + [",".join(nan_line)] + good[8:]
    inputs = tmp_path / "stream.txt"
    inputs.write_text("\n".join(stream) + "\n")

    chunk_sizes = []

    def spy(model, ds):
        chunk_sizes.append(len(ds))
        return predict_dataset(model, ds)

    monkeypatch.setattr(cli, "_PREDICT_CHUNK", 3)
    monkeypatch.setattr(cli, "predict_dataset", spy)
    capsys.readouterr()
    assert main(["predict", "--config", str(workspace["config"]), "--input", str(inputs)]) == 0
    assert chunk_sizes == [3, 3, 3, 1]

    X = np.array([parse_kdd_line(l, labeled=l.count(",") == 41).x for l in good])
    preds, stats = predict_dataset(load_hybrid(workspace["out"] / "hybrid.manifest"),
                                   Dataset(X, [""] * len(X), [0] * len(X)))
    expected = [
        f"{p.coarse},{'-' if p.fine is None else p.fine},{str(p.routed).lower()},"
        f"{p.nn_vote},{p.rf_vote},{'-' if p.misuse_vote is None else p.misuse_vote}"
        for p in preds
    ]
    captured = capsys.readouterr()
    assert captured.out.splitlines() == expected
    csv_lines = (workspace["out"] / "predictions.csv").read_text().splitlines()
    assert csv_lines[:2] == ["# hybrid-ids predictions v1", "coarse,fine,routed,nn_vote,rf_vote,misuse_vote"]
    assert csv_lines[2:] == expected
    assert 0 < stats.routed < stats.total
    assert stats.describe() in captured.err
    rejects = (workspace["out"] / "predictions.rejects.txt").read_text().splitlines()
    assert [r.split(":")[0] for r in rejects] == ["line 3", "line 11, column 'src_bytes'"]


def test_verdict_rows_cover_every_vote_pair_and_entry():
    entries = [
        CentroidEntry("neptune", CoarseLabel.DOS, np.zeros(N_FEATURES), 1),
        CentroidEntry("normal", CoarseLabel.NORMAL, np.ones(N_FEATURES), 1),
        CentroidEntry("satan", CoarseLabel.PROBE, np.full(N_FEATURES, 2.0), 1),
    ]
    pair = np.arange(25)
    entry = pair % 4 - 1
    coarse = np.array([1, 0, 2, 0])[entry]
    verdicts = Verdicts(pair // 5, pair % 5, entry, entry >= 0, coarse, entries)
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


def test_report_renders_saved_tables(workspace, capsys):
    _prepared(workspace)
    assert main(["train", "misuse", "--config", str(workspace["config"])]) == 0
    assert main(["evaluate", "misuse", "--config", str(workspace["config"])]) == 0
    capsys.readouterr()
    rc = main(["report", "--config", str(workspace["config"])])
    assert rc == 0
    out = capsys.readouterr().out
    assert "misuse" in out
    assert "Precision:" in out


def test_report_on_truncated_confusion_csv_errors(tmp_path, capsys):
    path = tmp_path / "confusion_nn.csv"
    write_confusion_csv(path, confusion([0, 1, 2, 3, 4], [0, 1, 2, 3, 4]))
    path.write_text("".join(line + "\n" for line in path.read_text().splitlines()[:4]))
    rc = main(["report", "nn", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}, line 5: unexpected end of file, expected the row of 'probe'\n"


def test_report_without_artifacts_errors(tmp_path, capsys):
    rc = main(["report", "--out", str(tmp_path)])
    assert rc == 1
    assert "no confusion matrices" in capsys.readouterr().err


def test_cli_seed_override(workspace):
    _prepared(workspace)
    cfg = build_config(type("A", (), {"config": str(workspace["config"]),
                                      "data": None, "out": None, "seed": 7})())
    assert cfg.seed == 7
    assert cfg.nn_seed == 9  # documented fixed offset


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
