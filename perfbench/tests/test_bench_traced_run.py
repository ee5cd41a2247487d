"""The traced run against the real package: every target is found, the
stage times partition the command, and BENCHMARK.json lists exactly the
metrics the benchmark reports."""

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import pytest

import corpus
import layers
import run
from hybrid_ids import cli
from spans import END, START, Tracer, installed

TINY = dataclasses.replace(
    corpus.HARD,
    distinct={label: 12 for label in corpus.HARD.distinct},
    copies={label: 1.5 for label in corpus.HARD.copies},
)
CONFIG = """data=corpus.txt
out=model
rf.trees=2
nn.epochs=2
sampling.normal=40
sampling.dos=40
sampling.probe=20
sampling.r2l=20
sampling.u2r=10
"""


def _traced(argv):
    tracer = Tracer()
    with installed(tracer, layers.TARGETS) as missing, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    assert missing == []
    return tracer.spans, layers.command_metrics(tracer.spans)


def test_traced_commands_partition_into_stages(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("corpus.txt").write_text(corpus.training_corpus(4, TINY))
    Path("run.cfg").write_text(CONFIG)
    traffic = corpus.stream_traffic(4, 60)
    Path("traffic.txt").write_text(traffic.text)

    runs = {
        "prepare": _traced(["prepare", "--config", "run.cfg"]),
        "train": _traced(["train", "hybrid", "--config", "run.cfg"]),
        "predict": _traced(["predict", "--config", "run.cfg", "--input", "traffic.txt"]),
    }
    for spans, metrics in runs.values():
        root = sum(s[END] - s[START] for s in spans if s[3] == -1)
        assert sum(metrics[s] for s in layers.STAGE_METRICS) == pytest.approx(root)
        assert set(metrics) | {"trace.overhead_s"} == set(layers.UNITS)

    prepare, train, predict = (m for _, m in runs.values())
    assert prepare["dataset.parse_s"] > 0 and 0 < prepare["dataset.dup_share"] < 1
    assert train["random_forest.train_s"] > 0 and train["random_forest.prune_retrain_s"] > 0
    assert train["random_forest.predict_calls"] == 0  # the prune step's predictions are absorbed
    assert train["hybrid.save_s"] > 0 and train["persist.write_bytes"] > 0
    assert predict["dataset.rejected"] == len(traffic.bad)
    assert predict["random_forest.predict_calls"] == predict["random_forest.predict_rows"] == len(traffic.truth)
    routed = predict["hybrid.trimmed"] + predict["hybrid.confirmed"]
    assert predict["centroids.assign_rows"] == routed
    assert predict["hybrid.routed_share"] == pytest.approx(routed / len(traffic.truth))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
