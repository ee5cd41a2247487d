"""Span bookkeeping: self times, stage attribution and function wrapping."""

import sys
import types

import pytest

import layers
import spans
from spans import Target, Tracer, installed, outermost, self_times, stage_of_spans


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


# root [0, 10] -> a [1, 4] -> b [2, 3]
#              -> c [5, 9] -> d [6, 8]
TREE = [
    _span("root", 0.0, 10.0, -1),
    _span("a", 1.0, 4.0, 0),
    _span("b", 2.0, 3.0, 1),
    _span("c", 5.0, 9.0, 0),
    _span("d", 6.0, 8.0, 3),
]


def test_self_times_subtract_direct_children():
    assert self_times(TREE) == [3.0, 2.0, 1.0, 2.0, 2.0]
    assert sum(self_times(TREE)) == TREE[0][2] - TREE[0][1]


def test_absorbing_span_takes_its_descendants_stage():
    stage = {"root": "R", "a": "A", "b": "B", "c": "C", "d": "D"}
    assert stage_of_spans(TREE, stage, absorbing={"c"}, never_absorbed=set()) == [
        "R", "A", "B", "C", "C"]
    assert stage_of_spans(TREE, stage, absorbing={"c"}, never_absorbed={"d"}) == [
        "R", "A", "B", "C", "D"]


def test_outermost_counts_one_call_per_entry_into_a_stage():
    stages = ["R", "P", "P", "P", "Q"]
    assert outermost(TREE, stages, "P") == [1, 3]
    assert outermost(TREE, stages, "Q") == [4]


def test_command_metrics_partition_the_root_span():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("random_forest.prune_and_retrain", 1.0, 6.0, 0),
        _span("random_forest.train_forest", 2.0, 4.0, 1),
        _span("persist.atomic_write", 4.5, 5.0, 1),
        _span("random_forest.predict_batch", 7.0, 8.0, 0),
    ]
    tree[4][4] = {"rows": 50}
    m = layers.command_metrics(tree)
    assert m["random_forest.prune_retrain_s"] == pytest.approx(4.5)
    assert m["random_forest.train_s"] == 0.0  # absorbed by the prune step
    assert m["persist.write_s"] == pytest.approx(0.5)  # never absorbed
    assert m["random_forest.predict_calls"] == 1
    assert m["random_forest.predict_rows"] == 50
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert sum(m[s] for s in layers.STAGE_METRICS) == pytest.approx(10.0)


def test_installed_wraps_every_binding_and_restores(monkeypatch):
    lib = types.ModuleType("fakepkg.lib")

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x + 1

    def outer(x):
        return lib.leaf(x) * 2

    lib.leaf, lib.outer = leaf, outer
    user = types.ModuleType("fakepkg.user")
    user.leaf = leaf  # bound by name, as `from .lib import leaf` does
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.lib", lib)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    targets = [Target("fakepkg.lib", "leaf", "leaf", lambda a, r: {"rows": 1}),
               Target("fakepkg.lib", "outer", "outer"),
               Target("fakepkg.lib", "gone", "gone")]
    tracer = Tracer()
    with installed(tracer, targets, package="fakepkg") as missing:
        assert lib.outer(1) == 4
        assert user.leaf(2) == 3
        with pytest.raises(ValueError):
            user.leaf(-1)
    assert missing == ["fakepkg.lib.gone"]
    assert lib.leaf is leaf and user.leaf is leaf and lib.outer is outer
    names = [s[spans.NAME] for s in tracer.spans]
    parents = [s[spans.PARENT] for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf", "leaf"]
    assert parents == [-1, 0, -1, -1]
    assert tracer.spans[1][spans.ATTRS] == {"rows": 1}
    assert tracer.spans[3][spans.ATTRS] == {"error": "ValueError"}
