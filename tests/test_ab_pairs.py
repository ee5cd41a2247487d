"""``tools/ab_pairs.py``'s summary of paired benchmark runs, on fixed numbers."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import ab_pairs  # noqa: E402


def test_summary_of_a_higher_is_better_metric():
    parent = [480.0, 490.0, 470.0, 500.0, 485.0]
    change = [630.0, 620.0, 640.0, 480.0, 635.0]
    s = ab_pairs.summarize(parent, change, "higher")
    assert (s.parent_q1, s.parent_median, s.parent_q3) == (480.0, 485.0, 490.0)
    assert (s.change_q1, s.change_median, s.change_q3) == (620.0, 630.0, 635.0)
    assert s.parent_iqr == 10.0
    assert (s.wins, s.pairs, s.clear) == (4, 5, True)
    assert ab_pairs.summary_line("rec_per_s", s) == (
        "rec_per_s       parent 485 [480, 490]  change 630 [620, 635]  parent IQR 10  "
        "wins 4/5  median +29.9%  (beyond the IQR)")


def test_summary_of_a_lower_is_better_metric_counts_ties_as_no_win():
    parent = [71.0, 71.5, 72.0, 70.0]
    change = [64.0, 71.5, 76.5, 63.5]
    s = ab_pairs.summarize(parent, change, "lower")
    assert (s.parent_q1, s.parent_median, s.parent_q3) == (70.75, 71.25, 71.625)
    assert s.change_median == 67.75
    assert (s.wins, s.clear) == (2, True)
    s = ab_pairs.summarize([1.0, 2.0, 3.0], [1.5, 2.5, 2.0], "lower")
    assert (s.parent_iqr, s.change_median, s.wins, s.clear) == (1.0, 2.0, 1, False)


def test_summary_of_one_pair_and_bad_input():
    s = ab_pairs.summarize([2.0], [1.0], "lower")
    assert (s.parent_q1, s.parent_q3, s.parent_iqr, s.wins, s.clear) == (2.0, 2.0, 0.0, 1, True)
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0], [1.0, 2.0], "higher")
    with pytest.raises(ValueError):
        ab_pairs.summarize([], [], "higher")


def test_several_workloads_give_one_summary_block_each(tmp_path, monkeypatch, capsys):
    """Each workload's pairs alternate the sides and end in its own block;
    a run without a result line leaves its pair out of that block alone."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "rec_per_s", "better": "higher"}, {"name": "setup_s", "better": "lower"}]}))
    rates = {("train", parent): [100.0, 110.0, 90.0], ("train", change): [120.0, 130.0, 80.0],
             ("detect_batch", parent): [50.0, 60.0, 70.0],
             ("detect_batch", change): [55.0, 65.0, None]}
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((workload, checkout.name, seed, seconds))
        rate = rates[workload, checkout][seed - 1]
        if rate is None:
            return {"correct": False, "failed": None, "metrics": {}}
        return {"correct": True, "failed": 0,
                "metrics": {"rec_per_s": {"value": rate}, "setup_s": {"value": 1.0}}}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    assert ab_pairs.main([str(parent), str(change), "--workload", "train", "detect_batch",
                          "--seeds", "1", "2", "3", "--seconds", "5"]) == 0
    orders = [("parent", "change"), ("change", "parent"), ("parent", "change")]
    assert calls == [(w, side, seed, 5.0) for w in ("train", "detect_batch")
                     for seed, sides in zip((1, 2, 3), orders) for side in sides]
    out = capsys.readouterr().out.splitlines()
    blocks = [out.index("== train"), out.index("== detect_batch")]
    train, batch = out[blocks[0]:blocks[0] + 5], out[blocks[1]:]
    assert train[1:3] == ["parent: 3 of 3 runs correct with 0 failed",
                          "change: 3 of 3 runs correct with 0 failed"]
    assert train[3] == ab_pairs.summary_line(
        "rec_per_s", ab_pairs.summarize([100.0, 110.0, 90.0], [120.0, 130.0, 80.0], "higher"))
    assert train[4].startswith("setup_s ") and "wins 0/3" in train[4]
    assert batch[1:3] == ["parent: 3 of 3 runs correct with 0 failed",
                          "change: 2 of 3 runs correct with 0 failed"]
    assert batch[3] == ab_pairs.summary_line(
        "rec_per_s", ab_pairs.summarize([50.0, 60.0], [55.0, 65.0], "higher"))
    assert len(batch) == 5
    assert sum(line.startswith("# train pair ") for line in out) == 6
