"""``tools/bench_record.py``'s record of benchmark runs, on fixed numbers."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_record  # noqa: E402

UNITS = {"rec_per_s": "records/s", "peak_rss_mb": "MB", "setup_s": "s"}


def run(correct: bool, failed: int | None, **metrics: float) -> dict:
    """A result line as ``ab_pairs.run_once`` returns it."""
    return {"correct": correct, "failed": failed,
            "metrics": {name: {"value": value} for name, value in metrics.items()}}


def test_record_of_five_runs_gives_each_metric_its_median_and_quartiles():
    rates = [480.0, 490.0, 470.0, 500.0, 485.0]
    rss = [60.0, 61.0, 59.5, 60.0, 62.0]
    runs = [run(True, 0, rec_per_s=r, peak_rss_mb=m) for r, m in zip(rates, rss)]
    record = bench_record.summarize(runs, UNITS)
    assert (record["runs"], record["correct_runs"]) == (5, 5)
    assert record["metrics"] == {
        "rec_per_s": {"unit": "records/s", "median": 485.0, "q1": 480.0, "q3": 490.0,
                      "values": rates},
        "peak_rss_mb": {"unit": "MB", "median": 60.0, "q1": 60.0, "q3": 61.0, "values": rss},
    }


def test_a_run_without_a_result_line_or_with_failures_is_not_correct():
    runs = [run(True, 0, rec_per_s=10.0), run(False, None), run(True, 2, rec_per_s=30.0),
            run(False, 0, rec_per_s=20.0)]
    record = bench_record.summarize(runs, UNITS)
    assert (record["runs"], record["correct_runs"]) == (4, 1)
    assert record["metrics"]["rec_per_s"]["values"] == [10.0, 30.0, 20.0]
    assert record["metrics"]["rec_per_s"]["median"] == 20.0
    assert bench_record.summarize([run(False, None)], UNITS)["metrics"] == {}


def test_fewer_than_five_seeds_are_refused(tmp_path, capsys):
    with pytest.raises(SystemExit):
        bench_record.main([str(tmp_path / "BENCH.json"), "--seeds", "1", "2", "3", "4", "4"])
    assert "at least 5 distinct seeds" in capsys.readouterr().err
    assert not (tmp_path / "BENCH.json").exists()
