"""``tools/ab_pairs.py``'s summary of paired benchmark runs, on fixed numbers."""

from __future__ import annotations

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
