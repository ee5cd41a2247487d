#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark in two source checkouts.

    python3 tools/ab_pairs.py PARENT CHANGE --workload detect_batch \\
        --seeds 1001 1002 1003 --seconds 20

Each pair runs ``perfbench/run.py --trace 0`` on one seed in both
checkouts, one after the other: the parent first in the first pair, the
change first in the second, and so on. Each run's end-to-end metrics are
printed as it ends. Then, for each end-to-end metric that the parent's
``BENCHMARK.json`` names, the summary gives both medians and quartiles,
the parent's interquartile range (IQR), in how many pairs the change did
better, and whether the medians differ by more than the parent's IQR.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Summary:
    parent_median: float
    parent_q1: float
    parent_q3: float
    change_median: float
    change_q1: float
    change_q3: float
    wins: int  # pairs where the change did strictly better
    pairs: int

    @property
    def parent_iqr(self) -> float:
        return self.parent_q3 - self.parent_q1

    @property
    def clear(self) -> bool:
        """The medians differ by more than the parent's IQR."""
        return abs(self.change_median - self.parent_median) > self.parent_iqr


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the
    sorted values as ``statistics.quantiles(method="inclusive")`` does."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str) -> Summary:
    """The summary of one metric over pairs of runs; ``parent[i]`` and
    ``change[i]`` ran on the same seed. ``better`` is "higher" or "lower"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair, and a pair")
    sign = {"higher": 1, "lower": -1}[better]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return Summary(pm, p1, p3, cm, c1, c3, wins, len(parent))


def summary_line(name: str, s: Summary) -> str:
    change = (s.change_median - s.parent_median) / s.parent_median if s.parent_median else float("nan")
    return (f"{name:<15} parent {s.parent_median:.6g} [{s.parent_q1:.6g}, {s.parent_q3:.6g}]  "
            f"change {s.change_median:.6g} [{s.change_q1:.6g}, {s.change_q3:.6g}]  "
            f"parent IQR {s.parent_iqr:.6g}  wins {s.wins}/{s.pairs}  "
            f"median {change:+.1%}{'  (beyond the IQR)' if s.clear else ''}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in ``checkout``; a run that
    prints none counts as incorrect, with no metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"# {checkout}: seed {seed} printed no result line (exit code {proc.returncode}): "
              f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
        return {"correct": False, "failed": None, "metrics": {}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+", help="one seed per pair")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result = run_once(sides[side], args.workload, seed, args.seconds)
            results[side].append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"# pair {i + 1} seed {seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']} {values}", flush=True)

    for side, runs in results.items():
        bad = sum(not r["correct"] or r["failed"] != 0 for r in runs)
        print(f"{side}: {len(runs) - bad} of {len(runs)} runs correct with 0 failed")
    complete = [i for i in range(len(args.seeds))
                if all(results[side][i]["metrics"] for side in sides)]
    for name, better in metrics.items():
        values = {side: [results[side][i]["metrics"][name]["value"] for i in complete]
                  for side in sides}
        if complete:
            print(summary_line(name, summarize(values["parent"], values["change"], better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
