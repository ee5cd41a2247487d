#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics of one checkout over seeds.

    python3 tools/bench_record.py bench.json --seeds 1 2 3 4 5 --seconds 20

For each workload that ``BENCHMARK.json`` names, runs ``perfbench/run.py
--trace 0`` once per seed in the checkout this file belongs to (or
``--checkout``, a git checkout of another commit), one run at a time, and
prints each run's metrics as it ends. Then it writes one JSON file: the
head commit, whether ``src/`` or ``perfbench/`` differ from it, ``nproc``,
``--seconds`` and the seeds, and per workload how many runs were correct
with 0 failed, and for each end-to-end metric its unit, its median and
quartiles over the runs that reported it, and those runs' values in seed
order. The runs and the quartiles are ``tools/ab_pairs.py``'s, so two
records and a set of A/B pairs read the same numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import ab_pairs

MIN_SEEDS = 5


def summarize(runs: list[dict], units: dict[str, str]) -> dict:
    """One workload's record from its runs' result lines (``run_once``'s
    dicts, in seed order): a run that printed no metrics counts as not
    correct and adds no values."""
    ok = sum(bool(r["correct"]) and r["failed"] == 0 for r in runs)
    metrics = {}
    for name, unit in units.items():
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if values:
            q1, median, q3 = ab_pairs.quartiles(values)
            metrics[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                             "values": values}
    return {"runs": len(runs), "correct_runs": ok, "metrics": metrics}


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    parser.add_argument("--seeds", required=True, type=int, nargs="+",
                        help=f"one run per seed and workload, at least {MIN_SEEDS}")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    if len(set(args.seeds)) < MIN_SEEDS:
        parser.error(f"give at least {MIN_SEEDS} distinct seeds")

    bench = json.loads((args.checkout / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    record = {
        "commit": git(args.checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(args.checkout, "status", "--porcelain", "--", "src", "perfbench")),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            result = ab_pairs.run_once(args.checkout, workload, seed, args.seconds)
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']} {values}", flush=True)
        record["workloads"][workload] = summarize(runs, units)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
