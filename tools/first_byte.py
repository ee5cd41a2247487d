#!/usr/bin/env python3
"""Time to the first byte and to the exit of a fresh CLI process, in
alternating pairs of two source checkouts.

    python3 tools/first_byte.py PARENT CHANGE --workload detect_batch \\
        --seeds 1001 1002 1003 -- evaluate hybrid --config run.cfg --test-file batch.csv

For each seed, the parent checkout's ``perfbench/run.py`` sets up the
workload's directory once: its corpus, config, trained model and input.
Then ``python -m hybrid_ids.cli <command>`` runs there once from each
checkout's ``src``: the parent first for the first seed, the change first
for the second, and so on. Its stdout is a pipe, as when an operator pipes
the verdicts on. The clock starts before the process is spawned, and stops
at the first byte read from the pipe and at the exit, so both times hold
the interpreter's start-up, the imports, any bytecode compiling and stdio
buffering, which the benchmark's in-process ``first_output_s`` does not
see. The summary gives, for each time, both medians and quartiles, the
parent's interquartile range (IQR), in how many pairs the change was
faster, and whether the medians differ by more than the parent's IQR, as
``tools/ab_pairs.py`` does.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import ab_pairs

TIMES = ("first_byte_s", "exit_s")


def time_command(argv: list[str], cwd: Path, src: Path) -> tuple[float, float]:
    """Seconds from spawning ``python -m hybrid_ids.cli argv`` in ``cwd``,
    with the package from ``src``, to the first byte on its stdout and to
    its exit. RuntimeError when it writes nothing or exits with an error."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "hybrid_ids.cli", *argv], cwd=cwd, env=env,
                                stdout=subprocess.PIPE, stderr=err, bufsize=0)
        with proc.stdout:
            first = proc.stdout.read(1)
            first_s = time.perf_counter() - start
            proc.stdout.read()
        code = proc.wait()
        exit_s = time.perf_counter() - start
        if code != 0 or not first:
            err.seek(0)
            raise RuntimeError(f"{' '.join(argv)} in {cwd} exited with code {code} after writing "
                               f"{len(first)} bytes: {err.read().decode(errors='replace')[-500:]}")
    return first_s, exit_s


def set_up(checkout: Path, workload: str, seed: int, directory: Path) -> None:
    """The benchmark's set-up of ``workload`` for ``seed`` in ``directory``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--set-up-dir", str(directory)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} seed {seed} failed: {proc.stderr.strip()[-500:]}")


def summary_lines(parent: list[tuple[float, float]], change: list[tuple[float, float]]) -> list[str]:
    """One summary line per time in ``TIMES`` over pairs of ``time_command``
    results; ``parent[i]`` and ``change[i]`` ran on the same seed."""
    return [ab_pairs.summary_line(name, ab_pairs.summarize(
        [p[k] for p in parent], [c[k] for c in change], "lower")) for k, name in enumerate(TIMES)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="the benchmark workload to set up")
    parser.add_argument("--seeds", required=True, type=int, nargs="+", help="one seed per pair")
    parser.add_argument("command", nargs="+", help="the CLI's arguments, after '--'")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    times: dict[str, list[tuple[float, float]]] = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        with tempfile.TemporaryDirectory() as tmp:
            set_up(args.parent, args.workload, seed, Path(tmp))
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                first_s, exit_s = time_command(args.command, Path(tmp), sides[side].resolve() / "src")
                times[side].append((first_s, exit_s))
                print(f"# pair {i + 1} seed {seed} {side}: first byte {first_s:.4f} s, "
                      f"exit {exit_s:.4f} s", flush=True)
    print("\n".join(summary_lines(times["parent"], times["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
