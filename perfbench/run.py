#!/usr/bin/env python3
"""Benchmark of the hybrid-ids commands on seeded synthetic inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``./src``. Workloads:

* ``train``: ``prepare`` then ``train hybrid`` on a ``hard`` corpus.
* ``detect_stream``: ``predict`` over unlabeled live-traffic lines, a few
  of them malformed, with the model trained during set-up.
* ``detect_batch``: ``evaluate hybrid --test-file`` over the held-out
  split, tiled.

Each workload is a closed loop with one client: the benchmark calls the
CLI entry point in process, one command at a time, until ``--seconds``
have passed and at least three commands ran. Set-up (input generation,
and for the detect workloads the model training) runs in fresh processes,
three times, and must write identical files each time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones. With ``--trace 1`` untraced and traced commands
alternate, and the metrics are the per-layer ones from the traced
commands' spans, plus the tracing overhead. The exit code is 1 when a
correctness check fails and 2 when the checkout holds no package.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # must precede the first numpy import

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import checks
import corpus
import layers
from spans import Tracer, installed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"

WORKLOADS = ("train", "detect_stream", "detect_batch")
# The paper's sampling targets divided by ten (u2r raised from 9 to 20 so
# the held-out split keeps six u2r records) and 20 trees instead of 100:
# the paper's scale takes minutes per model, and every run sets up three.
SAMPLING = {"normal": 3952, "dos": 2728, "probe": 213, "r2l": 100, "u2r": 20}
TREES = 20
STREAM_LINES = 2000
BATCH_TILES = 16
SETUPS = 3
MIN_COMMANDS = 3
MAX_COMMANDS = 1000
SETUP_TIMEOUT_S = 150
MODEL_DIR = "model"

END_TO_END = {"setup_s": "s", "rec_per_s": "records/s", "first_output_s": "s",
              "accuracy_pct": "%", "peak_rss_mb": "MB"}

COMMANDS = {
    "train": [["prepare", "--config", "run.cfg"], ["train", "hybrid", "--config", "run.cfg"]],
    "detect_stream": [["predict", "--config", "run.cfg", "--input", "traffic.txt"]],
    "detect_batch": [["evaluate", "hybrid", "--config", "run.cfg", "--test-file", "batch.csv"]],
}


def config_text() -> str:
    lines = ["data=corpus.txt", f"out={MODEL_DIR}", f"rf.trees={TREES}",
             f"nn.epochs={layers.NN_EPOCHS}"]
    lines += [f"sampling.{name}={n}" for name, n in SAMPLING.items()]
    return "\n".join(lines) + "\n"


class Sink(io.TextIOBase):
    """Stdout stand-in that keeps the text and the time of the first write."""

    def __init__(self) -> None:
        self.first: float | None = None
        self.parts: list[str] = []

    def write(self, s: str) -> int:
        if s and self.first is None:
            self.first = time.perf_counter()
        self.parts.append(s)
        return len(s)


@dataclass
class Command:
    wall: float
    first_output: float
    codes: list[int]
    stdout: str
    stderr: str
    # The same two times at the reference speed, see calibrate.py.
    ref_wall: float = 0.0
    ref_first_output: float = 0.0

    def failure(self) -> str | None:
        if any(self.codes):
            return f"exit codes {self.codes}: {self.stderr.strip()[-500:]}"
        return None


def run_commands(cli, argvs: list[list[str]]) -> Command:
    out, err = Sink(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes = [cli.main(argv) for argv in argvs]
    end = time.perf_counter()
    return Command(end - start, (out.first or end) - start, codes, "".join(out.parts), err.getvalue())


def run_calibrated(cli, argvs: list[list[str]], kernel_before: float) -> tuple[Command, float]:
    """Run the commands one at a time, timing the calibration kernel after
    each, so that each command is rescaled by the kernel timings just
    around it (a slow phase of the host during ``train hybrid`` then does
    not rescale ``prepare``). Returns them as one Command, whose first
    output is the first command's, and the last kernel time."""
    parts = []
    for argv in argvs:
        part = run_commands(cli, [argv])
        kernel_after = calibrate.kernel_seconds()
        part.ref_wall = part.wall * calibrate.scale(kernel_before, kernel_after)
        parts.append(part)
        kernel_before = kernel_after
    first = parts[0]
    return Command(
        wall=sum(p.wall for p in parts),
        first_output=first.first_output,
        codes=[c for p in parts for c in p.codes],
        stdout="".join(p.stdout for p in parts),
        stderr="".join(p.stderr for p in parts),
        ref_wall=sum(p.ref_wall for p in parts),
        ref_first_output=first.first_output * first.ref_wall / first.wall,
    ), kernel_before


def data_rows(lines: list[str]) -> list[str]:
    """Rows of a processed dataset file's lines (comments and header dropped)."""
    head = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    return lines[head:]


def file_rows(path: Path) -> list[str]:
    return data_rows(path.read_text().splitlines())


# ---------------------------------------------------------------------------
# Set-up: runs in a fresh process (this script with ``--set-up-dir``),
# inside its own directory.

def set_up(workload: str, seed: int, directory: str) -> float:
    os.chdir(directory)
    from hybrid_ids import cli

    start = time.perf_counter()
    Path("corpus.txt").write_text(corpus.training_corpus(seed))
    Path("run.cfg").write_text(config_text())
    if workload != "train":
        failure = run_commands(cli, COMMANDS["train"]).failure()
        if failure:
            raise RuntimeError(f"training the model failed: {failure}")
    if workload == "detect_stream":
        traffic = corpus.stream_traffic(seed, STREAM_LINES)
        Path("traffic.txt").write_text(traffic.text)
        Path("traffic.json").write_text(json.dumps({"truth": traffic.truth, "bad": traffic.bad}))
    if workload == "detect_batch":
        lines = Path(MODEL_DIR, "test.csv").read_text().splitlines(keepends=True)
        rows = data_rows(lines)
        Path("batch.csv").write_text("".join(lines[: len(lines) - len(rows)] + rows * BATCH_TILES))
    return time.perf_counter() - start


def spawn_set_up(workload: str, seed: int, directory: Path) -> float:
    """Run ``set_up`` in a child process and wait for it to end; the child
    is killed and reaped if it outlives ``SETUP_TIMEOUT_S``."""
    directory.mkdir(parents=True)
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--set-up-dir", str(directory)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"set-up took longer than {SETUP_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])["set_up_s"]


def digests(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).digest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def compare(first: dict[str, bytes], again: dict[str, bytes], what: str) -> list[str]:
    problems = []
    for name in sorted(set(first) | set(again)):
        problems += checks.identical(f"{what} {name}", first.get(name), again.get(name))
    return problems


# ---------------------------------------------------------------------------
# Workloads: what one command is, how many records it handles, and how its
# outputs are checked. Each examine() returns (attempted, failed, problems).

class Train:
    input_file = "corpus.txt"

    def __init__(self, cli) -> None:
        self.cli = cli
        self.records = sum(SAMPLING.values())
        labels = [line.rsplit(",", 1)[1] for line in Path(self.input_file).read_text().splitlines()]
        self.facts = {"attack_share": sum(l != "normal." for l in labels) / len(labels)}

    def examine(self, cmd: Command) -> tuple[int, int, list[str]]:
        failure = cmd.failure()
        if failure:
            return 2, sum(1 for c in cmd.codes if c), [failure]
        split = sum(len(file_rows(Path(MODEL_DIR, f))) for f in ("train.csv", "test.csv"))
        if split != self.records:
            return 2, 1, [f"train+test splits hold {split} records, sampling targets sum to {self.records}"]
        return 2, 0, []

    def accuracy(self) -> tuple[float, list[str]]:
        """Hybrid 5-class accuracy of the trained model on the held-out
        split, through ``evaluate hybrid`` (untimed)."""
        failure = run_commands(self.cli, [["evaluate", "hybrid", "--config", "run.cfg"]]).failure()
        if failure:
            return 0.0, [failure]
        total, correct = checks.confusion_totals(Path(MODEL_DIR, "confusion_hybrid.csv").read_text())
        return 100.0 * correct / max(total, 1), []


class DetectStream:
    input_file = "traffic.txt"

    def __init__(self, cli) -> None:
        self.facts: dict[str, float] = {}
        inputs = json.loads(Path("traffic.json").read_text())
        self.truth, self.bad = inputs["truth"], set(inputs["bad"])
        self.records = len(self.truth)
        self.rows: list[tuple] | None = None
        self.reference, self.problems = self._reference()

    def _reference(self) -> tuple[list[tuple] | None, list[str]]:
        """Verdicts of the batched path, ``predict_dataset``, on the
        well-formed lines."""
        import numpy as np
        from hybrid_ids.dataset import Dataset, encode_features, parse_kdd_line
        from hybrid_ids.hybrid import load_hybrid, predict_dataset

        try:
            lines = Path(self.input_file).read_text().splitlines()
            good = [line for i, line in enumerate(lines) if i not in self.bad]
            X = np.array([encode_features(parse_kdd_line(line, labeled=False)) for line in good])
            ds = Dataset(X, ["normal"] * len(good), [0] * len(good))
            preds, _ = predict_dataset(load_hybrid(Path(MODEL_DIR, "hybrid.manifest")), ds)
            return [checks.format_verdict(p) for p in preds], []
        except Exception as exc:
            return None, [f"predict_dataset reference failed: {exc!r}"]

    def examine(self, cmd: Command) -> tuple[int, int, list[str]]:
        n_bad = len(self.bad)
        attempted = self.records + n_bad
        failure = cmd.failure()
        if failure:
            return attempted, attempted, [failure]
        rows = checks.verdict_rows(Path(MODEL_DIR, "predictions.csv").read_text())
        rejects_path = Path(MODEL_DIR, "predictions.rejects.txt")
        rejects = rejects_path.read_text() if rejects_path.exists() else ""
        n_rejected = sum(1 for line in rejects.splitlines() if line.strip())
        accepted_bad = max(0, n_bad - n_rejected)
        missing = max(0, self.records - (len(rows) - accepted_bad))
        problems = list(self.problems)
        if self.reference is not None:
            problems += checks.rows_match(rows, self.reference)
        if checks.verdict_rows(cmd.stdout) != rows:
            problems.append("verdict rows on stdout differ from predictions.csv")
        problems += checks.fine_iff_routed(rows)
        problems += checks.routing_adds_up(checks.routing_counts(cmd.stderr), rows)
        problems += checks.rejected_count(rejects, n_bad)
        self.rows = self.rows or rows
        return attempted, accepted_bad + missing, problems

    def accuracy(self) -> tuple[float, list[str]]:
        """Share of verdicts whose coarse class matches the class the
        generator drew the line from."""
        rows = self.rows or []
        correct = sum(1 for row, truth in zip(rows, self.truth) if row[0] == truth)
        self.facts.update(
            attack_share=sum(t != "normal" for t in self.truth) / self.records,
            routed_share=sum(r[2] == "true" for r in rows) / max(len(rows), 1),
            bad_lines=len(self.bad),
        )
        return 100.0 * correct / self.records, []


class DetectBatch:
    input_file = "batch.csv"

    def __init__(self, cli) -> None:
        self.facts: dict[str, float] = {}
        self.records = len(file_rows(Path(self.input_file)))
        self.confusion = ""
        self.routing: dict[str, int] = {}

    def examine(self, cmd: Command) -> tuple[int, int, list[str]]:
        failure = cmd.failure()
        if failure:
            return self.records, self.records, [failure]
        self.confusion = Path(MODEL_DIR, "confusion_hybrid.csv").read_text()
        self.routing = checks.routing_counts(Path(MODEL_DIR, "routing_hybrid.txt").read_text())
        total, _ = checks.confusion_totals(self.confusion)
        problems = checks.routing_adds_up(self.routing)
        for name, n in (("confusion matrix", total), ("routing total", self.routing.get("total"))):
            if n != self.records:
                problems.append(f"{name} counts {n} records, the file holds {self.records}")
        return self.records, max(0, self.records - total), problems

    def accuracy(self) -> tuple[float, list[str]]:
        total, correct = checks.confusion_totals(self.confusion)
        lines = [l.split(",") for l in self.confusion.splitlines() if l and not l.startswith("#")]
        normal = sum(int(v) for v in next(l for l in lines if l[0] == "normal")[1:])
        self.facts.update(
            attack_share=1 - normal / max(total, 1),
            routed_share=self.routing.get("routed", 0) / max(self.routing.get("total", 1), 1),
        )
        return 100.0 * correct / max(total, 1), []


RUNNERS = {"train": Train, "detect_stream": DetectStream, "detect_batch": DetectBatch}


# ---------------------------------------------------------------------------

def measure(workload, cli, name: str, seconds: float, trace: bool):
    """Run the workload's commands in a closed loop. Returns the untraced
    and traced commands, the tracer of each traced command, operation
    counts and problems."""
    untraced: list[Command] = []
    traced: list[Command] = []
    tracers: list[Tracer] = []
    attempted = failed = 0
    problems: list[str] = []
    first: dict[str, bytes] | None = None
    n_min = 2 * MIN_COMMANDS if trace else MIN_COMMANDS
    start = time.perf_counter()
    kernel_before = calibrate.kernel_seconds()
    for i in range(MAX_COMMANDS):
        if i >= n_min and time.perf_counter() - start >= seconds:
            break
        if trace and i % 2 == 1:
            tracer = Tracer()
            with installed(tracer, layers.TARGETS) as missing:
                cmd, kernel_before = run_calibrated(cli, COMMANDS[name], kernel_before)
            traced.append(cmd)
            tracers.append(tracer)
            covered = sum(layers.command_metrics(tracer.spans)[s] for s in layers.STAGE_METRICS)
            if not 0 <= cmd.wall - covered < 0.01 + 0.01 * cmd.wall:
                problems.append(f"span self times add up to {covered:.4f}s of a {cmd.wall:.4f}s command")
            if missing and i == 1:
                print(f"# not traced (not found): {', '.join(missing)}")
        else:
            cmd, kernel_before = run_calibrated(cli, COMMANDS[name], kernel_before)
            untraced.append(cmd)
        a, f, p = workload.examine(cmd)
        attempted, failed = attempted + a, failed + f
        snapshot = digests(Path(MODEL_DIR))
        if first is None:
            first = snapshot
        else:
            p += compare(first, snapshot, "output")
        problems += [f"command {i + 1}: {msg}" for msg in p]
    return untraced, traced, tracers, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set-up-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hybrid_ids" / "__init__.py").is_file():
        print(f"error: no package at {SRC}/hybrid_ids; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.set_up_dir:
        print(json.dumps({"set_up_s": set_up(args.workload, args.seed, args.set_up_dir)}))
        return 0
    from hybrid_ids import cli

    run_dir = WORK / f"{args.workload}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    n_setups = 1 if args.trace else SETUPS
    problems: list[str] = []
    setup_times, setup_ref_times = [], []
    kernel_before = calibrate.kernel_seconds()
    try:
        for k in range(n_setups):
            setup_times.append(spawn_set_up(args.workload, args.seed, run_dir / f"setup{k}"))
            kernel_after = calibrate.kernel_seconds()
            setup_ref_times.append(setup_times[-1] * calibrate.scale(kernel_before, kernel_after))
            kernel_before = kernel_after
    except RuntimeError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    workdir = run_dir / "setup0"
    for k in range(1, n_setups):
        problems += compare(digests(workdir), digests(run_dir / f"setup{k}"), f"set-up {k + 1}")
        shutil.rmtree(run_dir / f"setup{k}")

    with contextlib.chdir(workdir):
        workload = RUNNERS[args.workload](cli)
        untraced, traced, tracers, attempted, failed, p = measure(
            workload, cli, args.workload, args.seconds, bool(args.trace))
        problems += p
        accuracy, p = workload.accuracy()
        problems += p
        lines = Path(workload.input_file).read_text().splitlines()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        for k, tracer in enumerate(tracers):
            tracer.write(run_dir / "spans.jsonl", tag=k)
        metrics = layers.median_metrics([layers.command_metrics(t.spans) for t in tracers])
        metrics["trace.overhead_s"] = (statistics.median(c.ref_wall for c in traced)
                                       - statistics.median(c.ref_wall for c in untraced))
        units = layers.UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_ref_times),
            "rec_per_s": statistics.median(workload.records / c.ref_wall for c in untraced),
            "first_output_s": statistics.median(c.ref_first_output for c in untraced),
            "accuracy_pct": accuracy,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        print("# wall clock, not rescaled: "
              f"setup_s={statistics.median(setup_times):.4f} "
              f"rec_per_s={statistics.median(workload.records / c.wall for c in untraced):.2f} "
              f"first_output_s={statistics.median(c.first_output for c in untraced):.4f} "
              f"speed={statistics.median(c.ref_wall / c.wall for c in untraced):.3f}")

    facts = dict(workload.facts, dup_share=1 - len(set(lines)) / len(lines))
    facts.update(input_lines=len(lines), records=workload.records, commands=len(untraced) + len(traced),
                 setups=n_setups, blas_threads=BLAS_THREADS, nproc=os.cpu_count())
    print(f"# {args.workload} seed={args.seed}: " + " ".join(
        f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in facts.items()))
    for msg in problems:
        print(f"# FAILED CHECK: {msg}")
    for k in units:
        print(f"# {k} = {metrics[k]} {units[k]}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # A terminated benchmark unwinds like an exception, so a running set-up
    # child is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
