"""Host-speed calibration between measured commands.

On a shared virtual machine the processor's speed drifts: a fixed loop
can take 60% longer for minutes at a time, and CPU time tracks wall time,
so the drift is not visible as scheduling delay. Timing a fixed kernel
just before and just after each command measures the speed the command
ran at; ``scale`` turns the command's wall time into the time at the speed
where the kernel takes ``REFERENCE_S``, which removes most of that drift.

The kernel uses nothing from the package under test, so a change to the
program cannot change the scale.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on an uncontended core of the machine the bounds were
# set on; it only fixes the scale of the rescaled times.
REFERENCE_S = 0.045


def kernel() -> None:
    """A fixed mix of the commands' kinds of work: interpreter loops with
    string formatting and small numpy calls (parsing, per-record
    prediction), then sorts and cumulative sums over a few thousand rows
    (split search in forest training)."""
    rng = np.random.default_rng(0)
    counts: dict[int, float] = {}
    for row in rng.random((1000, 41)):
        key = int(np.argmax(row))
        counts[key] = counts.get(key, 0) + 1
        text = ",".join(repr(float(v)) for v in row[:10])
        counts[-1] = float(text.split(",")[3])
    X = rng.random((4000, 8))
    onehot = rng.integers(0, 5, 4000)[:, None] == np.arange(5)
    for _ in range(10):
        for f in range(8):
            order = np.argsort(X[:, f], kind="stable")
            np.cumsum(onehot[order], axis=0).argmax()


def kernel_seconds() -> float:
    """The kernel's time now: the faster of two runs, which drops a run
    that an interrupt happened to hit."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def scale(kernel_before: float, kernel_after: float) -> float:
    """Factor that turns a wall time measured between two kernel timings
    into the time at the speed where the kernel takes ``REFERENCE_S``."""
    return REFERENCE_S / ((kernel_before + kernel_after) / 2)
