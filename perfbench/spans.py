"""In-memory call spans around the package's public functions.

The tracer wraps functions from outside the program: ``installed`` replaces
every binding of a target function in the loaded ``hybrid_ids`` modules
(``cli`` imports most functions by name, and modules call their own
functions through module globals), then restores the originals. Each call
becomes a span ``[name, start, end, parent, attrs]`` appended to a list;
parents always precede their children.

A span's self time is its duration minus the durations of its direct
children. Calls are properly nested in a single thread, so self times
partition the root spans: their sum over all spans equals the summed
duration of the roots.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        """``fn`` recording one span per call. ``measure(args, result)``
        may return a dict of counts stored with the span; it runs after the
        span has ended. A call that raises records the exception's type."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ATTRS] = {"error": type(exc).__name__}
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                span[ATTRS] = measure(args, result)
            return result

        return traced

    def write(self, path, tag: int = 0) -> None:
        """Append the spans as JSON lines, each tagged with ``tag``."""
        with open(path, "a") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps([tag, i, parent, name, start, end, attrs]) + "\n")


@dataclass(frozen=True)
class Target:
    """A function to trace: ``qualname`` inside ``module`` (a class method
    is written ``Class.method``), recorded under ``span``."""

    module: str
    qualname: str
    span: str
    measure: Callable | None = None


@contextmanager
def installed(tracer: Tracer, targets: list[Target], package: str = "hybrid_ids"):
    """Route every binding of each target through ``tracer`` while the
    block runs. Yields the qualnames that were not found, so a renamed or
    deleted function shows as missing instead of failing the run."""
    patches: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for t in targets:
            owner = importlib.import_module(t.module)
            *cls_path, attr = t.qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(f"{t.module}.{t.qualname}")
                continue
            if isinstance(raw, classmethod):
                patches.append((owner, attr, raw))
                setattr(owner, attr, classmethod(tracer.wrap(t.span, raw.__func__, t.measure)))
                continue
            wrapper = tracer.wrap(t.span, raw, t.measure)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        patches.append((m, key, raw))
                        setattr(m, key, wrapper)
        yield missing
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [(s[END] - s[START]) - child[i] for i, s in enumerate(spans)]


def stage_of_spans(
    spans: list[list], stage: dict[str, str], absorbing: set[str], never_absorbed: set[str]
) -> list[str]:
    """Stage of each span: its own name's stage, unless an ancestor's name
    is ``absorbing``, in which case the nearest such ancestor's stage.
    Names in ``never_absorbed`` always keep their own stage."""
    absorber = [-1] * len(spans)
    out = []
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            absorber[i] = parent if spans[parent][NAME] in absorbing else absorber[parent]
        if absorber[i] >= 0 and span[NAME] not in never_absorbed:
            out.append(stage[spans[absorber[i]][NAME]])
        else:
            out.append(stage[span[NAME]])
    return out


def outermost(spans: list[list], stages: list[str], wanted: str) -> list[int]:
    """Indices of spans in stage ``wanted`` with no ancestor in that stage
    (one per call into the stage, however the stage calls itself)."""
    inside = [False] * len(spans)
    out = []
    for i, span in enumerate(spans):
        parent = span[PARENT]
        inside[i] = parent >= 0 and (inside[parent] or stages[parent] == wanted)
        if stages[i] == wanted and not inside[i]:
            out.append(i)
    return out
