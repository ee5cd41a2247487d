"""``jobs.beside``: two functions run one after the other or, where a
second CPU is free, the first in a forked job; either way the same result
pair, the same records and warnings in the same order, and the same error."""

from __future__ import annotations

import logging
import os
import warnings

import pytest

from hybrid_ids import jobs

from test_random_forest import two_or_more_cpus

log = logging.getLogger("hybrid_ids.test_jobs")


@pytest.fixture(params=[1, 2], ids=["one_cpu", "two_cpus"])
def cores(request, monkeypatch) -> int:
    monkeypatch.setattr(jobs, "_cpus", (lambda: [0]) if request.param == 1 else two_or_more_cpus)
    return request.param


@pytest.fixture
def seen():
    """What reaches stderr, in order: each handled record's message up to
    its first comma, and each shown warning's text."""
    out: list[str] = []
    handler = logging.Handler()
    handler.emit = lambda record: out.append(record.getMessage().split(",")[0])
    level = log.level
    log.setLevel(logging.DEBUG)
    log.addHandler(handler)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, *args, **kwargs: out.append(f"warning: {message}")
            yield out
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def work(name: str, error: BaseException | None = None):
    """A function that logs, warns, logs again, then returns its name and
    process id, or raises ``error``."""
    def run():
        log.info("%s starts", name)
        warnings.warn(f"{name} warns")
        log.info("%s ends", name)
        if error is not None:
            raise error
        return name, os.getpid()
    return run


def lines(name: str) -> list[str]:
    return [f"{name} starts", f"warning: {name} warns", f"{name} ends"]


def beside(first, second):
    return jobs.beside(first, second, log, what="running first", done="first done")


@pytest.fixture
def given_back():
    """This process's CPUs before the test; each test ends with
    ``assert_given_back`` on them."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def assert_given_back(mask) -> None:
    """No job is left running, and this process is back on ``mask``."""
    assert jobs._running == []
    if mask is not None:
        assert os.sched_getaffinity(0) == mask


def test_the_result_pair(cores, seen, given_back):
    (first, first_pid), (second, second_pid) = beside(work("first"), work("second"))
    assert (first, second) == ("first", "second")
    assert second_pid == os.getpid()
    assert (first_pid == os.getpid()) == (cores == 1)
    assert_given_back(given_back)


def test_records_and_warnings_come_out_in_serial_order(cores, seen, given_back):
    beside(work("first"), work("second"))
    assert seen == lines("first") + ["first done"] * (cores == 2) + lines("second")
    assert_given_back(given_back)


def test_first_failing_shows_its_records_then_its_error_and_drops_seconds(cores, seen, given_back):
    with pytest.raises(KeyError, match="first failed"):
        beside(work("first", KeyError("first failed")), work("second"))
    assert seen == lines("first")
    assert_given_back(given_back)


def test_second_failing_shows_firsts_records_then_its_own_then_its_error(cores, seen, given_back):
    with pytest.raises(ValueError, match="second failed"):
        beside(work("first"), work("second", ValueError("second failed")))
    assert seen == lines("first") + ["first done"] * (cores == 2) + lines("second")
    assert_given_back(given_back)


def test_both_failing_raise_firsts_error(cores, seen, given_back):
    with pytest.raises(KeyError, match="first failed"):
        beside(work("first", KeyError("first failed")), work("second", ValueError("second failed")))
    assert seen == lines("first")
    assert_given_back(given_back)


def test_a_beside_inside_the_second_keeps_serial_order(cores, seen, given_back):
    """On two CPUs both levels fork (the patched CPU list always has two),
    and the inner job's child inherits the outer level's holding."""
    outer_first, ((inner_first, _), (inner_second, _)) = beside(
        work("outer"), lambda: beside(work("inner first"), work("inner second")))
    assert (outer_first[0], inner_first, inner_second) == ("outer", "inner first", "inner second")
    done = ["first done"] * (cores == 2)
    assert seen == lines("outer") + done + lines("inner first") + done + lines("inner second")
    assert_given_back(given_back)
