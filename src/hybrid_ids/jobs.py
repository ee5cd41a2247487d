"""Work handed to a forked child on the CPUs this process gives up.

A job runs one function in a child made with ``os.fork`` (no
``multiprocessing``). ``start`` keeps this process to the first half of
its CPUs and the child to the second half, because a kernel that does not
balance load across CPUs (a cpuset with ``sched_load_balance`` off)
otherwise leaves the child on its parent's CPU. The child holds the log
records and warnings it makes (see ``holding``), and pickles them back
over a pipe with its result or the exception it raised (its traceback
text when the exception does not pickle). It always ends in ``os._exit``:
it never returns to the caller or flushes its copy of the caller's stdio.

The caller emits a job's records where they belong in the serial order,
so stderr reads as if the work had run in this process. ``reap`` reads
the pipe to its end, reaps the child and gives its CPUs back on every
path; ``join`` also emits the records, then returns the result or raises
what the child raised, or a RuntimeError naming how it died.

``cpu_free`` tells a caller whether it may start a job now. Where
``os.fork`` is missing or this process may run on one CPU only, it never
may, and the work runs here in its serial order.
"""

from __future__ import annotations

import contextlib
import logging
import os
import pickle
import select
import signal
import traceback
import warnings

# started and not yet reaped, in start order. Like the CPU mask, the
# children are the process's own: a forest asks ``cpu_free`` whether a job
# that another stage started (the neural net's) has finished.
_running: list["Job"] = []


def _cpus() -> list[int]:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _keep_to(cpus) -> None:
    """Run this thread on ``cpus`` only, where the platform allows."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


def cpu_free() -> bool:
    """Whether a job may start now: this process may fork and run on two
    or more CPUs. A running job whose pipe is readable has finished its
    work, so it is reaped first and gives its CPUs back; if it failed, its
    error is raised here, and its records wait for its ``join``."""
    for job in [job for job in _running if job.ready()]:
        job.reap()
        if job.error is not None:
            raise job.error
    return hasattr(os, "fork") and len(_cpus()) > 1


@contextlib.contextmanager
def holding(records: list):
    """Append the package's log records (those its loggers' levels let
    through) and the warnings shown, in the order they come, to
    ``records`` instead of handling them, until the block ends. A filter
    on each of the package's loggers holds a record before any handler,
    on that logger or above it, sees it."""
    loggers = [logger for name, logger in logging.root.manager.loggerDict.items()
               if name.split(".")[0] == "hybrid_ids" and isinstance(logger, logging.Logger)]

    def hold_record(record) -> bool:
        records.append(record)
        return False

    def hold_warning(message, category, filename, lineno, file=None, line=None):
        records.append(warnings.WarningMessage(message, category, filename, lineno, None, line))

    shown = warnings.showwarning
    warnings.showwarning = hold_warning
    for logger in loggers:
        logger.addFilter(hold_record)
    try:
        yield records
    finally:
        warnings.showwarning = shown
        for logger in loggers:
            logger.removeFilter(hold_record)


def emit(records: list) -> None:
    """Handle held log records and show held warnings, in order."""
    for r in records:
        if isinstance(r, logging.LogRecord):
            logging.getLogger(r.name).handle(r)
        else:
            warnings.showwarning(r.message, r.category, r.filename, r.lineno, None, r.line)


class Job:
    """A function running in a forked child; see the module docstring."""

    def __init__(self, pid: int, pipe, cpus: list[int], log: logging.Logger, what: str, done: str):
        self.pid, self.pipe, self.cpus = pid, pipe, cpus
        self.log, self.what, self.done = log, what, done
        self.records: list = []
        self.result = self.error = None
        self.reaped = False

    def ready(self) -> bool:
        """Whether the child has begun to send its result (or has died)."""
        return bool(select.select([self.pipe], [], [], 0)[0])

    def reap(self) -> None:
        """Read the pipe to its end, reap the child and give its CPUs back
        to this process; keep its result or error and its records. Once
        only; it raises nothing of the child's."""
        if self.reaped:
            return
        self.reaped = True
        _running.remove(self)
        try:
            with self.pipe:
                payload = self.pipe.read()
        finally:
            _, status, usage = os.wait4(self.pid, 0)
            _keep_to(sorted(set(_cpus()) | set(self.cpus)))
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            how = f"exited with status {code}" if code > 0 else f"was killed by {_signal_name(-code)}"
            self.error = RuntimeError(f"the process {self.what} {how}")
            return
        ok, outcome, self.records = pickle.loads(payload)
        if not ok:
            self.error = outcome if isinstance(outcome, BaseException) else RuntimeError(
                f"the process {self.what} failed:\n{outcome}")
            return
        self.result = outcome
        with holding(self.records):
            self.log.debug("%s, child %.2f s CPU, child peak RSS %.1f MB", self.done,
                           usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def join(self):
        """``reap``, emit the child's records, then return its result or
        raise its error."""
        self.reap()
        emit(self.records)
        if self.error is not None:
            raise self.error
        return self.result


def start(work, log: logging.Logger, what: str, done: str) -> Job:
    """Run ``work()`` in a forked child on the second half of this
    process's CPUs, keeping this process to the first half; call only
    where ``cpu_free()``. ``what`` names the work in an error ("the
    process <what> was killed by SIGKILL"), and ``done`` opens the DEBUG
    line that ``log`` gets once it is reaped."""
    cpus = _cpus()
    half = len(cpus) // 2
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        os.close(read_end)
        _run_child(write_end, cpus[half:], work)
    os.close(write_end)
    job = Job(pid, open(read_end, "rb"), cpus[half:], log, what, done)
    _running.append(job)
    _keep_to(cpus[:half])
    return job


def _run_child(write_end: int, cpus: list[int], work) -> None:
    """The forked child: run ``work`` on ``cpus``, holding its records,
    write ``(ok, result or error, records)`` pickled to ``write_end`` and
    exit; it never returns."""
    status = 1
    try:
        _running.clear()  # the parent's jobs are not this process's to reap
        records: list = []
        try:
            _keep_to(cpus)
            with holding(records):
                outcome = (True, work())
        except BaseException as exc:
            outcome = (False, exc)
        for r in records:  # the arguments of a record need not pickle
            if isinstance(r, logging.LogRecord):
                r.msg, r.args, r.exc_info = r.getMessage(), None, None
        try:
            payload = pickle.dumps((*outcome, records))
            if not outcome[0]:
                pickle.loads(payload)  # an exception may pickle but not unpickle
        except Exception as exc:
            text = "".join(traceback.format_exception(exc if outcome[0] else outcome[1]))
            payload = pickle.dumps((False, text, records))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _signal_name(number: int) -> str:
    try:
        return signal.Signals(number).name
    except ValueError:
        return f"signal {number}"
