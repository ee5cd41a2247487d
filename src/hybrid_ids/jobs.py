"""Two functions run beside each other, where a second CPU is free.

``beside(first, second, ...)`` is the one way work leaves this process:
it returns ``(first(), second())``, and stderr reads as if they had run
here one after the other. Where ``cpu_free()``, ``first`` runs as a
*job*: in a child made with ``os.fork`` (no ``multiprocessing``), on the
second half of this process's CPUs, while this process keeps the first
half. Without the split, a kernel that does not balance load across CPUs
(a cpuset with ``sched_load_balance`` off) leaves the child on its
parent's CPU. The child holds the log records and warnings it makes and
pickles them back over a pipe with its result or the exception it raised
(its traceback text when the exception does not pickle). It always ends
in ``os._exit``: it never returns to the caller or flushes its copy of
the caller's stdio. Where ``os.fork`` is missing or this process may run
on one CPU only, both functions run here.
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
_running: list["_Job"] = []


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
    error is raised here, and its records wait for its ``beside``."""
    for job in [job for job in _running if select.select([job.pipe], [], [], 0)[0]]:
        job.reap()
        if job.error is not None:
            raise job.error
    return hasattr(os, "fork") and len(_cpus()) > 1


def beside(first, second, log: logging.Logger, what: str, done: str) -> tuple:
    """``(first(), second())``, with the stderr of running them one after
    the other.

    Where ``cpu_free()``, ``first`` runs in a job while this process runs
    ``second`` with its records held. Then the job is reaped, which gives
    its CPUs back, and its records are emitted, then the held ones. If
    ``first`` fails, its records come out, then its error, and
    ``second``'s records are dropped, as a serial run never made them. If
    only ``second`` fails, its records and then its error come out after
    ``first``'s. Elsewhere ``first()`` then ``second()`` run here.

    ``what`` names ``first`` in a job's error ("the process <what> was
    killed by SIGKILL"), and ``done`` opens the DEBUG line that ``log``
    gets after the job's records.
    """
    if not cpu_free():
        return first(), second()
    job = _Job(first, what)
    held: list = []
    try:
        with _holding(held):
            result = second()
    finally:
        job.reap()
        _emit(job.records)
        if job.error is not None:
            raise job.error
        log.debug("%s, child %.2f s CPU, child peak RSS %.1f MB", done,
                  job.usage.ru_utime + job.usage.ru_stime, job.usage.ru_maxrss / 1024)
        _emit(held)
    return job.result, result


@contextlib.contextmanager
def _holding(records: list):
    """Append the package's log records (those its loggers' levels let
    through) and the warnings shown, in the order they come, to
    ``records`` instead of handling them, until the block ends. A filter
    put first on each of the package's loggers holds a record before any
    handler sees it, and before a holding block around this one does."""
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
        logger.filters.insert(0, hold_record)
    try:
        yield records
    finally:
        warnings.showwarning = shown
        for logger in loggers:
            logger.removeFilter(hold_record)


def _emit(records: list) -> None:
    """Handle held log records and show held warnings, in order."""
    for r in records:
        if isinstance(r, logging.LogRecord):
            logging.getLogger(r.name).handle(r)
        else:
            warnings.showwarning(r.message, r.category, r.filename, r.lineno, None, r.line)


class _Job:
    """``work()`` running in a forked child on the second half of this
    process's CPUs, this process kept to the first half; see ``beside``."""

    def __init__(self, work, what: str):
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
        self.pid, self.pipe, self.cpus, self.what = pid, open(read_end, "rb"), cpus[half:], what
        self.records: list = []
        self.result = self.error = None
        _running.append(self)
        _keep_to(cpus[:half])

    def reap(self) -> None:
        """Read the pipe to its end, reap the child and give its CPUs back
        to this process; keep its result or error, its records and its
        resource usage. Once only; it raises nothing of the child's."""
        if self not in _running:
            return
        _running.remove(self)
        try:
            with self.pipe:
                payload = self.pipe.read()
        finally:
            _, status, self.usage = os.wait4(self.pid, 0)
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
            with _holding(records):
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
