"""Versioned plain-text persistence helpers.

Every artifact file starts with a ``hybrid-ids <kind> v<N>`` line (behind a
``# `` prefix for comma-separated files). Floats are written with ``repr``
so reload is bit-exact.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .errors import FormatError


def version_line(kind: str) -> str:
    return f"hybrid-ids {kind} v1"


# the characters ``str.splitlines`` ends a line at
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_READ_CHARS = 1 << 20


def _read_lines(fh: TextIO) -> list[str]:
    """``fh.read().splitlines()``, read a chunk at a time. A large file's
    whole text, allocated and freed as one block, leaves a hole in the
    heap that the next large array may or may not fit, so the peak memory
    of a command that loads one varied from run to run; chunks keep every
    block small, and split faster."""
    lines: list[str] = []
    carry = ""
    for chunk in iter(lambda: fh.read(_READ_CHARS), ""):
        text = carry + chunk
        lines += text.splitlines()
        carry = "" if text[-1] in _LINE_BREAKS else lines.pop()
    if carry:
        lines.append(carry)
    return lines


class LineReader:
    """The lines of a text artifact, read in order; every error it makes
    names the file and the 1-based number of the last line read. The
    lines are read from ``path``, or are ``lines`` when the caller has read
    them already."""

    def __init__(self, path: str | Path, lines: list[str] | None = None):
        self.path = path
        self.line_no = 0
        if lines is not None:
            self.lines = lines
            return
        try:
            with open(path) as fh:
                self.lines = _read_lines(fh)
        except UnicodeDecodeError as exc:
            raise FormatError(f"not a text file ({exc})", path) from None

    def error(self, message: str) -> FormatError:
        return FormatError(message, self.path, self.line_no)

    def next(self, expected: str) -> str:
        self.line_no += 1
        if self.line_no > len(self.lines):
            raise self.error(f"unexpected end of file, expected {expected}")
        return self.lines[self.line_no - 1]

    def version(self, kind: str) -> None:
        """The format line, with or without the ``# `` of comma-separated files."""
        expected = version_line(kind)
        line = self.next("the format line").strip()
        if line.lstrip("# ").strip() != expected:
            raise self.error(f"expected format line '{expected}', got '{line}'")

    def value(self, key: str) -> str:
        """The text after ``<key>=`` on the next line."""
        line = self.next(f"'{key}='").strip()
        name, sep, value = line.partition("=")
        if not sep or name != key:
            raise self.error(f"expected '{key}=', got '{line}'")
        return value

    def number(self, text: str, kind: type, what: str):
        try:
            return kind(text)
        except ValueError:
            raise self.error(f"{what} '{text}' is not a valid {kind.__name__}") from None

    def floats(self, texts: list[str], count: int, what: str) -> np.ndarray:
        """``texts`` as exactly ``count`` finite float64 values."""
        try:
            values = np.array(texts, dtype=np.float64)
        except ValueError:  # numpy converts with float(); rescan to name the value
            values = np.array([self.number(v, float, what) for v in texts])
        if len(values) != count:
            raise self.error(f"expected {count} {what} values, got {len(values)}")
        if not np.isfinite(values).all():
            raise self.error(f"non-finite {what} value")
        return values

    def float_row(self, key: str, count: int) -> np.ndarray:
        """The next line: ``<key>`` and ``count`` finite floats."""
        head, _, text = self.next(f"'{key} <values>'").partition(" ")
        if head != key:
            raise self.error(f"expected '{key} <values>', got '{head}'")
        return self.floats(text.split(), count, key)

    def rest(self) -> Iterator[str]:
        """The lines after the last read one; each counts as read once yielded."""
        while self.line_no < len(self.lines):
            self.line_no += 1
            yield self.lines[self.line_no - 1]

    def end(self) -> None:
        """Fail when anything but blank lines follows the last read line."""
        for line in self.rest():
            if line.strip():
                raise self.error(f"unexpected content after the end: '{line}'")


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """Text handle on a temp file that replaces ``path`` when the block
    exits without an exception, so readers never see partial output."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp defaults to 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: str | Path, text: str) -> None:
    """Write via temp file + rename so readers never see partial output."""
    with atomic_open(path) as fh:
        fh.write(text)


def fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def stats_fingerprint(mean: np.ndarray, stddev: np.ndarray) -> str:
    """Short content hash identifying a standardization fit."""
    payload = (fmt_floats(mean) + "\n" + fmt_floats(stddev)).encode()
    return hashlib.sha256(payload).hexdigest()[:12]
