"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """A KDD input line failed validation.

    Carries the 1-based line number and the offending column name so the
    CLI can report actionable diagnostics.
    """

    def __init__(self, message: str, line_no: int, column: str | None = None):
        self.line_no = line_no
        self.column = column
        where = f"line {line_no}"
        if column is not None:
            where += f", column '{column}'"
        super().__init__(f"{where}: {message}")


class UnmappedLabelError(ValueError):
    """A fine attack label has no entry in the configured taxonomy."""

    def __init__(self, fine_label: str):
        self.fine_label = fine_label
        super().__init__(
            f"fine label '{fine_label}' is not mapped to a coarse class; "
            "extend the taxonomy via config (taxonomy.<label>=<class>)"
        )


class FormatError(ValueError):
    """A persistence file is malformed, truncated, or has a mismatched
    format version. Names the file and the 1-based line when known."""

    def __init__(self, message: str, path=None, line_no: int | None = None):
        self.path = path
        self.line_no = line_no
        if path is not None:
            where = str(path) if line_no is None else f"{path}, line {line_no}"
            message = f"{where}: {message}"
        super().__init__(message)
