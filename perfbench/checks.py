"""Correctness checks on the files and text the commands produce.

Each check takes plain text or values and returns a list of problems (an
empty list means it passed), so tests can feed it corrupted files.
"""

from __future__ import annotations

import re

# Columns of predictions.csv and of every verdict row on stdout.
COLUMNS = ("coarse", "fine", "routed", "nn_vote", "rf_vote", "misuse_vote")


def verdict_rows(text: str) -> list[tuple[str, ...]]:
    """Verdict rows of a predictions file (comment and header lines skipped)."""
    header = ",".join(COLUMNS)
    return [
        tuple(line.split(","))
        for line in text.splitlines()
        if line and not line.startswith("#") and line != header
    ]


def format_verdict(pred) -> tuple[str, ...]:
    """A prediction object's fields formatted as the CLI writes them."""
    return (
        str(pred.coarse),
        pred.fine if pred.fine is not None else "-",
        str(bool(pred.routed)).lower(),
        str(pred.nn_vote),
        str(pred.rf_vote),
        str(pred.misuse_vote) if pred.misuse_vote is not None else "-",
    )


def rows_match(cli_rows: list[tuple], reference_rows: list[tuple]) -> list[str]:
    """The CLI's verdicts equal the batched path's, row by row."""
    problems = []
    if len(cli_rows) != len(reference_rows):
        problems.append(f"{len(cli_rows)} verdict rows, expected {len(reference_rows)}")
    differ = [i for i, (a, b) in enumerate(zip(cli_rows, reference_rows)) if a != b]
    if differ:
        i = differ[0]
        problems.append(
            f"{len(differ)} verdicts differ from predict_dataset; first at row {i + 1}: "
            f"{','.join(cli_rows[i])} != {','.join(reference_rows[i])}"
        )
    return problems


def fine_iff_routed(rows: list[tuple]) -> list[str]:
    """A fine label is present exactly when the record was routed."""
    bad = [
        i for i, row in enumerate(rows)
        if len(row) != len(COLUMNS)
        or row[2] not in ("true", "false")
        or (row[2] == "true") != (row[1] != "-")
    ]
    if bad:
        return [f"{len(bad)} rows break 'fine label iff routed'; first at row {bad[0] + 1}"]
    return []


def routing_counts(text: str) -> dict[str, int]:
    """``key=value`` routing counts from a routing file or a stats line."""
    return {k: int(v) for k, v in re.findall(r"\b(total|records|routed|trimmed|confirmed)=(\d+)", text)}


def routing_adds_up(counts: dict[str, int], rows: list[tuple] | None = None) -> list[str]:
    """``routed = trimmed + confirmed``; with verdict rows, the reported
    counts also equal the rows' own."""
    need = ("routed", "trimmed", "confirmed")
    if not all(k in counts for k in need):
        return [f"routing counts missing: got {sorted(counts)}"]
    problems = []
    if counts["routed"] != counts["trimmed"] + counts["confirmed"]:
        problems.append(
            f"routed={counts['routed']} != trimmed={counts['trimmed']} "
            f"+ confirmed={counts['confirmed']}"
        )
    if rows is not None:
        routed = [r for r in rows if len(r) > 2 and r[2] == "true"]
        own = {
            "routed": len(routed),
            "trimmed": sum(1 for r in routed if r[0] == "normal"),
            "confirmed": sum(1 for r in routed if r[0] != "normal"),
        }
        for k in need:
            if counts[k] != own[k]:
                problems.append(f"reported {k}={counts[k]} but the rows give {own[k]}")
    return problems


def rejected_count(rejects_text: str, n_bad: int) -> list[str]:
    """One rejects line per injected malformed line."""
    n = sum(1 for line in rejects_text.splitlines() if line.strip())
    if n != n_bad:
        return [f"{n} lines rejected, {n_bad} malformed lines injected"]
    return []


def identical(name: str, first: bytes | None, again: bytes | None) -> list[str]:
    """A repeated run wrote the same bytes."""
    if first != again:
        return [f"{name} differs between repeated runs of the same code"]
    return []


def confusion_totals(text: str) -> tuple[int, int]:
    """(records, correct) of a confusion CSV: rows are truth, columns
    predictions, both in the header's class order."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    if not lines:
        return 0, 0
    classes = lines[0].split(",")[1:]
    total = correct = 0
    for line in lines[1:]:
        name, *counts = line.split(",")
        values = [int(v) for v in counts]
        total += sum(values)
        if name in classes:
            correct += values[classes.index(name)]
    return total, correct
