"""``parse_kdd_line`` validates and encodes a line in one pass. The
two-pass parser it replaced (validate every field, keep the strings, then
convert them again to encode) lives on here only as the oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybrid_ids.dataset import (
    KDD_COLUMNS,
    N_FEATURES,
    N_RAW_FEATURES,
    PROTOCOL_INDEX,
    PROTOCOLS,
    parse_kdd_line,
)
from hybrid_ids.errors import ParseError

_NUMERIC_INDICES = tuple(i for i in range(N_RAW_FEATURES) if i not in (1, 2, 3))


def oracle_parse(line: str, line_no: int = 1, labeled: bool = True) -> tuple[tuple[str, ...], str]:
    """The validating first pass: the 41 feature strings and the label."""
    parts = line.strip().split(",")
    expected = N_RAW_FEATURES + 1 if labeled else N_RAW_FEATURES
    if len(parts) != expected:
        raise ParseError(f"expected {expected} fields, got {len(parts)}", line_no)
    if labeled:
        fine_label = parts[-1].rstrip(".")
        if not fine_label:
            raise ParseError("empty label field", line_no, "label")
        parts = parts[:-1]
    else:
        fine_label = ""
    if parts[PROTOCOL_INDEX] not in PROTOCOLS:
        raise ParseError(
            f"unknown protocol_type '{parts[PROTOCOL_INDEX]}'", line_no, "protocol_type"
        )
    for i in _NUMERIC_INDICES:
        try:
            value = float(parts[i])
        except ValueError:
            raise ParseError(
                f"unparseable numeric value '{parts[i]}'", line_no, KDD_COLUMNS[i]
            ) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value '{parts[i]}'", line_no, KDD_COLUMNS[i])
        if value < 0:
            raise ParseError(f"negative value {parts[i]}", line_no, KDD_COLUMNS[i])
    return tuple(parts), fine_label


def oracle_encode(fields: tuple[str, ...]) -> np.ndarray:
    """The second pass: drop service/flag, one-hot the protocol, convert
    the numeric strings again."""
    x = np.empty(N_FEATURES, dtype=np.float64)
    x[0] = float(fields[0])
    proto = fields[PROTOCOL_INDEX]
    x[1] = 1.0 if proto == "tcp" else 0.0
    x[2] = 1.0 if proto == "udp" else 0.0
    x[3] = 1.0 if proto == "icmp" else 0.0
    for out_i, raw_i in enumerate(range(4, N_RAW_FEATURES), start=4):
        x[out_i] = float(fields[raw_i])
    return x


ACCEPTED = ["0", "-0", "0.0", ".5", "5.", "1e-5", "1E3", "1_000", " 7", "1e308"]
# "-inf" and "-1e400" are non-finite before they are negative
NUMERIC_TEXTS = ACCEPTED + ["1e400", "nan", "inf", "-1", "", "x", "-inf", "-1e400"]
LABELS = ["normal.", "normal..", ".", ""]


@st.composite
def kdd_lines(draw):
    """A line and its ``labeled`` flag. Most lines have the field count the
    flag expects and accepted numbers, with up to three fields redrawn from
    every kind of numeric text, so each check is reached."""
    labeled = draw(st.booleans())
    expected = N_RAW_FEATURES + 1 if labeled else N_RAW_FEATURES
    n_fields = draw(st.sampled_from([expected] * 4 + [40, 41, 42, 43]))
    fields = [draw(st.sampled_from(ACCEPTED)) for _ in range(N_RAW_FEATURES)]
    for _ in range(draw(st.integers(0, 3))):
        fields[draw(st.sampled_from(_NUMERIC_INDICES))] = draw(st.sampled_from(NUMERIC_TEXTS))
    fields[1] = draw(st.sampled_from(["tcp", "udp", "icmp", "TCP"]))
    fields[2] = draw(st.sampled_from(["http", "private"]))
    fields[3] = draw(st.sampled_from(["SF", "S0"]))
    fields += [draw(st.sampled_from(LABELS)) for _ in range(n_fields - N_RAW_FEATURES)]
    line = ",".join(fields[:n_fields]) + draw(st.sampled_from(["", " ", "\n", " \t\n"]))
    return line, labeled


@settings(deadline=None, max_examples=800)
@given(kdd_lines(), st.integers(1, 10**6))
def test_one_pass_parse_matches_two_pass_oracle(drawn, line_no):
    line, labeled = drawn
    try:
        fields, label = oracle_parse(line, line_no, labeled)
    except ParseError as expected:
        with pytest.raises(ParseError) as info:
            parse_kdd_line(line, line_no, labeled)
        got = info.value
        assert (str(got), got.column, got.line_no) == (
            str(expected), expected.column, expected.line_no)
        return
    rec = parse_kdd_line(line, line_no, labeled)
    assert rec.fine_label == label
    assert rec.x.dtype == np.float64 and rec.x.shape == (N_FEATURES,)
    assert np.array_equal(rec.x.view(np.int64), oracle_encode(fields).view(np.int64))


def test_one_pass_parse_keeps_accepted_spellings():
    fields = ["0"] * N_RAW_FEATURES
    fields[1:4] = ["udp", "private", "SF"]
    fields[0], fields[4], fields[5], fields[6], fields[7] = "1_000", " 7", ".5", "-0", "1E3"
    rec = parse_kdd_line(",".join(fields) + ",normal..")
    assert rec.fine_label == "normal"
    assert rec.x[:8].tolist() == [1000.0, 0.0, 1.0, 0.0, 7.0, 0.5, -0.0, 1000.0]
    assert math.copysign(1.0, rec.x[6]) == -1.0
