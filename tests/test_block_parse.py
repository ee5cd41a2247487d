"""``parse_kdd_block`` parses KDD lines a block at a time for ``predict``
and ``prepare``; ``parse_kdd_line`` run line by line is its oracle, for
the rows of the lines that parse and for the errors of those that do not.
``read_kdd_dataset`` has ``dict.fromkeys`` over those records as its."""

from __future__ import annotations

import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybrid_ids import cli, dataset
from hybrid_ids.centroids import CentroidModel
from hybrid_ids.dataset import (
    BLOCK_LINES,
    FIRST_BLOCK_LINES,
    N_FEATURES,
    N_RAW_FEATURES,
    Taxonomy,
    parse_kdd_block,
    parse_kdd_line,
    read_kdd_dataset,
)
from hybrid_ids.errors import ParseError
from hybrid_ids.hybrid import RoutingStats, Verdicts

from conftest import make_kdd_lines

_NUMERIC_INDICES = tuple(i for i in range(N_RAW_FEATURES) if i not in (1, 2, 3))
GOOD_NUMBERS = ["0", "1", "0.5", "1e3", "215", "45076", "0.07"]
# '1_000' and '١' are numbers to float() and not to loadtxt
BAD_NUMBERS = ["nan", "inf", "1e400", "-1", "-0", " 7 ", "1_000", "١", "x", ""]


def oracle(numbered, labeled):
    """The rows and the error messages of ``parse_kdd_line`` run line by line."""
    rows, messages = [], []
    for line_no, line in numbered:
        line_labeled = line.count(",") != N_RAW_FEATURES - 1 if labeled is None else labeled
        try:
            rows.append(parse_kdd_line(line, line_no, line_labeled).x)
        except ParseError as exc:
            messages.append(str(exc))
    return np.array(rows).reshape(-1, N_FEATURES), messages


@st.composite
def kdd_lines(draw):
    """A labeled or unlabeled line that is well formed, or fails in one of
    the ways a line can: its field count (40 or 43), an empty label, an
    unknown protocol, or numbers that are not finite, negative, padded, or
    spelled in a way only float() reads."""
    fields = [draw(st.sampled_from(GOOD_NUMBERS)) for _ in range(N_RAW_FEATURES)]
    fields[1:4] = draw(st.sampled_from(["tcp", "udp", "icmp"])), "http", "SF"
    fields += [draw(st.sampled_from(["normal.", "smurf", "neptune.."]))] * draw(st.booleans())
    fault = draw(st.sampled_from(["none"] * 4 + ["fields", "label", "protocol", "number"]))
    if fault == "fields":
        fields = (fields + ["0", "0"])[:draw(st.sampled_from([40, 43]))]
    elif fault == "label":
        fields = fields[:N_RAW_FEATURES] + [draw(st.sampled_from(["", ".", ".."]))]
    elif fault == "protocol":
        fields[1] = draw(st.sampled_from(["TCP", "sctp", ""]))
    elif fault == "number":
        for _ in range(draw(st.integers(1, 3))):
            fields[draw(st.sampled_from(_NUMERIC_INDICES))] = draw(st.sampled_from(BAD_NUMBERS))
    return draw(st.sampled_from(["", " "])) + ",".join(fields) + draw(st.sampled_from(["", "\n", " \n"]))


@st.composite
def numbered_blocks(draw):
    """Up to 60 numbered lines, some of them copies of others, with the line
    numbers rising by 1 or more."""
    pool = draw(st.lists(kdd_lines(), min_size=1, max_size=20))
    lines = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(lines), max_size=len(lines)))
    return list(zip(np.cumsum(gaps).tolist(), lines))


@settings(deadline=None, max_examples=400)
@given(numbered_blocks(), st.sampled_from([True, False, None]))
def test_block_matches_per_line_oracle(numbered, labeled):
    """The distinct rows, expanded by the index, are the oracle's rows, one
    per accepted line; each distinct accepted text has one row, in
    first-seen order."""
    X, index, errors = parse_kdd_block(numbered, labeled)
    rows, messages = oracle(numbered, labeled)
    assert [str(e) for e in errors] == messages
    assert X.dtype == np.float64 and X[index].shape == rows.shape
    assert X[index].tobytes() == rows.tobytes()
    error_lines = {e.line_no for e in errors}
    accepted = [line.strip() for line_no, line in numbered if line_no not in error_lines]
    assert index.tolist() == [list(dict.fromkeys(accepted)).index(t) for t in accepted]


def test_clean_block_calls_no_per_line_parser(monkeypatch):
    lines = make_kdd_lines({"normal": 30, "smurf": 20, "ipsweep": 10}, seed=2)
    numbered = list(enumerate(lines + [l.rsplit(",", 1)[0] for l in lines], start=1))
    expected = oracle(numbered, None)[0]
    monkeypatch.setattr(dataset, "parse_kdd_line", None)  # any call fails
    X, index, errors = parse_kdd_block(numbered, labeled=None)
    assert errors == [] and X[index].tobytes() == expected.tobytes()


def test_block_errors_leave_no_reference_cycle():
    """A kept error must not hold the block's frame, and through it the
    block's arrays, in a cycle: ``predict`` would then keep every block
    with a rejected line until a full garbage collection."""
    lines = make_kdd_lines({"normal": 30, "smurf": 20}, seed=2)
    lines[3] = lines[3].replace(",0,", ",x,", 1)  # float() fails: a ValueError context
    lines[7] = lines[7].replace(",0,", ",-1,", 1)
    gc.collect()
    gc.disable()
    try:
        X, index, errors = parse_kdd_block(list(enumerate(lines, start=1)))
        assert [e.line_no for e in errors] == [4, 8]
        del X, index, errors
        assert gc.collect() == 0
    finally:
        gc.enable()



def test_long_bad_line_costs_no_string_per_field():
    """A line of 10**6 fields is refused on its comma count, before it is
    split: a block holding one of 3 MB peaks at a few KB of traced
    allocations. Splitting it first took 59 MB, about 20 times its length."""
    line = "10," * 10**6 + "normal."
    tracemalloc.start()
    try:
        X, index, errors = parse_kdd_block([(1, line)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [str(e) for e in errors] == ["line 1: expected 42 fields, got 1000001"]
    assert len(X) == len(index) == 0
    assert peak < len(line) / 10

def _faulty(line: str, fault: str) -> str:
    fields = line.split(",")
    if fault == "protocol":
        fields[1] = "sctp"
    else:  # a number the block check refuses, or one only float() reads
        fields[5] = fault
    return ",".join(fields)


# a line is refused by a screen, by the row check, or (with the whole
# block) by loadtxt, which parse_kdd_line then accepts
FAULTS = ["protocol", "-1", "1_000"]


def predicted_rows(tmp_path, monkeypatch, lines):
    """The rows that ``predict`` hands to ``predict_dataset`` for ``lines``,
    and its rejects file, with the model's load and scoring stubbed out."""
    scored = []
    normal = CentroidModel(["normal"], np.zeros(1, dtype=np.int64), np.zeros((1, N_FEATURES)),
                           np.ones(1, dtype=np.int64))

    def score(model, ds, index):
        scored.append(ds.X[index])
        none = np.zeros(len(index), dtype=np.int64)
        return Verdicts(none, none, none - 1, none.astype(bool), none, normal), RoutingStats(len(index))

    monkeypatch.setattr(cli, "load_hybrid", lambda path: None)
    monkeypatch.setattr(cli, "predict_dataset", score)
    path = tmp_path / "stream.txt"
    path.write_text("".join(l + "\n" for l in lines))
    assert cli.main(["predict", "--out", str(tmp_path), "--input", str(path)]) == 0
    rejects = tmp_path / "predictions.rejects.txt"
    return np.concatenate(scored), rejects.read_text().splitlines() if rejects.exists() else []


# the last line of the first block and of the second, the lines on either
# side of each, and line BLOCK_LINES and its neighbours, inside the second
# block
EDGES = [edge + d for edge in (FIRST_BLOCK_LINES, BLOCK_LINES, FIRST_BLOCK_LINES + BLOCK_LINES)
         for d in (-1, 0, 1)]


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("position", EDGES)
def test_predict_chunks_at_block_edges_match_oracle(tmp_path, monkeypatch, position, fault):
    lines = make_kdd_lines({"normal": 700, "neptune": 300, "ipsweep": 100}, seed=5)
    lines = [l if i % 2 else l.rsplit(",", 1)[0] for i, l in enumerate(lines)]
    lines[position - 1] = _faulty(lines[position - 1], fault)
    X, rejects = predicted_rows(tmp_path, monkeypatch, lines)
    rows, messages = oracle(list(enumerate(lines, start=1)), None)
    assert rejects == messages and len(messages) == (fault != "1_000")
    assert X.tobytes() == rows.tobytes()


def file_oracle(lines):
    """The rows, fine labels and count of the non-blank lines, one
    ``parse_kdd_line`` record per distinct (41 fields as the stripped line
    gives them, label without trailing dots) in first-seen order; raises
    the first line's ParseError."""
    numbered = [(n, line) for n, line in enumerate(lines, start=1) if line.strip()]
    distinct = {}
    for n, line in numbered:
        record = parse_kdd_line(line, n)
        distinct.setdefault((line.strip().rpartition(",")[0], record.fine_label), record)
    records = list(distinct.values())
    rows = np.array([r.x for r in records]).reshape(-1, N_FEATURES)
    return rows, [r.fine_label for r in records], len(numbered)


def read_matches_oracle(path, lines):
    try:
        rows, labels, parsed = file_oracle(lines)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            read_kdd_dataset(path, Taxonomy.default())
        assert (str(info.value), info.value.line_no) == (str(exc), exc.line_no)
        return
    ds, n = read_kdd_dataset(path, Taxonomy.default())
    assert ds.X.tobytes() == rows.tobytes()
    assert (ds.fine_labels.tolist(), n) == (labels, parsed)
    assert ds.coarse.tolist() == [Taxonomy.default().coarse(label) for label in labels]


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("position", EDGES)
def test_read_kdd_file_at_block_edges_matches_oracle(tmp_path, position, fault):
    lines = make_kdd_lines({"normal": 700, "neptune": 300, "ipsweep": 100}, seed=5)
    lines[position - 1] = _faulty(lines[position - 1], fault)
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n")
    read_matches_oracle(path, lines)


@st.composite
def kdd_files(draw):
    """The lines of a labeled KDD file: copies of up to 12 well-formed lines,
    their labels' dots and their padding spelled anew, blank lines, and at
    times one line from ``kdd_lines`` or a line with no comma at all."""
    pool = []
    for _ in range(draw(st.integers(1, 12))):
        fields = [draw(st.sampled_from(GOOD_NUMBERS + ["1_000"])) for _ in range(N_RAW_FEATURES)]
        fields[1:4] = draw(st.sampled_from(["tcp", "udp", "icmp"])), "http", "SF"
        pool.append(",".join(fields + [draw(st.sampled_from(["normal", "smurf", "neptune"]))]))
    lines = [
        draw(st.sampled_from(["", " "])) + line + draw(st.sampled_from(["", ".", "..", ". ", " "]))
        for line in draw(st.lists(st.sampled_from(pool + [""]), max_size=40))
    ]
    extra = draw(st.sampled_from(["", "abc", "abc."]) | kdd_lines())
    if extra:
        lines.insert(draw(st.integers(0, len(lines))), extra.rstrip("\n"))
    return lines


@settings(deadline=None, max_examples=200)
@given(kdd_files(), st.sampled_from([(1, 1), (2, 5), (5, 2), (FIRST_BLOCK_LINES, BLOCK_LINES)]))
def test_read_kdd_dataset_matches_oracle(tmp_path_factory, lines, sizes):
    """Whatever the sizes of the first block and of the rest."""
    path = tmp_path_factory.getbasetemp() / "oracle.txt"
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.multiple(dataset, FIRST_BLOCK_LINES=sizes[0], BLOCK_LINES=sizes[1]):
        read_matches_oracle(path, lines)


def test_repeated_bad_lines_keep_their_own_errors():
    """A bad line repeated in a block is refused at each of its lines, under
    each line's own number; a repeated good line is one row."""
    good, other = make_kdd_lines({"normal": 1, "smurf": 1}, seed=4)
    bad = good.replace(",tcp,", ",sctp,", 1)
    numbered = list(enumerate([good, bad, other, bad, good, " " + bad, other], start=1))
    X, index, errors = parse_kdd_block(numbered)
    assert [(e.line_no, e.column) for e in errors] == [(2, "protocol_type"), (4, "protocol_type"),
                                                      (6, "protocol_type")]
    assert index.tolist() == [0, 1, 0, 1]
    assert X.tobytes() == oracle([(1, good), (3, other)], True)[0].tobytes()
