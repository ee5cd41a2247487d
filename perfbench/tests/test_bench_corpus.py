"""The generator is a pure function of its seed and makes the inputs the
workloads rely on."""

from collections import Counter

import pytest

import corpus
from hybrid_ids.dataset import Taxonomy, parse_kdd_line
from hybrid_ids.errors import ParseError


def test_training_corpus_is_byte_identical_per_seed():
    a = corpus.training_corpus(5)
    assert a == corpus.training_corpus(5)
    assert a != corpus.training_corpus(6)


def test_stream_traffic_is_byte_identical_per_seed():
    a = corpus.stream_traffic(5, 300)
    b = corpus.stream_traffic(5, 300)
    assert (a.text, a.truth, a.bad) == (b.text, b.truth, b.bad)
    assert a.text != corpus.stream_traffic(6, 300).text


def test_hard_corpus_shape():
    lines = corpus.training_corpus(3).splitlines()
    records = [parse_kdd_line(line, i + 1) for i, line in enumerate(lines)]
    taxonomy = Taxonomy.default()
    coarse = Counter(str(taxonomy.coarse(r.fine_label)) for r in records)
    assert set(coarse) == {"normal", "dos", "probe", "r2l", "u2r"}
    assert coarse["normal"] > coarse["probe"] > coarse["u2r"] > 0
    assert 1 - len(set(lines)) / len(lines) > 0.5  # mostly duplicates, as in KDD


def test_stream_bad_lines_are_exactly_the_rejected_ones():
    traffic = corpus.stream_traffic(9, 400)
    assert len(traffic.bad) == round(400 * corpus.BAD_SHARE)
    rejected = []
    for i, line in enumerate(traffic.text.splitlines()):
        try:
            parse_kdd_line(line, i + 1, labeled=len(line.split(",")) != 41)
        except ParseError:
            rejected.append(i)
    assert rejected == traffic.bad
    assert len(traffic.truth) == 400 - len(traffic.bad)


def test_corrupt_kinds_break_the_line():
    fields = ["0"] * 41
    fields[1] = "tcp"
    for kind in corpus.BAD_KINDS:
        line = ",".join(corpus._corrupt(fields, kind))
        with pytest.raises(ParseError):
            parse_kdd_line(line, 1, labeled=len(line.split(",")) != 41)
