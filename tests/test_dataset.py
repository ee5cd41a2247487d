"""Parsing, dedup, taxonomy, encoding, resampling, standardization, folds."""

from __future__ import annotations

import gzip
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hybrid_ids.dataset import (
    COARSE_NAMES,
    ENCODED_COLUMNS,
    KDD_COLUMNS,
    N_FEATURES,
    CoarseLabel,
    Dataset,
    Provenance,
    SamplingPlan,
    Taxonomy,
    load_dataset,
    load_stats,
    load_taxonomy,
    parse_kdd_line,
    read_kdd_dataset,
    resample,
    save_dataset,
    save_stats,
    standardize_apply,
    standardize_dataset,
    standardize_fit,
    stratified_kfold,
    stratified_split,
)
from hybrid_ids.errors import FormatError, ParseError, UnmappedLabelError

from conftest import expect_load_error, separable_dataset
from test_artifacts import saved

# Hand-built line in canonical column order: an http connection with
# duration 0, 181 bytes out, 5450 bytes back, 8 connections to the same
# host, 9 to the same destination, 11% same-source-port rate.
SAMPLE_LINE = (
    "0,tcp,http,SF,181,5450,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,8,8,"
    "0.00,0.00,0.00,0.00,1.00,0.00,0.00,9,9,1.00,0.00,0.11,0.00,0.00,0.00,0.00,0.00,normal."
)


def test_parse_sample_line_fields():
    rec = parse_kdd_line(SAMPLE_LINE)
    fields = rec.text.split(",")
    assert len(fields) == 41
    assert fields[0] == "0"
    assert fields[1] == "tcp"
    assert fields[2] == "http"
    assert fields[3] == "SF"
    assert fields[4] == "181"
    assert fields[5] == "5450"
    assert fields[22] == "8"
    assert fields[31] == "9"
    assert fields[35] == "0.11"
    assert rec.fine_label == "normal"


def test_parse_strips_trailing_dot():
    line = SAMPLE_LINE.replace("normal.", "smurf.")
    assert parse_kdd_line(line).fine_label == "smurf"


def test_parse_label_without_dot():
    line = SAMPLE_LINE.replace("normal.", "neptune")
    assert parse_kdd_line(line).fine_label == "neptune"


def test_parse_wrong_field_count():
    short = ",".join(SAMPLE_LINE.split(",")[:41])
    with pytest.raises(ParseError, match="expected 42 fields"):
        parse_kdd_line(short, line_no=17)
    try:
        parse_kdd_line(short, line_no=17)
    except ParseError as exc:
        assert exc.line_no == 17


def test_parse_unknown_protocol():
    bad = SAMPLE_LINE.replace(",tcp,", ",gre,")
    with pytest.raises(ParseError, match="protocol_type"):
        parse_kdd_line(bad, line_no=3)


def test_parse_bad_numeric_names_column():
    parts = SAMPLE_LINE.split(",")
    parts[4] = "abc"
    with pytest.raises(ParseError, match="src_bytes"):
        parse_kdd_line(",".join(parts))


def test_parse_negative_numeric_rejected():
    parts = SAMPLE_LINE.split(",")
    parts[5] = "-4"
    with pytest.raises(ParseError, match="negative"):
        parse_kdd_line(",".join(parts))


NUMERIC_COLUMNS = [i for i, name in enumerate(KDD_COLUMNS)
                   if name not in ("protocol_type", "service", "flag")]
NON_FINITE = ("nan", "NaN", "-nan", "inf", "-inf", "+INF", "Infinity", "1e400", "-1e400")


@pytest.mark.parametrize("text", NON_FINITE)
def test_parse_non_finite_rejected(text):
    parts = SAMPLE_LINE.split(",")
    parts[22] = text
    with pytest.raises(ParseError, match="non-finite") as info:
        parse_kdd_line(",".join(parts), line_no=5)
    assert info.value.column == "count" and info.value.line_no == 5


finite_text = st.one_of(
    st.integers(min_value=0, max_value=10**30).map(str),
    st.floats(min_value=0.0, max_value=1e300).map(repr),
    st.sampled_from(["0.00", "1.00", "0.11", "1e3", "5E-2", "+7", "1e308"]),
)
non_finite_text = st.one_of(
    st.sampled_from(NON_FINITE),
    st.integers(min_value=309, max_value=10**4).map(lambda e: f"1e{e}"),
)
any_text = st.one_of(
    finite_text, non_finite_text, st.floats().map(repr),
    st.text(alphabet="0123456789.eE+-naifINF", max_size=8),
)


def _line_with(values: list[str]) -> str:
    parts = SAMPLE_LINE.split(",")
    for i, value in zip(NUMERIC_COLUMNS, values):
        parts[i] = value
    return ",".join(parts)


@settings(deadline=None)
@given(st.lists(finite_text, min_size=38, max_size=38),
       st.sampled_from(NUMERIC_COLUMNS), non_finite_text)
def test_parse_non_finite_field_always_rejected(values, column, bad):
    parts = _line_with(values).split(",")
    parts[column] = bad
    with pytest.raises(ParseError) as info:
        parse_kdd_line(",".join(parts))
    assert info.value.column == KDD_COLUMNS[column]


@settings(deadline=None)
@given(st.lists(finite_text, min_size=38, max_size=38),
       st.dictionaries(st.integers(min_value=0, max_value=37), any_text, max_size=3))
def test_parse_accepted_lines_encode_to_finite_vectors(values, replaced):
    for k, text in replaced.items():
        values[k] = text
    try:
        record = parse_kdd_line(_line_with(values))
    except ParseError:
        return
    assert np.isfinite(record.x).all()


def test_parse_unlabeled_line():
    unlabeled = ",".join(SAMPLE_LINE.split(",")[:41])
    rec = parse_kdd_line(unlabeled, labeled=False)
    assert rec.fine_label == ""
    assert len(rec.text.split(",")) == 41


def _read(tmp_path, lines):
    path = tmp_path / "kdd.txt"
    path.write_text("\n".join(lines) + "\n")
    return read_kdd_dataset(path, Taxonomy.default())


def test_read_kdd_file_gzip(tmp_path):
    path = tmp_path / "mini.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(SAMPLE_LINE + "\n\n" + SAMPLE_LINE.replace("normal.", "smurf.") + "\n")
    ds, parsed = read_kdd_dataset(path, Taxonomy.default())
    assert (ds.fine_labels.tolist(), ds.coarse.tolist(), parsed) == (
        ["normal", "smurf"], [CoarseLabel.NORMAL, CoarseLabel.DOS], 2)
    assert ds.provenance.describe() == f"source={path} dedup=true"


def test_read_kdd_file_repeated_lines_give_equal_records(tmp_path):
    other = SAMPLE_LINE.replace("181", "182")
    lines = [SAMPLE_LINE, other, SAMPLE_LINE, "", SAMPLE_LINE + "  ", other, SAMPLE_LINE]
    ds, parsed = _read(tmp_path, lines)
    oracle = np.array([parse_kdd_line(SAMPLE_LINE).x, parse_kdd_line(other).x])
    assert ds.X.tobytes() == oracle.tobytes() and parsed == 6


@pytest.mark.parametrize("lines, line_no", [
    ([SAMPLE_LINE] * 3 + ["0,tcp,http,SF,1,normal."] + [SAMPLE_LINE], 4),
    ([SAMPLE_LINE, SAMPLE_LINE, "", SAMPLE_LINE.replace("181", "-1"), SAMPLE_LINE,
      SAMPLE_LINE.replace("181", "-1")], 4),
    ([SAMPLE_LINE, SAMPLE_LINE, SAMPLE_LINE.replace("tcp", "sctp"), SAMPLE_LINE,
      SAMPLE_LINE.replace("181", "nan")], 3),
])
def test_read_kdd_file_malformed_line_after_repeats_names_its_line(tmp_path, lines, line_no):
    with pytest.raises(ParseError) as info:
        _read(tmp_path, lines)
    with pytest.raises(ParseError) as expected:
        parse_kdd_line(lines[line_no - 1], line_no)
    assert (str(info.value), info.value.line_no) == (str(expected.value), line_no)


def test_dedup_collapses_exact_duplicates(tmp_path):
    smurf = SAMPLE_LINE.replace("normal.", "smurf.")
    ds, parsed = _read(tmp_path, [SAMPLE_LINE, SAMPLE_LINE, smurf])
    assert ds.fine_labels.tolist() == ["normal", "smurf"] and parsed == 3


def test_dedup_preserves_order_and_is_idempotent(tmp_path):
    lines = [SAMPLE_LINE, SAMPLE_LINE.replace("181", "182"), SAMPLE_LINE]
    once, _ = _read(tmp_path, lines)
    assert once.X[:, 4].tolist() == [181.0, 182.0]
    twice, parsed = _read(tmp_path, lines[:2])
    assert twice.X.tobytes() == once.X.tobytes() and parsed == 2


def test_dedup_label_participates_in_key(tmp_path):
    """The key is the 41 fields and the label without its trailing dots."""
    head = SAMPLE_LINE.rsplit(",", 1)[0]
    lines = [f"{head},normal.", f"{head},smurf.", f"{head},normal", f"{head},normal..",
             f" {head},smurf "]
    ds, parsed = _read(tmp_path, lines)
    assert ds.fine_labels.tolist() == ["normal", "smurf"] and parsed == 5


def test_taxonomy_mappings():
    tax = Taxonomy.default()
    assert tax.coarse("neptune") == CoarseLabel.DOS
    assert tax.coarse("normal") == CoarseLabel.NORMAL
    assert tax.coarse("guess_passwd") == CoarseLabel.R2L
    assert tax.coarse("satan") == CoarseLabel.PROBE
    assert tax.coarse("rootkit") == CoarseLabel.U2R


def test_taxonomy_unmapped_label_errors():
    tax = Taxonomy.default()
    with pytest.raises(UnmappedLabelError, match="saint_v2"):
        tax.coarse("saint_v2")


def test_taxonomy_extension():
    tax = Taxonomy.default().extended({"saint": CoarseLabel.PROBE})
    assert tax.coarse("saint") == CoarseLabel.PROBE
    assert "saint" not in Taxonomy.default()


def test_coarse_label_rtl_alias_and_order():
    assert CoarseLabel.from_name("rtl") == CoarseLabel.R2L
    assert CoarseLabel.from_name("R2L") == CoarseLabel.R2L
    assert [int(c) for c in CoarseLabel] == [0, 1, 2, 3, 4]
    assert str(CoarseLabel.DOS) == "dos"


def test_encode_one_hot_blocks():
    tcp = parse_kdd_line(SAMPLE_LINE)
    assert tuple(tcp.x[1:4]) == (1.0, 0.0, 0.0)
    udp_line = SAMPLE_LINE.replace(",tcp,", ",udp,")
    assert tuple(parse_kdd_line(udp_line).x[1:4]) == (0.0, 1.0, 0.0)
    icmp_line = SAMPLE_LINE.replace(",tcp,", ",icmp,")
    assert tuple(parse_kdd_line(icmp_line).x[1:4]) == (0.0, 0.0, 1.0)


def test_encode_dimension_and_columns():
    assert len(ENCODED_COLUMNS) == 41
    assert len(KDD_COLUMNS) == 41
    rec = parse_kdd_line(SAMPLE_LINE)
    assert rec.x.shape == (N_FEATURES,)
    assert rec.x.dtype == np.float64
    assert Taxonomy.default().coarse(rec.fine_label) == CoarseLabel.NORMAL
    # spot-check passthrough positions against the documented order
    assert rec.x[0] == 0.0
    assert rec.x[4] == 181.0
    assert rec.x[5] == 5450.0
    assert rec.x[ENCODED_COLUMNS.index("dst_host_same_src_port_rate")] == 0.11


def test_encode_ignores_dropped_columns():
    a = parse_kdd_line(SAMPLE_LINE)
    b = parse_kdd_line(SAMPLE_LINE.replace(",SF,", ",REJ,"))
    c = parse_kdd_line(SAMPLE_LINE.replace(",http,", ",smtp,"))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.x, c.x)


def test_encode_deterministic():
    a = parse_kdd_line(SAMPLE_LINE).x
    b = parse_kdd_line(SAMPLE_LINE).x
    assert np.array_equal(a, b)


def _tiny_dataset(counts: dict[CoarseLabel, int], seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    X, fine, coarse = [], [], []
    for c, n in counts.items():
        for _ in range(n):
            X.append(rng.normal(size=N_FEATURES))
            fine.append(f"label_{int(c)}")
            coarse.append(int(c))
    return Dataset(np.array(X), fine, coarse)


def test_resample_hits_targets_exactly():
    ds = _tiny_dataset({c: n for c, n in zip(CoarseLabel, (50, 40, 30, 20, 10))})
    plan = SamplingPlan(
        {
            CoarseLabel.NORMAL: 25,
            CoarseLabel.DOS: 40,
            CoarseLabel.PROBE: 45,
            CoarseLabel.R2L: 20,
            CoarseLabel.U2R: 17,
        },
        rng_seed=3,
    )
    out = resample(ds, plan)
    got = out.counts_by_coarse()
    assert got == plan.targets
    assert len(out) == sum(plan.targets.values())


def test_resample_identity_plan_keeps_multiset():
    ds = _tiny_dataset({c: n for c, n in zip(CoarseLabel, (5, 4, 3, 2, 2))})
    plan = SamplingPlan({c: int(n) for c, n in ds.counts_by_coarse().items()}, rng_seed=1)
    out = resample(ds, plan)
    before = Counter(map(tuple, ds.X))
    after = Counter(map(tuple, out.X))
    assert before == after


def test_resample_upsample_contains_all_originals():
    # 52 -> 86: every original row present, 34 extra drawn from the originals
    ds = _tiny_dataset({CoarseLabel.U2R: 52, CoarseLabel.NORMAL: 5})
    plan = SamplingPlan({CoarseLabel.NORMAL: 5, CoarseLabel.DOS: 0,
                         CoarseLabel.PROBE: 0, CoarseLabel.R2L: 0,
                         CoarseLabel.U2R: 86}, rng_seed=11)
    out = resample(ds, plan)
    originals = Counter(map(tuple, ds.X[ds.coarse == int(CoarseLabel.U2R)]))
    sampled = Counter(map(tuple, out.X[out.coarse == int(CoarseLabel.U2R)]))
    assert sum(sampled.values()) == 86
    for row, n in originals.items():
        assert sampled[row] >= n  # every original survives up-sampling
    assert set(sampled) == set(originals)  # no invented rows


def test_resample_downsample_is_without_replacement():
    ds = _tiny_dataset({CoarseLabel.NORMAL: 30, CoarseLabel.DOS: 4})
    plan = SamplingPlan({CoarseLabel.NORMAL: 12, CoarseLabel.DOS: 4,
                         CoarseLabel.PROBE: 0, CoarseLabel.R2L: 0,
                         CoarseLabel.U2R: 0}, rng_seed=2)
    out = resample(ds, plan)
    rows = list(map(tuple, out.X[out.coarse == int(CoarseLabel.NORMAL)]))
    assert len(rows) == len(set(rows)) == 12
    originals = set(map(tuple, ds.X[ds.coarse == int(CoarseLabel.NORMAL)]))
    assert set(rows) <= originals


def test_resample_empty_class_with_positive_target_errors():
    ds = _tiny_dataset({CoarseLabel.NORMAL: 5})
    plan = SamplingPlan({CoarseLabel.NORMAL: 5, CoarseLabel.DOS: 3,
                         CoarseLabel.PROBE: 0, CoarseLabel.R2L: 0,
                         CoarseLabel.U2R: 0}, rng_seed=0)
    with pytest.raises(ValueError, match="empty class"):
        resample(ds, plan)


def test_resample_deterministic_per_seed():
    ds = _tiny_dataset({c: 20 for c in CoarseLabel})
    plan = SamplingPlan({c: 10 for c in CoarseLabel}, rng_seed=5)
    a = resample(ds, plan)
    b = resample(ds, plan)
    assert np.array_equal(a.X, b.X)


def test_standardize_hand_case():
    X = np.zeros((2, N_FEATURES))
    X[0, 0], X[1, 0] = 1.0, 3.0
    ds = Dataset(X, ["normal", "normal"], [0, 0])
    stats = standardize_fit(ds)
    assert stats.mean[0] == 2.0
    assert stats.stddev[0] == 1.0  # population stddev of {1, 3}
    out = standardize_apply(stats, ds.X)
    assert out[0, 0] == -1.0 and out[1, 0] == 1.0


def test_standardize_constant_column_maps_to_zero():
    X = np.full((3, N_FEATURES), 7.0)
    ds = Dataset(X, ["a"] * 3, [0] * 3)
    stats = standardize_fit(ds)
    assert stats.stddev[0] == 0.0
    out = standardize_apply(stats, ds.X)
    assert np.all(out == 0.0)


def test_standardize_fit_then_apply_centers_brute_force():
    ds = separable_dataset(n_per_label=15, seed=4)
    stats = standardize_fit(ds)
    out = standardize_apply(stats, ds.X)
    # independent re-check: plain per-column mean of the transformed data
    for j in range(N_FEATURES):
        assert abs(sum(out[:, j]) / len(out)) < 1e-9


def test_standardize_dimension_mismatch():
    ds = separable_dataset(n_per_label=5)
    stats = standardize_fit(ds)
    with pytest.raises(ValueError, match="dimension"):
        standardize_apply(stats, np.zeros(7))


def test_stratified_kfold_hand_counts():
    ds = _tiny_dataset({CoarseLabel.NORMAL: 6, CoarseLabel.DOS: 4})
    folds = stratified_kfold(ds, 2, seed=0)
    assert len(folds) == 2
    for train, val in folds:
        assert val.counts_by_coarse()[CoarseLabel.NORMAL] == 3
        assert val.counts_by_coarse()[CoarseLabel.DOS] == 2
        assert len(train) + len(val) == 10


def test_stratified_kfold_partitions_dataset():
    ds = separable_dataset(n_per_label=13, seed=1)
    folds = stratified_kfold(ds, 3, seed=2)
    seen = []
    for _, val in folds:
        seen.extend(map(tuple, val.X))
    assert len(seen) == len(ds)
    assert Counter(seen) == Counter(map(tuple, ds.X))
    for c, n in ds.counts_by_coarse().items():
        if n == 0:
            continue
        sizes = [f[1].counts_by_coarse()[c] for f in folds]
        assert max(sizes) - min(sizes) <= 1


def test_stratified_kfold_deterministic():
    ds = separable_dataset(n_per_label=8, seed=3)
    a = stratified_kfold(ds, 2, seed=9)
    b = stratified_kfold(ds, 2, seed=9)
    for (ta, va), (tb, vb) in zip(a, b):
        assert np.array_equal(ta.X, tb.X)
        assert np.array_equal(va.X, vb.X)


def test_stratified_kfold_small_class_errors():
    ds = _tiny_dataset({CoarseLabel.NORMAL: 6, CoarseLabel.U2R: 1})
    with pytest.raises(ValueError, match="fewer than k"):
        stratified_kfold(ds, 2, seed=0)


def test_stratified_split_fractions():
    ds = _tiny_dataset({CoarseLabel.NORMAL: 10, CoarseLabel.DOS: 10})
    train, test = stratified_split(ds, 0.3, seed=0)
    assert test.counts_by_coarse()[CoarseLabel.NORMAL] == 3
    assert test.counts_by_coarse()[CoarseLabel.DOS] == 3
    assert len(train) == 14 and len(test) == 6


def test_standardize_dataset_wrapper():
    ds = separable_dataset(n_per_label=5, seed=6)
    stats = standardize_fit(ds)
    out = standardize_dataset(stats, ds)
    assert np.allclose(out.X, (ds.X - stats.mean) / stats.divisor)
    assert list(out.fine_labels) == list(ds.fine_labels)


def test_version_mismatch_rejected(tmp_path):
    ds = separable_dataset(n_per_label=4, seed=7)
    path = tmp_path / "ds.csv"
    save_dataset(path, ds)
    body = path.read_text().splitlines()
    body[0] = "# hybrid-ids dataset v9"
    path.write_text("\n".join(body) + "\n")
    with pytest.raises(FormatError, match="expected format line"):
        load_dataset(path)
    stats_path = tmp_path / "stats.txt"
    save_stats(stats_path, standardize_fit(ds))
    tampered = stats_path.read_text().replace("stats v1", "stats v2")
    stats_path.write_text(tampered)
    with pytest.raises(FormatError):
        load_stats(stats_path)


# ---------------------------------------------------------------------------
# Processed-dataset files: the bit-exact round trip of any rows, and the
# damage only a dataset file can have; test_artifacts.py holds the rest.

EDGE_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1.5e-7, 1e16,
               123456789012345680.0, 1.7976931348623157e308)
finite_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-300, allow_subnormal=True),
)
path_text = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789/._- =", min_size=1, max_size=20)


@settings(deadline=None, max_examples=150)
@given(
    X=st.integers(0, 4).flatmap(lambda n: arrays(np.float64, (n, N_FEATURES), elements=finite_floats)),
    data=st.data(),
)
def test_dataset_file_round_trip_is_bit_exact(tmp_path_factory, X, data):
    n = len(X)
    # load_dataset refuses an empty fine label, as check_fine_label does
    fine = data.draw(st.lists(st.text(alphabet="abcdefghijklmnopqrstuvwxyz_.-0123456789",
                                      min_size=1, max_size=12), min_size=n, max_size=n))
    coarse = data.draw(st.lists(st.sampled_from([int(c) for c in CoarseLabel]), min_size=n, max_size=n))
    prov = Provenance(
        source=data.draw(path_text.filter(lambda s: s != "-")),
        deduplicated=data.draw(st.booleans()),
        sampling=data.draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789:,", max_size=20)),
    )
    path = tmp_path_factory.mktemp("round_trip") / "ds.csv"
    save_dataset(path, Dataset(X, fine, coarse, prov))
    loaded = load_dataset(path)
    assert loaded.X.shape == (n, N_FEATURES)
    assert np.array_equal(loaded.X.view(np.int64), X.view(np.int64))
    assert list(loaded.fine_labels) == fine
    assert loaded.coarse.tolist() == coarse
    assert (loaded.provenance.source, loaded.provenance.deduplicated, loaded.provenance.sampling) == (
        prov.source, prov.deduplicated, prov.sampling)


feature_text = st.one_of(
    finite_floats.map(repr), st.sampled_from(["0", "0.00", "1.00", "1.0", "0.11", "1e3", "5E-2", "7"])
)


@settings(deadline=None, max_examples=100)
@given(
    pool=st.lists(st.lists(feature_text, min_size=N_FEATURES, max_size=N_FEATURES),
                  min_size=1, max_size=4),
    data=st.data(),
)
def test_load_dataset_repeated_rows_match_a_per_row_float_oracle(tmp_path_factory, pool, data):
    """Rows whose feature text repeats, shuffled and under other labels,
    load to the bits ``float`` gives each row on its own."""
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    labels = data.draw(st.lists(st.sampled_from(COARSE_NAMES), min_size=len(picks),
                                max_size=len(picks)))
    path = tmp_path_factory.mktemp("repeats") / "ds.csv"
    save_dataset(path, Dataset(np.empty((0, N_FEATURES)), [], []))
    rows = [",".join(pool[p]) + f",{name},{name}" for p, name in zip(picks, labels)]
    path.write_text(path.read_text() + "\n".join(rows) + "\n")
    loaded = load_dataset(path)
    oracle = np.array([[float(text) for text in pool[p]] for p in picks])
    assert np.array_equal(loaded.X.view(np.int64), oracle.view(np.int64))
    assert list(loaded.fine_labels) == labels
    assert loaded.coarse.tolist() == [COARSE_NAMES.index(name) for name in labels]


def _with_field(line: str, index: int, text: str) -> str:
    fields = line.split(",")
    fields[index] = text
    return ",".join(fields)


@pytest.mark.parametrize("column, text, match", [
    (None, None, "expected 43 fields, got 42"),
    (5, "1,2", "expected 43 fields, got 44"),
    (0, "abc", "unparseable number 'abc' in column 'duration'"),
    (5, "", "unparseable number '' in column 'dst_bytes'"),
    (40, "0x10", "unparseable number '0x10' in column 'dst_host_srv_rerror_rate'"),
    (3, "1_000", "unparseable numbers in"),
    (4, "nan", "non-finite value 'nan' in column 'src_bytes'"),
    (4, "-inf", "non-finite value '-inf' in column 'src_bytes'"),
    (9, "1e400", "non-finite value '1e400' in column 'hot'"),
    (42, "dso", "unknown coarse class 'dso'"),
    (42, "DOS", "unknown coarse class 'DOS'"),
    (41, "buffer overflow", "fine label 'buffer overflow' is empty or holds whitespace"),
    (41, "", "fine label '' is empty or holds whitespace"),
])
def test_load_dataset_bad_row(tmp_path, column, text, match):
    path, lines = saved("dataset", tmp_path)
    k = len(lines) - 2  # a late row, after a blank line
    bad = lines[k].rsplit(",", 1)[0] if column is None else _with_field(lines[k], column, text)
    damaged = lines[:4] + [""] + lines[4:k] + [bad] + lines[k + 1:]
    expect_load_error(load_dataset, path, damaged, k + 2, match)


@pytest.mark.parametrize("column, text, match", [
    (4, "nan", "non-finite value 'nan' in column 'src_bytes'"),
    (42, "dso", "unknown coarse class 'dso'"),
])
def test_load_dataset_bad_row_after_copies_names_its_line(tmp_path, column, text, match):
    """The bad row shares its feature text with the copies before it (the
    class case) or repeats later; the error names its own line."""
    path, lines = saved("dataset", tmp_path)
    good = lines[5]
    bad = _with_field(good, column, text)
    damaged = lines[:3] + [good] * 3 + [bad] + [good, bad] + lines[3:]
    expect_load_error(load_dataset, path, damaged, 7, match)


def test_load_dataset_one_token_row(tmp_path):
    path, lines = saved("dataset", tmp_path)
    expect_load_error(load_dataset, path, lines[:4] + ["x"] + lines[4:], 5, "expected 43 fields, got 1")
    expect_load_error(load_dataset, path, lines + [",normal,normal"], len(lines) + 1,
                      "expected 43 fields, got 3")


# ---------------------------------------------------------------------------
# Damaged stats and taxonomy files; test_artifacts.py holds the rest.

@pytest.mark.parametrize("index, edit, match", [
    (1, lambda line: "fingerprint", "expected 'id='"),
    (2, lambda line: line.replace("mean", "average", 1), "expected 'mean <values>', got 'average'"),
    (3, lambda line: line.replace("stddev", "mean", 1), "expected 'stddev <values>', got 'mean'"),
    (2, lambda line: line.rsplit(" ", 1)[0], "expected 41 mean values, got 40"),
    (3, lambda line: line + " 1.0", "expected 41 stddev values, got 42"),
    (2, lambda line: "mean", "expected 41 mean values, got 0"),
    (3, lambda line: line.replace(" ", " x ", 1), "stddev 'x' is not a valid float"),
    (2, lambda line: line.replace(" ", " nan ", 1).rsplit(" ", 1)[0], "non-finite mean value"),
])
def test_load_stats_garbled(tmp_path, index, edit, match):
    path, lines = saved("stats", tmp_path)
    lines[index] = edit(lines[index])
    expect_load_error(load_stats, path, lines, index + 1, match)


@pytest.mark.parametrize("line, match", [
    ("neptune", "expected '<fine label> <coarse class>', got 'neptune'"),
    ("neptune dos extra", "expected '<fine label> <coarse class>', got 'neptune dos extra'"),
    ("neptune dso", "unknown coarse class 'dso'"),
    ("back dos", "fine label 'back' is mapped twice"),
])
def test_load_taxonomy_garbled(tmp_path, line, match):
    path, lines = saved("taxonomy", tmp_path)
    expect_load_error(load_taxonomy, path, lines[:3] + [line] + lines[3:], 4, match)
    expect_load_error(load_taxonomy, path, ["hybrid-ids taxonomy v2"] + lines[1:], 1,
                      "expected format line")
