"""KDD-format connection records: parsing, dedup, label taxonomy, encoding,
class rebalancing, standardization, and stratified splitting.

The encoded feature vector has exactly 41 columns: ``service`` and ``flag``
are dropped, ``protocol_type`` becomes three indicator columns (tcp, udp,
icmp) in place, and the remaining 37 numeric columns pass through. See
``ENCODED_COLUMNS`` for the fixed order.

The readers are the one place that decides which records are the same, by
their line text: ``read_kdd_dataset`` keeps each distinct record once, and
``parse_kdd_block`` and ``load_dataset`` return the distinct rows with an
index from each line to its row, which ``hybrid.predict_dataset`` takes as
it is.
"""

from __future__ import annotations

import enum
import gzip
import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ParseError, UnmappedLabelError
from .persist import LineReader, atomic_write, fmt_floats, stats_fingerprint, version_line

# Canonical KDD column order; the 42nd field is the label.
KDD_COLUMNS = (
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "land", "wrong_fragment", "urgent", "hot", "num_failed_logins",
    "logged_in", "num_compromised", "root_shell", "su_attempted", "num_root",
    "num_file_creations", "num_shells", "num_access_files",
    "num_outbound_cmds", "is_host_login", "is_guest_login", "count",
    "srv_count", "serror_rate", "srv_serror_rate", "rerror_rate",
    "srv_rerror_rate", "same_srv_rate", "diff_srv_rate", "srv_diff_host_rate",
    "dst_host_count", "dst_host_srv_count", "dst_host_same_srv_rate",
    "dst_host_diff_srv_rate", "dst_host_same_src_port_rate",
    "dst_host_srv_diff_host_rate", "dst_host_serror_rate",
    "dst_host_srv_serror_rate", "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
)

N_RAW_FEATURES = len(KDD_COLUMNS)  # 41
PROTOCOL_INDEX = 1
SERVICE_INDEX = 2
FLAG_INDEX = 3
PROTOCOLS = ("tcp", "udp", "icmp")
_SYMBOLIC = frozenset((PROTOCOL_INDEX, SERVICE_INDEX, FLAG_INDEX))
_NUMERIC_INDICES = tuple(i for i in range(N_RAW_FEATURES) if i not in _SYMBOLIC)

# Fixed encoded order: protocol_type expands in place, service/flag drop out.
ENCODED_COLUMNS = (
    ("duration", "protocol_tcp", "protocol_udp", "protocol_icmp")
    + KDD_COLUMNS[4:]
)
N_FEATURES = len(ENCODED_COLUMNS)  # 41


class CoarseLabel(enum.IntEnum):
    """The five connection classes in the fixed canonical order used for
    every tie-break in the package."""

    NORMAL = 0
    DOS = 1
    PROBE = 2
    R2L = 3
    U2R = 4

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "CoarseLabel":
        canon = name.strip().lower()
        if canon == "rtl":  # accepted alias for r2l
            canon = "r2l"
        try:
            return cls[canon.upper()]
        except KeyError:
            raise ValueError(f"unknown coarse class '{name}'") from None


COARSE_NAMES = tuple(str(c) for c in CoarseLabel)

# Fine labels of the KDD training data mapped to their attack families.
_DEFAULT_TAXONOMY = {
    "normal": CoarseLabel.NORMAL,
    "back": CoarseLabel.DOS,
    "land": CoarseLabel.DOS,
    "neptune": CoarseLabel.DOS,
    "pod": CoarseLabel.DOS,
    "smurf": CoarseLabel.DOS,
    "teardrop": CoarseLabel.DOS,
    "ipsweep": CoarseLabel.PROBE,
    "nmap": CoarseLabel.PROBE,
    "portsweep": CoarseLabel.PROBE,
    "satan": CoarseLabel.PROBE,
    "ftp_write": CoarseLabel.R2L,
    "guess_passwd": CoarseLabel.R2L,
    "imap": CoarseLabel.R2L,
    "multihop": CoarseLabel.R2L,
    "phf": CoarseLabel.R2L,
    "spy": CoarseLabel.R2L,
    "warezclient": CoarseLabel.R2L,
    "warezmaster": CoarseLabel.R2L,
    "buffer_overflow": CoarseLabel.U2R,
    "loadmodule": CoarseLabel.U2R,
    "perl": CoarseLabel.U2R,
    "rootkit": CoarseLabel.U2R,
}


def check_fine_label(label: str) -> str:
    """``label`` when the space-separated taxonomy and centroid files can
    hold it; ValueError when it is empty or holds whitespace."""
    if label.split() != [label]:
        raise ValueError(f"fine label '{label}' is empty or holds whitespace")
    return label


class Taxonomy:
    """Total mapping from fine attack labels to coarse classes.

    Unknown labels raise :class:`UnmappedLabelError` rather than being
    guessed; callers extend the table via config when feeding data that
    contains labels outside the KDD training set.
    """

    def __init__(self, mapping: dict[str, CoarseLabel]):
        self._mapping = dict(mapping)

    @classmethod
    def default(cls) -> "Taxonomy":
        return cls(_DEFAULT_TAXONOMY)

    def coarse(self, fine_label: str) -> CoarseLabel:
        try:
            return self._mapping[fine_label]
        except KeyError:
            raise UnmappedLabelError(fine_label) from None

    def extended(self, extra: dict[str, CoarseLabel]) -> "Taxonomy":
        merged = dict(self._mapping)
        merged.update(extra)
        return Taxonomy(merged)

    def items(self):
        return sorted(self._mapping.items())


@dataclass(frozen=True, slots=True, eq=False)
class RawRecord:
    """One parsed KDD connection line: its fine label and its encoded
    41-vector ``x`` in ``ENCODED_COLUMNS`` order."""

    fine_label: str
    x: np.ndarray


_PROTOCOL_CODES = {p: i for i, p in enumerate(PROTOCOLS)}
# Encoded protocol columns (tcp, udp, icmp), one row per protocol code.
_ONE_HOT_ROWS = np.eye(len(PROTOCOLS))


def parse_kdd_line(line: str, line_no: int = 1, labeled: bool = True) -> RawRecord:
    """Parse and encode one comma-separated KDD record in one pass.

    A trailing '.' on the label is stripped. ``labeled=False`` accepts
    41-field lines (prediction inputs without ground truth); the record
    then carries an empty fine label. Numeric fields must be finite and
    non-negative; each is converted once, and the first bad column, in
    column order, is reported.
    """
    parts = line.strip().split(",")
    expected = N_RAW_FEATURES + 1 if labeled else N_RAW_FEATURES
    if len(parts) != expected:
        raise ParseError(f"expected {expected} fields, got {len(parts)}", line_no)
    if labeled:
        fine_label = parts[-1].rstrip(".")
        if not fine_label:
            raise ParseError("empty label field", line_no, "label")
    else:
        fine_label = ""
    protocol = parts[PROTOCOL_INDEX]
    if protocol not in _PROTOCOL_CODES:
        raise ParseError(
            f"unknown protocol_type '{protocol}'", line_no, "protocol_type"
        )
    values = []
    for i in _NUMERIC_INDICES:
        try:
            value = float(parts[i])
        except ValueError:
            raise ParseError(
                f"unparseable numeric value '{parts[i]}'", line_no, KDD_COLUMNS[i]
            ) from None
        if not math.isfinite(value):
            raise ParseError(
                f"non-finite value '{parts[i]}'", line_no, KDD_COLUMNS[i]
            )
        if value < 0:
            raise ParseError(
                f"negative value {parts[i]}", line_no, KDD_COLUMNS[i]
            )
        values.append(value)
    values[1:1] = _ONE_HOT_ROWS[_PROTOCOL_CODES[protocol]]
    return RawRecord(fine_label, np.array(values))


# Lines per parse_kdd_block call, and so per predict_dataset call in
# ``predict``: enough to spread the fixed costs of one loadtxt call and of a
# vote that steps every tree, few enough to keep a block's rows small. The
# first block is short, so ``predict`` writes its first verdicts once the
# model is loaded and a few lines are scored, not a whole block; one line
# would not do, as the verdict of a malformed first line waits for the
# next block.
FIRST_BLOCK_LINES = 16
BLOCK_LINES = 1024


def open_kdd(path: str | Path) -> TextIO:
    """A KDD file opened as text: gzip when its name ends in ``.gz``, plain
    otherwise. Undecodable bytes read as backslash escapes, which the
    line's checks then refuse."""
    opener = gzip.open if Path(path).suffix == ".gz" else open
    return opener(path, "rt", errors="backslashreplace")


def numbered_blocks(lines: Iterable[str]) -> Iterator[list[tuple[int, str]]]:
    """The non-blank lines, stripped and numbered from 1, in lists of up to
    ``FIRST_BLOCK_LINES``, then of up to ``BLOCK_LINES``."""
    numbered = ((n, text) for n, line in enumerate(lines, start=1) if (text := line.strip()))
    size = FIRST_BLOCK_LINES
    while block := list(itertools.islice(numbered, size)):
        yield block
        size = BLOCK_LINES


def parse_kdd_block(
    numbered: Sequence[tuple[int, str]], labeled: bool | None = True
) -> tuple[np.ndarray, np.ndarray, list[ParseError]]:
    """Parse and encode numbered KDD lines a block at a time: the rows of
    the distinct lines that parse, in first-seen order; for each line that
    parses, in line order, the index of its row; and the error of each line
    that does not, in line order. So ``X[index]`` holds one row per accepted
    line, and lines of the same stripped text share one row. ``labeled`` is
    as for :func:`parse_kdd_line`; None reads a line of 41 fields as
    unlabeled and any other as labeled.

    Cheap screens (the field count, a non-empty label, a known protocol)
    pick the distinct lines that one ``np.loadtxt`` call converts, and a
    vectorized check keeps the rows whose numbers are all finite and
    non-negative. Every other line goes through :func:`parse_kdd_line`,
    which alone decides it: it raises the line's error under the line's own
    number, so a repeated bad line is refused at each of its lines, or it
    returns the row of the line's text, as for spellings such as ``1_000``
    that ``float`` accepts and ``loadtxt`` does not (a block ``loadtxt``
    cannot read is refused whole).
    """
    distinct, inverse = first_seen([line.strip() for _, line in numbered])
    # the comma counts a line may have: 41 with a label, 40 without
    allowed = {True: (41,), False: (40,), None: (40, 41)}[labeled]
    passed, codes = [], []
    for i, text in enumerate(distinct):
        commas = text.count(",")
        if commas not in allowed or (commas == 41 and not text.rpartition(",")[2].rstrip(".")):
            continue
        code = _PROTOCOL_CODES.get(text.split(",", 2)[1])
        if code is not None:
            passed.append(i)
            codes.append(code)
    rows = np.zeros((len(distinct), N_FEATURES))
    good = np.zeros(len(distinct), dtype=bool)
    if passed:
        try:
            values = np.loadtxt([distinct[i] for i in passed], delimiter=",", dtype=np.float64,
                                comments=None, usecols=_NUMERIC_INDICES, ndmin=2)
        except ValueError:
            values = np.empty((0, 0))
        if values.shape == (len(passed), len(_NUMERIC_INDICES)):
            rows[passed, 0] = values[:, 0]
            rows[passed, 1:4] = _ONE_HOT_ROWS[codes]
            rows[passed, 4:] = values[:, 1:]
            good[passed] = ((values >= 0) & (values < np.inf)).all(axis=1)
    errors = []
    for p in np.flatnonzero(~good[inverse]).tolist():
        d = inverse[p]
        if good[d]:  # an earlier line of the same text parsed
            continue
        line_no, line = numbered[p]
        line_labeled = line.count(",") != 40 if labeled is None else labeled
        try:
            rows[d] = parse_kdd_line(line, line_no, line_labeled).x
        except ParseError as exc:
            # Through its frames, a kept traceback (the error's or its
            # context's) would tie this block's arrays into a reference
            # cycle that only a full garbage collection frees.
            exc.__traceback__ = exc.__context__ = None
            errors.append(exc)
        else:
            good[d] = True
    if good.all():
        return rows, inverse, errors
    # renumber the rows that parsed, and drop the lines that did not
    return rows[good], (np.cumsum(good) - 1)[inverse[good[inverse]]], errors


def read_kdd_dataset(path: str | Path, taxonomy: Taxonomy) -> tuple[Dataset, int]:
    """The distinct records of an uncompressed or gzip KDD file in
    first-seen order, and the number of its non-blank lines.

    Two lines are one record when their 41 fields and their labels, trailing
    dots stripped, are equal, so ``normal.`` and ``normal`` copies collapse.
    Each record's first line is parsed, a block at a time, from the text
    that :func:`open_kdd` reads. The first malformed line aborts with its
    :class:`ParseError`; labels map through ``taxonomy`` only after the
    whole file is read, so that error wins over an :class:`UnmappedLabelError`.
    """
    seen: set[str] = set()
    blocks, labels, parsed = [np.empty((0, N_FEATURES))], [], 0
    with open_kdd(path) as fh:
        for block in numbered_blocks(fh):
            parsed += len(block)
            fresh = []
            for line_no, text in block:
                # a line with a comma keys on its 41 fields and its label
                # without trailing dots; lines without one are all refused
                key = text.rstrip(".")
                if key not in seen:
                    seen.add(key)
                    fresh.append((line_no, text))
            # the fresh lines are distinct, so each has a row of its own
            X, _, errors = parse_kdd_block(fresh)
            if errors:
                raise errors[0]
            blocks.append(X)
            labels += [text.rpartition(",")[2].rstrip(".") for _, text in fresh]
    coarse = [taxonomy.coarse(label) for label in labels]
    return Dataset(np.concatenate(blocks), labels, coarse), parsed


def first_seen(keys: Sequence) -> tuple[list, np.ndarray]:
    """The distinct keys in first-seen order, and each key's index among them."""
    index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    return list(index), np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))


def encode_features(record: RawRecord) -> np.ndarray:
    """Numeric 41-vector for one record (drop service/flag, one-hot protocol)."""
    return record.x


class Dataset:
    """Encoded records held as parallel arrays, immutable by convention.

    ``X`` is (n, 41) float64, ``fine_labels`` an object array of strings,
    ``coarse`` an int array of :class:`CoarseLabel` values.
    """

    def __init__(self, X: np.ndarray, fine_labels: Sequence[str], coarse: Sequence[int]):
        self.X = np.asarray(X, dtype=np.float64)
        if self.X.ndim != 2 or self.X.shape[1] != N_FEATURES:
            raise ValueError(f"feature matrix must be (n, {N_FEATURES})")
        self.fine_labels = np.asarray(list(fine_labels), dtype=object)
        self.coarse = np.asarray(coarse, dtype=np.int64)
        if not (len(self.X) == len(self.fine_labels) == len(self.coarse)):
            raise ValueError("X, fine_labels and coarse must have equal length")

    def __len__(self) -> int:
        return len(self.X)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.X[indices], self.fine_labels[indices], self.coarse[indices])

    def counts_by_coarse(self) -> dict[CoarseLabel, int]:
        counts = np.bincount(self.coarse, minlength=len(CoarseLabel))
        return {c: int(counts[c]) for c in CoarseLabel}


# Per-class counts the source material balances the training split to.
SAMPLING_TARGETS = {
    CoarseLabel.NORMAL: 39524,
    CoarseLabel.DOS: 27285,
    CoarseLabel.PROBE: 2131,
    CoarseLabel.R2L: 999,
    CoarseLabel.U2R: 86,
}


def resample(ds: Dataset, targets: dict[CoarseLabel, int], seed: int) -> Dataset:
    """Rebalance per-class counts to the exact ``targets``: classes above
    target are drawn down without replacement, classes below keep every
    original and add draws with replacement.

    Deterministic for a given seed: classes are processed in canonical
    order and kept rows preserve their original relative order.
    """
    for c in CoarseLabel:
        if c not in targets:
            raise ValueError(f"no sampling target for class '{c}'")
        if targets[c] < 0:
            raise ValueError(f"negative target for class '{c}'")
    rng = np.random.default_rng(seed)
    pieces = []
    for c in CoarseLabel:
        idx = np.flatnonzero(ds.coarse == int(c))
        target = targets[c]
        n = len(idx)
        if n == 0:
            if target > 0:
                raise ValueError(f"cannot sample {target} records for empty class '{c}'")
            continue
        if target < n:
            chosen = rng.choice(n, size=target, replace=False)
            pieces.append(idx[np.sort(chosen)])
        elif target > n:
            extra = rng.choice(n, size=target - n, replace=True)
            pieces.append(np.concatenate([idx, idx[extra]]))
        else:
            pieces.append(idx)
    order = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
    return ds.subset(order)


@dataclass(frozen=True)
class StandardizationStats:
    """Per-column mean and population stddev fitted on training data.

    Zero-variance columns are recorded and scaled by divisor 1 so constant
    features map to 0 instead of NaN.
    """

    mean: np.ndarray
    stddev: np.ndarray

    @property
    def divisor(self) -> np.ndarray:
        return np.where(self.stddev == 0.0, 1.0, self.stddev)

    @cached_property
    def fingerprint(self) -> str:
        """Computed once: no code writes to the arrays of fitted or loaded stats."""
        return stats_fingerprint(self.mean, self.stddev)


def standardize_fit(ds: Dataset) -> StandardizationStats:
    """The columns' stats; ValueError on an empty dataset, or naming the
    first column whose values are so large that its mean or stddev
    overflows."""
    if len(ds) == 0:
        raise ValueError("cannot fit standardization on an empty dataset")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = ds.X.mean(axis=0)
        stddev = ds.X.std(axis=0)  # population stddev
    overflowed = ~(np.isfinite(mean) & np.isfinite(stddev))
    if overflowed.any():
        column = ENCODED_COLUMNS[int(overflowed.argmax())]
        raise ValueError(f"column '{column}' is too large to standardize: "
                         "its mean or stddev overflows")
    return StandardizationStats(mean=mean, stddev=stddev)


# Standardized values are clipped to +-Z_BOUND. Then a centroid distance
# (41 squares of at most 2 * Z_BOUND) and the neural net's three layers stay
# finite for any finite input. A fitted column's own values satisfy
# |z| <= sqrt(n - 1), so the clip never changes a training value.
Z_BOUND = 1e150


def standardize_apply(stats: StandardizationStats, x: np.ndarray) -> np.ndarray:
    """Pure transform (x - mean) / stddev, clipped to +-``Z_BOUND``;
    accepts a vector or a matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != stats.mean.shape[0]:
        raise ValueError(
            f"dimension mismatch: expected {stats.mean.shape[0]}, got {x.shape[-1]}"
        )
    with np.errstate(over="ignore"):
        z = (x - stats.mean) / stats.divisor
    return np.clip(z, -Z_BOUND, Z_BOUND, out=z)


def standardize_dataset(stats: StandardizationStats, ds: Dataset) -> Dataset:
    return Dataset(standardize_apply(stats, ds.X), ds.fine_labels, ds.coarse)


def _per_class_shuffled(ds: Dataset, rng: np.random.Generator) -> list[np.ndarray]:
    groups = []
    for c in CoarseLabel:
        idx = np.flatnonzero(ds.coarse == int(c))
        if len(idx):
            groups.append(idx[rng.permutation(len(idx))])
    return groups


def check_folds(k: int) -> None:
    if k < 2:
        raise ValueError("k must be >= 2")


def stratified_kfold(
    ds: Dataset, k: int, seed: int = 0
) -> list[tuple[Dataset, Dataset]]:
    """Partition into k folds with per-class fold sizes within +-1.

    Returns (train, validation) dataset pairs; the validation folds are
    pairwise disjoint and their union is the dataset.
    """
    check_folds(k)
    counts = ds.counts_by_coarse()
    for c, n in counts.items():
        if 0 < n < k:
            raise ValueError(f"class '{c}' has {n} records, fewer than k={k}")
    rng = np.random.default_rng(seed)
    fold_members: list[list[np.ndarray]] = [[] for _ in range(k)]
    for idx in _per_class_shuffled(ds, rng):
        for f in range(k):
            fold_members[f].append(idx[f::k])
    splits = []
    all_idx = np.arange(len(ds))
    for f in range(k):
        val_idx = np.sort(np.concatenate(fold_members[f]))
        mask = np.ones(len(ds), dtype=bool)
        mask[val_idx] = False
        splits.append((ds.subset(all_idx[mask]), ds.subset(val_idx)))
    return splits


def check_test_fraction(test_fraction: float) -> None:
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")


def stratified_split(
    ds: Dataset, test_fraction: float, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Single train/test split, stratified by coarse class."""
    check_test_fraction(test_fraction)
    rng = np.random.default_rng(seed)
    test_parts, train_parts = [], []
    for idx in _per_class_shuffled(ds, rng):
        n_test = int(np.floor(len(idx) * test_fraction + 0.5))
        n_test = min(n_test, len(idx))
        test_parts.append(idx[:n_test])
        train_parts.append(idx[n_test:])
    train_idx = np.sort(np.concatenate(train_parts)) if train_parts else np.empty(0, int)
    test_idx = np.sort(np.concatenate(test_parts)) if test_parts else np.empty(0, int)
    return ds.subset(train_idx), ds.subset(test_idx)


# ---------------------------------------------------------------------------
# Processed-dataset files: version line, provenance, header, CSV rows.

def save_dataset(
    path: str | Path, ds: Dataset, source: str, targets: dict[CoarseLabel, int]
) -> None:
    """Write ``ds`` under a provenance line: the deduplicated ``source``
    file, resampled to ``targets``."""
    sampling = ",".join(f"{c}:{targets[c]}" for c in CoarseLabel)
    lines = [
        "# " + version_line("dataset"),
        f"# provenance: source={source} dedup=true sampling={sampling}",
        _DATASET_HEADER,
    ]
    # each distinct value is formatted once and its text shared by every
    # cell that holds it; keyed on the bits, so -0.0 keeps its own text.
    # The keys come column by column, so no temporary holds every cell
    bits = np.ascontiguousarray(ds.X, dtype=np.float64).view(np.int64)
    keys = np.unique(np.concatenate([np.unique(column) for column in bits.T]))
    texts = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
    tails = [f",{fine},{COARSE_NAMES[coarse]}"
             for fine, coarse in zip(ds.fine_labels.tolist(), ds.coarse.tolist())]
    for start in range(0, len(bits), _SAVE_ROWS):
        cells = texts[np.searchsorted(keys, bits[start:start + _SAVE_ROWS])].tolist()
        lines += [",".join(row) + tail for row, tail in zip(cells, tails[start:])]
    atomic_write(path, "\n".join(lines) + "\n")


# save_dataset looks up the texts of this many rows at a time: gathering
# every row's texts at once peaked at 8.3 MB of traced allocations on a
# 4,909-row split
_SAVE_ROWS = 256
_DATASET_HEADER = ",".join(ENCODED_COLUMNS + ("fine_label", "coarse_label"))
_PROVENANCE = re.compile(r"# provenance: source=(.*) dedup=(true|false)(?: sampling=(.*))?")
_COARSE_CODES = {name: code for code, name in enumerate(COARSE_NAMES)}


def _parse_rows(rows: Sequence[str]) -> tuple[Dataset, np.ndarray]:
    """The distinct rows of stripped, non-blank data rows, each split and
    converted once, in first-seen order, and each row's index among them.
    Raises ValueError or KeyError when any row is not 41 finite numbers, a
    label and a class."""
    distinct, index = first_seen(rows)
    if not distinct:
        return Dataset(np.empty((0, N_FEATURES)), [], []), index
    heads, fine, names = zip(*(row.rsplit(",", 2) for row in distinct))
    for label in set(fine):
        check_fine_label(label)
    X = np.loadtxt(heads, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    if X.shape != (len(distinct), N_FEATURES) or not np.isfinite(X).all():
        raise ValueError("not a block of finite feature rows")
    return Dataset(X, fine, [_COARSE_CODES[name] for name in names]), index


def _row_problem(line: str) -> str | None:
    """Why one data line cannot load, or None when it can (or is blank)."""
    row = line.strip()
    if not row:
        return None
    fields = row.split(",")
    if len(fields) != N_FEATURES + 2:
        return f"expected {N_FEATURES + 2} fields, got {len(fields)}"
    if fields[-1] not in _COARSE_CODES:
        return f"unknown coarse class '{fields[-1]}'"
    try:
        check_fine_label(fields[-2])
    except ValueError as exc:
        return str(exc)
    try:
        _parse_rows([row])
    except ValueError:
        for column, text in zip(ENCODED_COLUMNS, fields):
            try:
                if not math.isfinite(float(text)):
                    return f"non-finite value '{text}' in column '{column}'"
            except ValueError:
                return f"unparseable number '{text}' in column '{column}'"
        # float() takes some forms numpy's parser does not, such as '1_000'
        return f"unparseable numbers in '{row}'"
    return None


def load_dataset(path: str | Path) -> tuple[Dataset, np.ndarray]:
    """Read a ``save_dataset`` file as its distinct rows, in first-seen
    order, and each data row's index among them, so that
    ``distinct.subset(index)`` holds one record per row of the file. Two
    rows are one when their text is the same, labels included.

    Raises FormatError naming the file and line on a bad format line,
    provenance line or header, and on a row that is not 41 finite numbers,
    a fine label (see :func:`check_fine_label`) and a coarse class name.
    The provenance line is checked, not kept."""
    r = LineReader(path)
    r.version("dataset")
    if not _PROVENANCE.fullmatch(r.next("the provenance line").strip()):
        raise r.error("expected '# provenance: source=<source> dedup=<true|false> ...'")
    if r.next("the column header").strip() != _DATASET_HEADER:
        raise r.error("unexpected dataset header")
    try:
        return _parse_rows([row for row in map(str.strip, r.lines[r.line_no:]) if row])
    except (ValueError, KeyError):
        # A block fails only through a row that fails alone; rescan to name it.
        raise r.error(next(p for p in map(_row_problem, r.rest()) if p)) from None


def save_stats(path: str | Path, stats: StandardizationStats) -> None:
    text = "\n".join(
        [
            version_line("stats"),
            f"id={stats.fingerprint}",
            "mean " + fmt_floats(stats.mean),
            "stddev " + fmt_floats(stats.stddev),
        ]
    )
    atomic_write(path, text + "\n")


def load_stats(path: str | Path) -> StandardizationStats:
    """Read a ``save_stats`` file; FormatError naming file and line on a
    truncated or garbled one, or on a negative stddev or a nonzero one below
    1e-300. The ``id=`` value is not read back: the fingerprint is
    recomputed from the values."""
    r = LineReader(path)
    r.version("stats")
    r.value("id")
    mean = r.float_row("mean", N_FEATURES)
    stddev = r.float_row("stddev", N_FEATURES)
    if (stddev < 0).any():
        raise r.error("negative stddev value")
    # dividing by so small a stddev overflows ordinary values; a fitted
    # nonzero one is at least sqrt(5e-324), about 2.2e-162
    if ((stddev > 0) & (stddev < 1e-300)).any():
        raise r.error("nonzero stddev value below 1e-300")
    r.end()
    return StandardizationStats(mean=mean, stddev=stddev)


def save_taxonomy(path: str | Path, taxonomy: Taxonomy) -> None:
    lines = [version_line("taxonomy")]
    lines += [f"{fine} {coarse}" for fine, coarse in taxonomy.items()]
    atomic_write(path, "\n".join(lines) + "\n")
