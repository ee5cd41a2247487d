"""The loader contract, tested once over the five artifact kinds: dataset,
stats and the three models. The hybrid manifest only names the model and
stats files, and ``tests/test_hybrid.py`` tests it.

Each kind's file survives save -> load -> save byte for byte. A file cut
inside its head, or carrying content after its end, raises a FormatError
naming the file and line, while trailing blank lines are tolerated. Any
garbled file either raises such a FormatError or loads a usable model.
The table of known damages pins the message and line of each; damage to
one line in place is tabled in each kind's own test file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hybrid_ids
from hybrid_ids.centroids import assign_batch, fit, load_centroids, save_centroids
from hybrid_ids.dataset import (
    N_FEATURES,
    CoarseLabel,
    Dataset,
    load_dataset,
    load_stats,
    save_dataset,
    save_stats,
    standardize_apply,
    standardize_fit,
)
from hybrid_ids.errors import FormatError
from hybrid_ids.neural_net import TrainConfig, init_model, load_mlp, save_mlp
from hybrid_ids.neural_net import predict_batch as nn_predict
from hybrid_ids.random_forest import ForestConfig, load_forest, save_forest, train_forest
from hybrid_ids import persist
from hybrid_ids.persist import LineReader
from hybrid_ids.random_forest import predict_batch as rf_predict

from conftest import expect_load_error, separable_dataset


def _probe(width: int) -> np.ndarray:
    return np.random.default_rng(3).normal(size=(40, width)) * 4


def _dataset() -> tuple[Dataset, np.ndarray]:
    """Six distinct rows, and an index that repeats two of them."""
    return separable_dataset(n_per_label=1, seed=12), np.array([0, 1, 2, 3, 1, 4, 5, 0])


def _save_dataset(path: Path, rows: tuple[Dataset, np.ndarray]) -> None:
    distinct, index = rows
    save_dataset(path, distinct.subset(index), "corpus.txt", dict.fromkeys(CoarseLabel, 3))


def _check_dataset(loaded: tuple[Dataset, np.ndarray], original: tuple[Dataset, np.ndarray]) -> None:
    (distinct, index), (original_distinct, original_index) = loaded, original
    assert distinct.X.dtype == np.float64 and distinct.X.shape == (len(distinct), N_FEATURES)
    assert distinct.coarse.dtype == np.int64 and distinct.fine_labels.dtype == object
    assert index.dtype == np.int64 and len(index) == len(original_index)
    assert sorted(set(index.tolist())) == list(range(len(distinct))) == list(range(len(original_distinct)))


def _check_stats(loaded, original) -> None:
    assert loaded.mean.dtype == loaded.stddev.dtype == np.float64
    assert loaded.fingerprint == original.fingerprint
    probe = _probe(N_FEATURES)
    assert np.array_equal(standardize_apply(loaded, probe), standardize_apply(original, probe))


def _mlp():
    model = init_model(TrainConfig(hidden_dims=(3, 2), seed=4))
    model.biases = [np.random.default_rng(l).normal(size=len(b)) for l, b in enumerate(model.biases)]
    model.stats_fingerprint = "abc123def456"
    return model


def _check_mlp(loaded, original) -> None:
    assert loaded.dims == original.dims and all(type(d) is int for d in loaded.dims)
    for l in range(3):
        assert loaded.weights[l].shape == (loaded.dims[l + 1], loaded.dims[l])
        assert loaded.biases[l].shape == (loaded.dims[l + 1],)
        assert loaded.weights[l].dtype == loaded.biases[l].dtype == np.float64
    assert loaded.stats_fingerprint == original.stats_fingerprint
    probe = _probe(loaded.dims[0])
    assert np.array_equal(nn_predict(loaded, probe), nn_predict(original, probe))


def _forest():
    model = train_forest(separable_dataset(n_per_label=6, seed=17), ForestConfig(n_trees=3, seed=4))
    model.stats_fingerprint = "cafe01234567"
    return model


def _check_forest(loaded, original) -> None:
    for name in ("feature", "right", "counts", "starts", "active_features"):
        assert getattr(loaded, name).dtype == np.int64, name
    assert loaded.threshold.dtype == loaded.feature_importances.dtype == np.float64
    assert loaded.n_features == original.n_features
    assert loaded.stats_fingerprint == original.stats_fingerprint
    probe = _probe(loaded.n_features)
    assert np.array_equal(rf_predict(loaded, probe), rf_predict(original, probe))


def _centroids():
    """One signature for each of the six labels, in the order buffer_overflow,
    guess_passwd, ipsweep, neptune, normal, smurf."""
    model = fit(separable_dataset(n_per_label=4, seed=21))
    model.stats_fingerprint = "0123456789ab"
    return model


def _check_centroids(loaded, original) -> None:
    assert loaded.fine_labels == original.fine_labels
    assert loaded.coarse.dtype == loaded.support.dtype == np.int64
    assert loaded.centroids.dtype == np.float64 and loaded.centroids.shape == (len(loaded), N_FEATURES)
    assert loaded.stats_fingerprint == original.stats_fingerprint
    probe = _probe(N_FEATURES)
    assert np.array_equal(assign_batch(loaded, probe), assign_batch(original, probe))


@dataclass(frozen=True)
class Artifact:
    sample: Callable[[], object]
    save: Callable[[Path, object], None]
    load: Callable[[Path], object]
    head: int | None  # the lines no file of the kind can lack; None: all
    check: Callable[[object, object], None]  # what the bytes cannot show


ARTIFACTS = {
    "dataset": Artifact(_dataset, _save_dataset, load_dataset, 3, _check_dataset),
    "stats": Artifact(lambda: standardize_fit(separable_dataset(n_per_label=3, seed=13)),
                      save_stats, load_stats, None, _check_stats),
    "mlp": Artifact(_mlp, save_mlp, load_mlp, None, _check_mlp),
    "forest": Artifact(_forest, save_forest, load_forest, None, _check_forest),
    "centroids": Artifact(_centroids, save_centroids, load_centroids, None, _check_centroids),
}


@functools.cache
def saved_text(kind: str) -> str:
    """The file that ``kind``'s sample saves to."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / kind
        ARTIFACTS[kind].save(path, ARTIFACTS[kind].sample())
        return path.read_text()


def saved(kind: str, directory: Path) -> tuple[Path, list[str]]:
    """``kind``'s sample file written under ``directory``, and its lines."""
    path = directory / kind
    path.write_text(saved_text(kind))
    return path, saved_text(kind).splitlines()


def resaved(kind: str, path: Path) -> str:
    """The text that ``kind``'s file at ``path`` saves to once loaded."""
    artifact = ARTIFACTS[kind]
    artifact.save(path, artifact.load(path))
    return path.read_text()


def test_every_loader_is_in_the_table():
    modules = [importlib.import_module(f"hybrid_ids.{m.name}")
               for m in pkgutil.iter_modules(hybrid_ids.__path__)]
    loaders = {f"{m.__name__}.{name}" for m in modules for name, f in vars(m).items()
               if name.startswith("load_") and inspect.isfunction(f) and f.__module__ == m.__name__}
    in_table = {f"{a.load.__module__}.{a.load.__name__}" for a in ARTIFACTS.values()}
    assert loaders == in_table | {"hybrid_ids.hybrid.load_hybrid"}


@pytest.mark.parametrize("kind", ARTIFACTS)
def test_round_trip(tmp_path, kind):
    """Floats are written with ``repr``, so equal bytes mean equal bits."""
    artifact = ARTIFACTS[kind]
    original = artifact.sample()
    path = tmp_path / kind
    artifact.save(path, original)
    text = path.read_text()
    assert text.split("\n", 1)[0].removeprefix("# ") == f"hybrid-ids {kind} v1"
    loaded = artifact.load(path)
    artifact.check(loaded, original)
    artifact.save(path, loaded)
    assert path.read_text() == text


@pytest.mark.parametrize("kind", ARTIFACTS)
def test_prefixes(tmp_path, kind):
    """A file cut inside its head names the first missing line; a longer
    prefix loads and saves back to itself."""
    path, lines = saved(kind, tmp_path)
    head = ARTIFACTS[kind].head or len(lines)
    for keep in range(len(lines)):
        if keep < head:
            expect_load_error(ARTIFACTS[kind].load, path, lines[:keep], keep + 1,
                              "unexpected end of file")
        else:
            prefix = "".join(line + "\n" for line in lines[:keep])
            path.write_text(prefix)
            assert resaved(kind, path) == prefix


@pytest.mark.parametrize("kind", ARTIFACTS)
def test_trailing_lines(tmp_path, kind):
    """Blank lines at the end, and after the head of a file whose rows may
    vary in number, are tolerated; a fixed-length file refuses a copy of its
    last line after a blank one."""
    path, lines = saved(kind, tmp_path)
    head = ARTIFACTS[kind].head
    padded = lines if head is None else lines[:head] + ["", "  "] + lines[head:]
    path.write_text("\n".join(padded) + "\n\n  \n")
    assert resaved(kind, path) == saved_text(kind)
    if head is None:
        expect_load_error(ARTIFACTS[kind].load, path, lines + ["", lines[-1]], len(lines) + 2,
                          "unexpected content after the end")


# Tokens and whole lines that the formats use, or that are nearly valid.
GARBLE_TEXT = st.sampled_from([
    "", " ", "\t", "x", "0", "-1", "1.5", "-0.0", "5e-324", "1e-5", "nan", "inf", "-inf",
    "1e400", "1_000", "0x1p3", "+.5", "99999999999999999999", "=", ",", "1,2", "#",
    "normal", "dos", "rtl", "dso", "entry", "entries=2", "stats_id=", "id=", "mean", "stddev",
    "W0", "b0", "W2 1 2", "dims=41,3,2,5", "activations=relu", "L", "I", "tree",
    "L 1 0 0 0 0", "I 0 0.5", "tree 0 1", "n_trees=2", "back dos", "truth\\pred",
    "# hybrid-ids dataset v1", "# seed=7",
])
EDITS = ("delete", "duplicate", "replace", "token", "cut", "swap")


@pytest.fixture(scope="module")
def garble_dir(tmp_path_factory):
    """One directory for all examples: a new one each would cost a scan of
    all the others."""
    return tmp_path_factory.mktemp("garble")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # tiny stddev values
@pytest.mark.parametrize("kind", ARTIFACTS)
@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_garbled_file_raises_only_format_error(garble_dir, kind, data):
    path, lines = saved(kind, garble_dir)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(EDITS))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "replace":
            lines[i] = data.draw(GARBLE_TEXT)
        elif op == "token":  # tokens at even indices, separators between them
            parts = re.split(r"([ ,=])", lines[i])
            last = len(parts) // 2
            # as often as any token, one of the last three: a row's labels
            k = data.draw(st.one_of(st.integers(0, last), st.integers(max(last - 2, 0), last)))
            parts[2 * k] = data.draw(GARBLE_TEXT)
            lines[i] = "".join(parts)
        elif op == "cut":
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])))]
            del lines[i + 1:]
        else:
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        if not lines:
            break
    path.write_text("\n".join(lines) + "\n")
    artifact = ARTIFACTS[kind]
    try:
        loaded = artifact.load(path)
    except FormatError as exc:
        assert str(exc).startswith(f"{path}, line {exc.line_no}: ")
        return
    # the edits left a well-formed file: what it loads to saves and loads back
    artifact.save(path, loaded)
    text = path.read_text()
    again = artifact.load(path)
    artifact.check(again, loaded)
    artifact.save(path, again)
    assert path.read_text() == text


def at(i: int, change: Callable[[str], str]):
    """Edit: line ``i`` (from 0) replaced by ``change`` of itself."""
    return lambda lines: lines[:i] + [change(lines[i])] + lines[i + 1:]


def put(i: int, text: str):
    return at(i, lambda line: text)


def append(text: str):
    return lambda lines: lines + [text]


def drop(i: int):
    return lambda lines: lines[:i] + lines[i + 1:]


def copy(i: int, j: int):
    """Edit: line ``j`` replaced by a copy of line ``i``."""
    return lambda lines: lines[:j] + [lines[i]] + lines[j + 1:]


def swap(i: int, j: int):
    return lambda lines: lines[:i] + [lines[j]] + lines[i + 1:j] + [lines[i]] + lines[j + 1:]


# (kind, edit of the sample file's lines, 1-based line of the error, message).
# A kind's damage to one line in place is in that kind's own test file: the
# test_load_*_garbled tables.
DAMAGE = [
    ("dataset", put(0, "# hybrid-ids stats v1"), 1, "expected format line"),
    ("dataset", drop(1), 2, "expected '# provenance: "),
    ("dataset", drop(2), 3, "unexpected dataset header"),
    ("dataset", at(2, lambda line: line.replace("duration", "length")), 3,
     "unexpected dataset header"),
    ("forest", drop(2), 3, "expected 'n_trees='"),
    # spellings that Python's int() and float() take and numpy's reader refuses
    ("forest", put(2, "n_trees=\u0663"), 3, "n_trees '\u0663' is not a valid int"),
    ("forest", put(2, "n_trees=0_3"), 3, "n_trees '0_3' is not a valid int"),
    ("forest", at(4, lambda line: line.replace(",10,", ",1_0,")), 5,
     "active feature '1_0' is not a valid int"),
    ("forest", put(6, "tree 0 \u0669"), 7, "node count '\u0669' is not a valid int"),
    ("forest", at(5, lambda line: line.replace(" 0.0 ", " 0_0.0 ", 1)), 6,
     "importances '0_0.0' is not a valid float"),
    ("mlp", at(5, lambda line: line.replace(" 0.", " \u0660.", 1)), 6,
     "b0 '\u0660.1257302210933933' is not a valid float"),
    ("stats", at(2, lambda line: line.replace(" 1.", " 1_0.", 1)), 3,
     "mean '1_0.6943814248042501' is not a valid float"),
    ("centroids", put(2, "entries=5"), 9, "unexpected content after the end"),
    ("centroids", put(2, "entries=7"), 10, "unexpected end of file"),
    ("centroids", append("entry junk"), 10, "unexpected content after the end"),
    ("centroids", swap(4, 5), 6, "fine label 'guess_passwd' sorts before 'ipsweep'"),
    ("centroids", copy(3, 4), 5, "fine label 'buffer_overflow' repeats the one above it"),
]


@pytest.mark.parametrize("kind, edit, line_no, match", DAMAGE,
                         ids=[f"{kind}-{line_no}-{match}" for kind, _, line_no, match in DAMAGE])
def test_damage(tmp_path, kind, edit, line_no, match):
    path, lines = saved(kind, tmp_path)
    expect_load_error(ARTIFACTS[kind].load, path, edit(lines), line_no, match)


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="ab,\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", max_size=40),
       st.integers(1, 8))
def test_line_reader_splits_as_whole_text(text, chars):
    """Loaders read a file a chunk at a time (1 MiB); the lines are those
    ``splitlines`` gives on the whole text, with universal newlines,
    wherever a chunk ends."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact.txt"
        path.write_text(text, newline="")
        with open(path) as fh:
            expected = fh.read().splitlines()
        with mock.patch.object(persist, "_READ_CHARS", chars):
            assert LineReader(path).lines == expected
