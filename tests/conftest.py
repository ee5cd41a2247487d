"""Shared fixtures: synthetic KDD-format corpora and separable datasets.

The synthetic corpus mimics the canonical file's shape (42 comma-separated
fields, label with trailing dot) with class-conditional feature templates
that are easy to separate, so pipeline behavior can be exercised without
the real data. The real 10% file, when present, is discovered via the
KDD99_DATA environment variable or ./data/kddcup.data_10_percent[.gz].
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from hybrid_ids.dataset import CoarseLabel, Dataset, N_FEATURES
from hybrid_ids.errors import FormatError

# (fine label, coarse class, protocol, service, flag)
SYNTH_CLASSES = (
    ("normal", CoarseLabel.NORMAL, "tcp", "http", "SF"),
    ("neptune", CoarseLabel.DOS, "tcp", "private", "S0"),
    ("smurf", CoarseLabel.DOS, "icmp", "ecr_i", "SF"),
    ("ipsweep", CoarseLabel.PROBE, "icmp", "eco_i", "SF"),
    ("guess_passwd", CoarseLabel.R2L, "tcp", "ftp", "SF"),
    ("buffer_overflow", CoarseLabel.U2R, "tcp", "telnet", "SF"),
)


def _numeric_fields(fine: str, rng: np.random.Generator) -> dict[int, str]:
    """Class-conditional values for the 38 numeric columns (0-based indices
    into the 41 raw feature fields); unset columns default to 0."""
    if fine == "normal":
        return {
            4: str(rng.integers(100, 2000)), 5: str(rng.integers(500, 5000)),
            11: "1", 22: str(rng.integers(1, 10)), 23: str(rng.integers(1, 10)),
            28: "1.00", 31: str(rng.integers(1, 255)), 32: str(rng.integers(1, 255)),
            33: "1.00",
        }
    if fine == "neptune":
        return {
            22: str(rng.integers(100, 511)), 23: str(rng.integers(1, 20)),
            24: "1.00", 25: "1.00", 28: "0.06", 29: "0.07",
            31: "255", 32: str(rng.integers(1, 30)), 37: "1.00", 38: "1.00",
        }
    if fine == "smurf":
        count = rng.integers(200, 511)
        return {
            4: "1032", 22: str(count), 23: str(count), 28: "1.00",
            31: "255", 32: "255", 33: "1.00",
        }
    if fine == "ipsweep":
        return {
            4: "8", 22: str(rng.integers(1, 5)), 23: str(rng.integers(1, 5)),
            28: "1.00", 30: str(round(float(rng.uniform(0.5, 1.0)), 2)),
            31: str(rng.integers(1, 60)), 35: "1.00",
        }
    if fine == "guess_passwd":
        return {
            0: str(rng.integers(1, 6)), 4: str(rng.integers(20, 60)),
            5: str(rng.integers(70, 200)), 9: "1",
            10: str(rng.integers(1, 6)), 22: "1", 23: "1", 28: "1.00",
        }
    if fine == "buffer_overflow":
        return {
            0: str(rng.integers(100, 500)), 4: str(rng.integers(1000, 2000)),
            5: str(rng.integers(200, 500)), 9: "2", 11: "1",
            13: "1", 15: str(rng.integers(1, 4)), 22: "1", 23: "1", 28: "1.00",
        }
    raise ValueError(fine)


def make_kdd_line(fine: str, rng: np.random.Generator) -> str:
    spec = next(s for s in SYNTH_CLASSES if s[0] == fine)
    _, _, proto, service, flag = spec
    fields = ["0"] * 41
    fields[1], fields[2], fields[3] = proto, service, flag
    for idx, value in _numeric_fields(fine, rng).items():
        fields[idx] = value
    return ",".join(fields) + f",{fine}."


def make_kdd_lines(counts: dict[str, int], seed: int = 7) -> list[str]:
    rng = np.random.default_rng(seed)
    lines = []
    for fine, n in counts.items():
        lines.extend(make_kdd_line(fine, rng) for _ in range(n))
    return lines


DEFAULT_SYNTH_COUNTS = {
    "normal": 120, "neptune": 60, "smurf": 60,
    "ipsweep": 40, "guess_passwd": 30, "buffer_overflow": 20,
}


@pytest.fixture
def synth_kdd_file(tmp_path: Path) -> Path:
    path = tmp_path / "synth_kdd.txt"
    path.write_text("\n".join(make_kdd_lines(DEFAULT_SYNTH_COUNTS)) + "\n")
    return path


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    what = "still running" if pid == 0 else f"unreaped (pid {pid}, status {status})"
    pytest.fail(f"the test left a child process {what}")


def separable_dataset(n_per_label: int = 40, seed: int = 0, spread: float = 0.3) -> Dataset:
    """Encoded-feature dataset with one well-separated Gaussian blob per
    fine label; standardize before feeding the models."""
    rng = np.random.default_rng(seed)
    centers = {}
    for fine, _, _, _, _ in SYNTH_CLASSES:
        centers[fine] = rng.uniform(-8.0, 8.0, size=N_FEATURES)
    X, fine_labels, coarse = [], [], []
    for fine, c, _, _, _ in SYNTH_CLASSES:
        pts = centers[fine] + rng.normal(0.0, spread, size=(n_per_label, N_FEATURES))
        X.append(pts)
        fine_labels.extend([fine] * n_per_label)
        coarse.extend([int(c)] * n_per_label)
    return Dataset(np.vstack(X), fine_labels, coarse)


def expect_load_error(load, path: Path, lines: list[str], line_no: int, match: str) -> None:
    """Write ``lines`` to ``path``: ``load(path)`` must raise a FormatError
    matching ``match`` that names the file and line ``line_no``."""
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(FormatError, match=match) as info:
        load(path)
    assert info.value.line_no == line_no
    assert str(info.value).startswith(f"{path}, line {line_no}: ")


def find_kdd10() -> Path | None:
    env = os.environ.get("KDD99_DATA")
    if env and Path(env).exists():
        return Path(env)
    repo = Path(__file__).resolve().parent.parent
    for name in ("kddcup.data_10_percent", "kddcup.data_10_percent.gz"):
        candidate = repo / "data" / name
        if candidate.exists():
            return candidate
    return None


@pytest.fixture(scope="session")
def kdd10_path() -> Path:
    path = find_kdd10()
    if path is None:
        pytest.skip(
            "canonical KDD Cup 1999 10% file not available; set KDD99_DATA or "
            "place kddcup.data_10_percent[.gz] under ./data/"
        )
    return path
