"""``tools/first_byte.py``: its timing of a fresh CLI process, on a stand-in
package, and its summary of paired times, on fixed numbers."""

from __future__ import annotations

import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import first_byte  # noqa: E402


def test_summary_of_paired_times():
    parent = [(0.150, 0.190), (0.160, 0.200), (0.140, 0.185), (0.155, 0.210)]
    change = [(0.120, 0.170), (0.161, 0.180), (0.125, 0.175), (0.130, 0.160)]
    assert first_byte.summary_lines(parent, change) == [
        "first_byte_s    parent 0.1525 [0.1475, 0.15625]  change 0.1275 [0.12375, 0.13775]  "
        "parent IQR 0.00875  wins 3/4  median -16.4%  (beyond the IQR)",
        "exit_s          parent 0.195 [0.18875, 0.2025]  change 0.1725 [0.1675, 0.17625]  "
        "parent IQR 0.01375  wins 4/4  median -11.5%  (beyond the IQR)",
    ]


def _stand_in(tmp_path: Path, body: str) -> Path:
    """A ``src`` directory whose ``hybrid_ids.cli`` runs ``body``."""
    package = tmp_path / "src" / "hybrid_ids"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import sys, time\n" + body)
    return tmp_path / "src"


def test_times_run_to_the_first_byte_and_to_the_exit(tmp_path, monkeypatch):
    # the stand-in writes, then waits to exit until the clock has been read
    # a second time (the first byte's reading, after the start's), and fails
    # if that does not come while it runs
    release = tmp_path / "release"
    src = _stand_in(tmp_path, (
        "from pathlib import Path\n"
        "print(sys.argv[1:], flush=True)\n"
        "deadline = time.monotonic() + 30\n"
        f"while not Path({str(release)!r}).exists():\n"
        "    if time.monotonic() > deadline:\n"
        "        sys.exit('the first byte was not read before the exit')\n"
        "    time.sleep(0.005)\n"))
    readings = []

    def clock():
        readings.append(time.perf_counter())
        if len(readings) == 2:
            release.touch()
        return readings[-1]

    monkeypatch.setattr(first_byte, "time", SimpleNamespace(perf_counter=clock))
    first_s, exit_s = first_byte.time_command(["evaluate", "hybrid"], tmp_path, src)
    assert len(readings) == 3 and 0 < first_s < exit_s


@pytest.mark.parametrize("body, match", [
    ("sys.exit(2)\n", "exited with code 2 after writing 0 bytes"),
    ("print('x')\nsys.exit('no model')\n", "exited with code 1 after writing 1 bytes: no model"),
])
def test_a_failed_command_is_an_error(tmp_path, body, match):
    src = _stand_in(tmp_path, body)
    with pytest.raises(RuntimeError, match=match):
        first_byte.time_command(["predict"], tmp_path, src)
