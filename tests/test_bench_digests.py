"""Every output of the benchmark's commands, pinned: one sha256 per file,
stdout and stderr of ``prepare``, ``train hybrid --log-level INFO``,
``train nn --log-level INFO``, ``predict`` on the 2,000 stream lines, and
``evaluate hybrid`` on the held-out split and on it tiled 16 times, on
the benchmark's corpora of seeds 1, 3 and 5.

The flow runs in this process through ``cli.main`` on all of the
process's CPUs. Then ``train hybrid``, the only one of the commands that
may fork, runs again with the process cut to one CPU, so the one table
pins both the forked and the one-process paths. The inputs and the config come
from ``perfbench/corpus.py`` and ``perfbench/run.py``, read and never
changed. The training time is masked. A change that changes an output
updates the table and names each changed digest and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import os
import re
import sys
from pathlib import Path

import pytest

from hybrid_ids.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# set by run.py at import, for the benchmark's own processes
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load_bench():
    """``perfbench/run.py``, imported with its directory on the import path
    for the import only. The modules it imports from there (``corpus``,
    ``checks`` and others) are reached through it, and no module of those
    names is left in ``sys.modules``; the BLAS variables it sets are put
    back as they were."""
    names = ("calibrate", "checks", "corpus", "layers", "spans", "run")
    shadowed = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    blas = {var: os.environ.get(var) for var in BLAS_VARS}
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("run")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(shadowed)
        for var, value in blas.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


run = _load_bench()

SEEDS = (1, 3, 5)
COMMANDS = [
    ["prepare"],
    ["train", "hybrid", "--log-level", "INFO"],
    ["train", "nn", "--log-level", "INFO"],
    ["predict", "--input", "traffic.txt"],
    ["evaluate", "hybrid"],
    ["evaluate", "hybrid", "--test-file", "batch.csv"],
]
FORKING = ["train", "hybrid", "--log-level", "INFO"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _model_files() -> dict[str, str]:
    return {path.name: _sha(path.read_bytes()) for path in sorted(Path(run.MODEL_DIR).iterdir())}


def _run(argv: list[str], seed: int) -> tuple[str, dict[str, str]]:
    """Run one command: its name in the table, and the digests of its
    stdout and stderr."""
    name = f"seed {seed} {' '.join(argv)}"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main([*argv, "--config", "run.cfg"]) == 0, name
    masked = re.sub(r"training time: \S+", "training time: -", out.getvalue())
    return name, {f"{name}: stdout": _sha(masked.encode()), f"{name}: stderr": _sha(err.getvalue().encode())}


def flow_digests(directory: Path, seed: int) -> dict[str, str]:
    """Run the commands on seed ``seed``'s inputs in ``directory``: the
    digest of each command's stdout and stderr, and of each file in the
    model directory that the command wrote new bytes to."""
    directory.mkdir()
    with contextlib.chdir(directory):
        Path("corpus.txt").write_text(run.corpus.training_corpus(seed))
        Path("run.cfg").write_text(run.config_text())
        Path("traffic.txt").write_text(run.corpus.stream_traffic(seed, run.STREAM_LINES).text)
        digests: dict[str, str] = {}
        files: dict[str, str] = {}
        for argv in COMMANDS:
            name, printed = _run(argv, seed)
            digests.update(printed)
            for file, sha in _model_files().items():
                if files.get(file) != sha:
                    files[file] = digests[f"{name}: {file}"] = sha
            if argv[0] == "prepare":
                lines = Path(run.MODEL_DIR, "test.csv").read_text().splitlines(keepends=True)
                rows = run.data_rows(lines)
                Path("batch.csv").write_text("".join(lines[: len(lines) - len(rows)] + rows * run.BATCH_TILES))
    return digests


@pytest.fixture(scope="module")
def flows(tmp_path_factory) -> tuple[dict[str, Path], dict[str, str]]:
    """The flow of each seed on all CPUs: its directory, and the digests."""
    root = tmp_path_factory.mktemp("bench")
    dirs = {seed: root / f"seed{seed}" for seed in SEEDS}
    digests: dict[str, str] = {}
    for seed, directory in dirs.items():
        digests.update(flow_digests(directory, seed))
    return dirs, digests


def test_bench_outputs_match_their_digests(flows):
    _, digests = flows
    assert digests == DIGESTS


def test_training_on_one_cpu_prints_and_writes_the_same(flows):
    """``train hybrid``, run again on one CPU in each seed's directory,
    prints what the table holds and leaves every file as it was."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("this platform cannot set a process's CPUs")
    dirs, digests = flows
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, [min(mask)])
    try:
        for seed, directory in dirs.items():
            with contextlib.chdir(directory):
                before = _model_files()
                _, printed = _run(FORKING, seed)
                assert printed == {key: digests[key] for key in printed}
                assert _model_files() == before, f"seed {seed}"
    finally:
        os.sched_setaffinity(0, mask)


# made before `jobs.beside` carried every fork, and the same there on all CPUs and on one
DIGESTS = {
    "seed 1 prepare: stdout": "c58d4be8eacde48e2efefb11c32216fec3e0081ad8ffef798275ea6ca74c2aa2",
    "seed 1 prepare: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "seed 1 prepare: prepare_summary.txt": "c58d4be8eacde48e2efefb11c32216fec3e0081ad8ffef798275ea6ca74c2aa2",
    "seed 1 prepare: taxonomy.txt": "85cba0a543012aa7263a359032b6f5909064b14dfc7472039b537945a86fc32d",
    "seed 1 prepare: test.csv": "a38d6a6bb3456fa81029459d937f1aa65e50417a18e4d63b0f90d784d7116754",
    "seed 1 prepare: train.csv": "b527620dba3d82c1f3a616adcaef9f63d106c342635e4c63de2d41b0e6b5873a",
    "seed 1 train hybrid --log-level INFO: stdout": "d7bb21fdaf18b3c0b6476aab16921cd315878a518aa001bc8b4b7a18e2cd9b5d",
    "seed 1 train hybrid --log-level INFO: stderr": "cadeaf1e5a986721faf633fd8538cb77aa994349705c66902827c9fb60f2de50",
    "seed 1 train hybrid --log-level INFO: centroids.model": "10f4404c4a9f6718c00b826fecfa958f9bc12ddd5e10248088c7ecb17ba37c7e",
    "seed 1 train hybrid --log-level INFO: forest.model": "e1b20ab304c4d409c47a30e09469f6a31b58cf45d9102e9cc5dc3c7caf3d8b23",
    "seed 1 train hybrid --log-level INFO: hybrid.manifest": "7b70665b42af539438e6df85edd78682bb4030c46e39226710551c40e363f034",
    "seed 1 train hybrid --log-level INFO: mlp.model": "e62ca49954879d7429832cf0835f0aaede651cb0b381f5566339d19898b095f9",
    "seed 1 train hybrid --log-level INFO: stats.txt": "bad9095d069cf11e7be0254275588737ea50e7e3996b074c3573cd773920892d",
    "seed 1 train nn --log-level INFO: stdout": "02e51bcb2a4636bb87b19f494b38e043bed638e1dbe5605d133d6f87da530196",
    "seed 1 train nn --log-level INFO: stderr": "ec7f8d479396c2ffe6ebac45dc643c8bfd835773990970a4ac006c794b268c96",
    "seed 1 predict --input traffic.txt: stdout": "1c435c48c5f02937bc129086c3c8b1376e934c33b3998fb2a824cbed16745eb2",
    "seed 1 predict --input traffic.txt: stderr": "5e967d14b686c834cd0a40c786d2ac8fb6f67779a06a344369473c9ab26b8dc5",
    "seed 1 predict --input traffic.txt: predictions.csv": "34d9ca4d1943838a8d89f944c9454664f3a09d82ce46308fd7f842f6eed354d0",
    "seed 1 predict --input traffic.txt: predictions.rejects.txt": "c1171468896ba6469cd5f647003b7f7eb282366f4a16c38dab7d475b104b1cbd",
    "seed 1 evaluate hybrid: stdout": "bdce23856b9e458338786c33d4f507fdc353930b2b2575d5957396182477ad99",
    "seed 1 evaluate hybrid: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "seed 1 evaluate hybrid: confusion_hybrid.csv": "44bf3f2158ea05061d99c22ea91a07b08c140381d8b789bf8fa6cc23d9d355cd",
    "seed 1 evaluate hybrid: metrics_hybrid.csv": "4136e27c17a788ebdb2b60875f87dc53cb2b94228ea1c3a8677978c4d20dd7f0",
    "seed 1 evaluate hybrid: report_hybrid.txt": "01f001fcaf0c5337a0fad7019df8aea773a7ec630b6146ed986bd6f9a15e85b8",
    "seed 1 evaluate hybrid: routing_hybrid.txt": "8a4464755d15e53e4971cb5c014a2308a5873f4a9b80019f67092b376411e491",
    "seed 1 evaluate hybrid --test-file batch.csv: stdout": "b5a5a218eeadae4b2701a037d8a26f8e4b6133c6e1d47acd22d4962b2d640e30",
    "seed 1 evaluate hybrid --test-file batch.csv: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "seed 1 evaluate hybrid --test-file batch.csv: confusion_hybrid.csv": "2fd1a41e1195e55f408e262f62bf6d63a42775e531dbbacef3b1bad0d4d8e2a8",
    "seed 1 evaluate hybrid --test-file batch.csv: routing_hybrid.txt": "5f6fb74569be13a72d90919b8af95341d34490a95fe64d5b45eea23255f7bbb2",
    "seed 3 prepare: stdout": "14259b2f49a6e3de0471589cf697103bbab02bdd356b29885747e81f888bbb19",
    "seed 3 prepare: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "seed 3 prepare: prepare_summary.txt": "14259b2f49a6e3de0471589cf697103bbab02bdd356b29885747e81f888bbb19",
    "seed 3 prepare: taxonomy.txt": "85cba0a543012aa7263a359032b6f5909064b14dfc7472039b537945a86fc32d",
    "seed 3 prepare: test.csv": "dd7e55b1864b082c2e53a747cc98fa960d70e33ea1e21c3965941d469a6bca28",
    "seed 3 prepare: train.csv": "4f2c43ad022a89ec8861aadb3328e37ef657c31b679040859f5f45774605426b",
    "seed 3 train hybrid --log-level INFO: stdout": "d7bb21fdaf18b3c0b6476aab16921cd315878a518aa001bc8b4b7a18e2cd9b5d",
    "seed 3 train hybrid --log-level INFO: stderr": "6c8fcfc6065417c8dea88a8798c5d1e9d619c010522c94c901cef66c76e8c69d",
    "seed 3 train hybrid --log-level INFO: centroids.model": "b2da63c6191ef0c92f5f206e2428a5c9954b01551f037e47b2c11c29aa226806",
    "seed 3 train hybrid --log-level INFO: forest.model": "8b1ff3c6ef11c2fb22b93dfa47a16d6d1a66029be08cf936bbd9d19b9bf36b61",
    "seed 3 train hybrid --log-level INFO: hybrid.manifest": "7b70665b42af539438e6df85edd78682bb4030c46e39226710551c40e363f034",
    "seed 3 train hybrid --log-level INFO: mlp.model": "9dab5b221a03cf010eb6dc0741d196c5ee8922c3dfd7eee65f3ff032dd5972e3",
    "seed 3 train hybrid --log-level INFO: stats.txt": "dc43426dcf4ed39bacd5e9bc100291ba5a46adf146abf8da0eae7b15585ad9c7",
    "seed 3 train nn --log-level INFO: stdout": "e6bbb30a9b44bec7bbc9b7bc3a7523d6d06ce33ea82c7ea5d44233fee9d05072",
    "seed 3 train nn --log-level INFO: stderr": "36f3c145aaf6de200fcc5104831168b34e707d64b3d8ca97bf34c9c62e2dc402",
    "seed 3 predict --input traffic.txt: stdout": "be5e0527979d4ca5e8e94dc8ab6bb83117a2be3f930f1b45c18f3b250f48dd7d",
    "seed 3 predict --input traffic.txt: stderr": "e76a1a9188f164758c23bf0f062aecf7fdcb16f714f483bf177133a87be1c236",
    "seed 3 predict --input traffic.txt: predictions.csv": "9b938b66ef9f969df8f047166781daf2ee30c76717fe40f4a0b2f6e2fec5f74c",
    "seed 3 predict --input traffic.txt: predictions.rejects.txt": "7b1a8ff76b484c919065853d411e8f1650a3605563efc9e8b258bd000b5de927",
    "seed 3 evaluate hybrid: stdout": "156ddd41d1224af96a2c215b82da8d1b2ff2906209c3823fcba2438ab15edca0",
    "seed 3 evaluate hybrid: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "seed 3 evaluate hybrid: confusion_hybrid.csv": "b5f53b0891b19e63ee96fbff6a15741c335939e9c6504d5c1b54046950dc957d",
    "seed 3 evaluate hybrid: metrics_hybrid.csv": "2ba7c25f442b5105cf98f162a4d292390061f6f2f56b5f78faf521b4f260d720",
    "seed 3 evaluate hybrid: report_hybrid.txt": "af3dc9c194e64c48ed6bb71c802cc7a933ae6439e4c9fec87aab97113384ba4a",
    "seed 3 evaluate hybrid: routing_hybrid.txt": "96a5dfaa3b022d1f41b8eed6f4e99f9c7cacbd913c50096149892fa661d66a1f",
    "seed 3 evaluate hybrid --test-file batch.csv: stdout": "9cad9bf2de29caab040d3d899206dff885f7343511043d8017714ab1410ec0ad",
    "seed 3 evaluate hybrid --test-file batch.csv: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "seed 3 evaluate hybrid --test-file batch.csv: confusion_hybrid.csv": "ac23fecedf5ed03c5d9e9e3e966051878be43a024f619b66f9ed03c73843a6d5",
    "seed 3 evaluate hybrid --test-file batch.csv: routing_hybrid.txt": "e87ad96b7a2a0ce473dcd57f595134ddf275a1383085c8fbab58e4e4e983d6db",
    "seed 5 prepare: stdout": "af16e0d269ad3d378ec7dc0ed394dfb261d99a7523228fe0e8cf928534b48c21",
    "seed 5 prepare: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "seed 5 prepare: prepare_summary.txt": "af16e0d269ad3d378ec7dc0ed394dfb261d99a7523228fe0e8cf928534b48c21",
    "seed 5 prepare: taxonomy.txt": "85cba0a543012aa7263a359032b6f5909064b14dfc7472039b537945a86fc32d",
    "seed 5 prepare: test.csv": "12a2ca6e6e212407596196dd19703ee2e355a5fde1b16c236bcd999407e1575f",
    "seed 5 prepare: train.csv": "15604ff83c951ef6f693eb6e11fd8758f3a92ea23f60e30eb043a51de2411f17",
    "seed 5 train hybrid --log-level INFO: stdout": "d7bb21fdaf18b3c0b6476aab16921cd315878a518aa001bc8b4b7a18e2cd9b5d",
    "seed 5 train hybrid --log-level INFO: stderr": "9a886eb7eadb3da3459604118cd4a1a345095b10c1a17c236e366e4b873fa9c4",
    "seed 5 train hybrid --log-level INFO: centroids.model": "e9216733477acf9ea923f62de39871adc990a942c40735ac2e192ed53b892ab3",
    "seed 5 train hybrid --log-level INFO: forest.model": "dff5390daa2111c01069d35819d3d02486b09ede44f270154e41bf932c995948",
    "seed 5 train hybrid --log-level INFO: hybrid.manifest": "7b70665b42af539438e6df85edd78682bb4030c46e39226710551c40e363f034",
    "seed 5 train hybrid --log-level INFO: mlp.model": "90f465dcdfdce13ebe8b2e34e09784495897dafbf920b2b1dc062b3618f6fdc0",
    "seed 5 train hybrid --log-level INFO: stats.txt": "d9646aaeeabd75d028d8f848a545bafffc387d7b2a9414c337f0b394a20d0bd2",
    "seed 5 train nn --log-level INFO: stdout": "20b57bd56237997daa8cff4a7d22eb21fd4b9a2b53f2e74594e03b6d2dc43d77",
    "seed 5 train nn --log-level INFO: stderr": "67c692e5c4ad91b234ed62270fa50839b65f25bd0275a5a464387987b382fa6e",
    "seed 5 predict --input traffic.txt: stdout": "d303f176f1748a67716e55e535776aa3e05fa06880148156cfe3a135d546e246",
    "seed 5 predict --input traffic.txt: stderr": "2584de532805935b63841099b8e1bc6ad687cec809dcb4db3378a40f5bf24681",
    "seed 5 predict --input traffic.txt: predictions.csv": "fcbc0e2a8c310939c91e8e803738d6ffaf1192b3582d8b2bdf79f8e64fd3056a",
    "seed 5 predict --input traffic.txt: predictions.rejects.txt": "ddca07ee3e1395283adf2da8d1fe7c6b4e7cd670de1e79da30ecf091f644eb62",
    "seed 5 evaluate hybrid: stdout": "5d9481cc6a13e9230b5474fa99618226ade01b5fc18dcc94375a2de240c9d465",
    "seed 5 evaluate hybrid: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "seed 5 evaluate hybrid: confusion_hybrid.csv": "3d4191236d732553a21f501f00c27b51992d850c96546325980f5fe8eb7f5578",
    "seed 5 evaluate hybrid: metrics_hybrid.csv": "5bea7ac837bfb351b2fff9034d2bdc10d967b7a6273a8eedc39d956a46944a61",
    "seed 5 evaluate hybrid: report_hybrid.txt": "aca9861ef5313586aea6ec1a597c01d853f4440ec9429cf0cb0469c9a9103b6c",
    "seed 5 evaluate hybrid: routing_hybrid.txt": "96a5dfaa3b022d1f41b8eed6f4e99f9c7cacbd913c50096149892fa661d66a1f",
    "seed 5 evaluate hybrid --test-file batch.csv: stdout": "3d1fb0e5adbdc955c389977ac89549653748d80a286ba5f084e22f4c44683326",
    "seed 5 evaluate hybrid --test-file batch.csv: stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "seed 5 evaluate hybrid --test-file batch.csv: confusion_hybrid.csv": "c118a2bc4bb8dd2f336e5f3b6698d1cd8fae7b60e4ce9a6550ffc52e35756638",
    "seed 5 evaluate hybrid --test-file batch.csv: routing_hybrid.txt": "e87ad96b7a2a0ce473dcd57f595134ddf275a1383085c8fbab58e4e4e983d6db",
}
