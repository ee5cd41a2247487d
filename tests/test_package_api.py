"""The package names that the benchmark under ``perfbench/`` imports and
the calls it makes. A change that breaks one of them fails every benchmark
command, so it must fail a test here first. Also: every module-level
definition of the package is named by the package or the benchmark."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import numpy as np

import hybrid_ids
from hybrid_ids import cli
from hybrid_ids.dataset import CoarseLabel, Dataset, encode_features, parse_kdd_line
from hybrid_ids.hybrid import load_hybrid, predict_dataset

from conftest import make_kdd_lines

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_exported_name_resolves():
    for name in hybrid_ids.__all__:
        assert getattr(hybrid_ids, name) is not None, name


def test_benchmark_imports_resolve():
    imports = [
        (path.name, node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hybrid_ids"
        for alias in node.names
    ]
    assert imports
    missing = []
    for file, module, name in imports:
        if not hasattr(importlib.import_module(module), name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{file}: from {module} import {name}")
    assert missing == []


def test_benchmark_calls_work(tmp_path):
    lines = make_kdd_lines({"normal": 30, "neptune": 12, "ipsweep": 8, "guess_passwd": 6,
                            "buffer_overflow": 5}, seed=3)
    data = tmp_path / "kdd.txt"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(
        f"data={data}\nout={out}\nsampling.normal=30\nsampling.dos=12\nsampling.probe=8\n"
        "sampling.r2l=6\nsampling.u2r=5\nnn.epochs=2\nrf.trees=2\n"
    )
    assert cli.main(["prepare", "--config", str(config)]) == 0
    assert cli.main(["train", "hybrid", "--config", str(config)]) == 0

    X = np.array([encode_features(parse_kdd_line(line.rsplit(",", 1)[0], labeled=False))
                  for line in lines])
    assert X.shape == (len(lines), 41)
    assert parse_kdd_line(lines[-1]).fine_label == "buffer_overflow"

    names = {str(c) for c in CoarseLabel}
    ds = Dataset(X, ["normal"] * len(X), [0] * len(X))
    rows = list(predict_dataset(load_hybrid(out / "hybrid.manifest"), ds)[0])
    assert len(rows) == len(lines)
    for row in rows:
        assert {str(row.coarse), str(row.nn_vote), str(row.rf_vote)} <= names
        if bool(row.routed):
            assert isinstance(row.fine, str) and str(row.misuse_vote) in names
        else:
            assert row.fine is None and row.misuse_vote is None


def test_every_module_level_definition_is_named_outside_tests():
    """A module-level function or class of the package that no name,
    attribute or import in the package or the benchmark scripts mentions is
    code only tests run. The package's re-exports in ``__init__.py`` do not
    count as a use."""
    src = Path(hybrid_ids.__file__).resolve().parent
    modules = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in modules + sorted(PERFBENCH.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
    defined = [
        (path.name, node.name)
        for path, tree in trees.items() if path.parent == src
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert defined
    assert [f"{file}:{name}" for file, name in defined if name not in named] == []
