"""The diolab names the benchmark under bench/ rebinds or imports must keep existing.

bench/tracing.py times a layer by rebinding a name in its caller's namespace,
and bench/workloads.py imports diolab names directly; moving or renaming one
of them would otherwise only show when the benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_imports() -> list[tuple[str, str]]:
    tree = ast.parse((BENCH / "workloads.py").read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "diolab"
        for alias in node.names
    ]


tracing = load_tracing()


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _, _ in tracing.LAYER_PATCHES], ids=lambda v: v
)
def test_traced_name_is_in_its_owner_namespace(owner, attr):
    assert attr in vars(tracing.resolve(owner))


def test_workload_imports_exist():
    names = workload_imports()
    assert names, "bench/workloads.py imports no diolab names"
    missing = [f"{module}.{name}" for module, name in names if not hasattr(importlib.import_module(module), name)]
    assert missing == []
