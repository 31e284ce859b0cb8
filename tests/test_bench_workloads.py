"""The benchmark's workloads call the library by module attribute
(``benchmark/workloads.py``).  This test reads that file without running it
and checks that every ``bisimap.<module>.<name>`` it reads, every name it
imports from a ``bisimap`` module and every name in its
``CONCRETE_REFERENCE`` exists, so a library change that drops or renames
one fails here rather than as a failed benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


def _library_names() -> set:
    """(module, name) for each library name the workloads file reads."""
    tree = ast.parse(WORKLOADS.read_text())
    out = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "bisimap"
        ):
            out.add((f"bisimap.{node.value.attr}", node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bisimap"):
            out.update((node.module, alias.name) for alias in node.names)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "CONCRETE_REFERENCE" for t in node.targets)
        ):
            out.update(("bisimap.equiv", name) for name in ast.literal_eval(node.value).values())
    return out


NAMES = sorted(_library_names())


def test_workloads_read_library_names():
    assert ("bisimap.equiv", "check_bisim_map") in NAMES
    assert ("bisimap.equiv", "check_fair_bisim_fn") in NAMES
    assert ("bisimap.lts", "StreettSpec") in NAMES


@pytest.mark.parametrize("module, name", NAMES)
def test_workloads_library_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
