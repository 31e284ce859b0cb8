"""The library keeps the decision engine; code that only the tests call lives
in the tests (``tests/oracles.py``, ``tests/conftest.py``), and every fast
path is held to its slow form by a row of ``oracles.ORACLES``.

Every top-level function and class of ``src/bisimap`` must be referenced, by
a name or an attribute, somewhere in the library outside its own
definition.  Imports and ``__all__`` entries are not references: they name a
definition without using it.  Every function and class of
``tests/oracles.py`` must be reached from a row or from a test module's
import, each row must reach one that nothing else does, and each decision
that the command line calls must be a row's entry point."""

import ast
from collections import Counter
from pathlib import Path

from oracles import ORACLES

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "bisimap"

# The generic filler search is an oracle that only the tests call, but the
# traced benchmark patches ``bisimap.presheaf.find_filler``
# (``benchmark/tracing.py``), so it stays until that hook is dropped.
ALLOWED = {("presheaf", "find_filler")}


def _reads(tree) -> Counter:
    """How often the tree reads each name or attribute name."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    )


def test_every_library_definition_has_a_library_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert "presheaf" in trees
    reads = sum(map(_reads, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if reads[node.name] == _reads(node)[node.name]:
                unused.append((module, node.name))
    assert sorted(unused) == sorted(ALLOWED), f"only the tests call {sorted(set(unused) - ALLOWED)}"


def _loads(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_oracle_is_in_a_row_or_a_test_and_every_row_is_needed():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    uses = {name: _loads(node) & defs.keys() for name, node in defs.items()}
    [table] = [node.value for node in tree.body
               if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["ORACLES"]]
    rows = [_loads(row) & defs.keys() for row in table.elts]
    assert len(rows) == len(ORACLES)
    imported = {alias.name for path in TESTS.glob("test_*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "oracles"
                for alias in node.names} & defs.keys()

    def reached(roots) -> set:
        seen, todo = set(), list(roots)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(uses[name])
        return seen

    assert sorted(defs.keys() - reached(imported.union(*rows))) == [], "in no row and no test"
    for i, row in enumerate(ORACLES):
        others = imported.union(*rows[:i], *rows[i + 1:])
        assert defs.keys() - reached(others), f"row {row.name} reaches nothing the others do not"


def test_every_decision_the_command_line_calls_has_a_row():
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    decisions = {alias.name for node in cli.body
                 if isinstance(node, ast.ImportFrom) and node.module in ("equiv", "lts")
                 for alias in node.names
                 if alias.name.startswith(("check_", "is_")) or alias.name.endswith("_quotient")}
    assert {"is_simulation", "check_bisim_map", "check_forall_fair_bisim", "branching_quotient",
            "forall_fair_quotient"} <= decisions
    assert decisions <= _loads(cli)
    assert sorted(decisions - {row.entry.__name__ for row in ORACLES}) == []
