"""The library keeps the decision engine; code that only the tests call lives
in the tests (``tests/oracles.py``, ``tests/conftest.py``).

Every top-level function and class of ``src/bisimap`` must be referenced, by
a name or an attribute, somewhere in the library outside its own
definition.  Imports and ``__all__`` entries are not references: they name a
definition without using it."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bisimap"

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
