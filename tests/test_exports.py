"""Every name the package exports has a caller.

A name in tdual.__all__ must be referenced (as a name, an attribute or an
imported name) somewhere in src/tdual outside __init__.py, or in bench/.
Its own def or class does not count, and neither do the tests: a helper
only the tests use belongs in tests/oracles.py.
"""

import ast
from pathlib import Path

import tdual

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "tdual").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "bench").glob("*.py"))


def referenced_names() -> set:
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_has_a_caller():
    used = referenced_names()
    assert [name for name in tdual.__all__ if name not in used] == []
