"""Every module of the package (its __init__ aside, which re-exports) uses each
name it imports; read from the source with ast, so nothing is imported."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "heckekl"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that source imports (outside ``from __future__``) and never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("from heapq import heappush\n", ["heappush (line 1)"]),
        ("import os.path\nos.sep\n", []),
        ("from functools import cache as memo\n", ["memo (line 1)"]),
        ("from __future__ import annotations\n", []),
    ],
    ids=["unused", "dotted-module", "alias", "future"],
)
def test_unused_imports_finds_what_is_not_read(source, unused):
    assert unused_imports(source) == unused
