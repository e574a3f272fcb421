"""A lint that runs where the builder runs: no unused imports.

CI's ``ruff check`` rejects an unused import (F401) but ruff is not
installed in the development container, so refactors kept leaving
them behind.  This is the same rule from the standard library alone:
an imported name must be loaded somewhere in its module, or be listed
in ``__all__``, or appear in a string annotation.  ``__init__.py``
files (re-export surfaces) and ``# noqa`` lines are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "benchmarks")


def _annotation_strings(tree):
    """Names mentioned inside string annotations (``"Simulation | None"``)."""
    slots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            slots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            slots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            slots.append(node.annotation)
    for slot in filter(None, slots):
        for node in ast.walk(slot):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    yield from ast.walk(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every import ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
    used = {
        node.id
        for node in (*ast.walk(tree), *_annotation_strings(tree))
        if isinstance(node, ast.Name)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            )
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("top", CHECKED)
def test_no_unused_imports(top):
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert offenders == []


def test_the_rule_itself():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np  # noqa: F401\n"
        "from a import b, c, d, e\n"
        "__all__ = ['c']\n"
        "def f(x: 'd.T') -> None:\n"
        "    return sys.argv, b\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "e")]
