"""Checks on the package source itself, read as syntax trees."""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ontoshacl"
TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}


def test_every_imported_name_is_used():
    unused = []
    for module, tree in TREES.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{module}: {name}")
    assert unused == []


def test_only_core_builds_interpretations():
    """Every other module gets an interpretation from ``Interpretation.of``
    or from a sealed ``GraphIndex``."""
    callers = {
        module
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Interpretation"
    }
    assert callers == {"core.py"}


def test_every_private_definition_is_read_somewhere():
    """A module-level ``_name`` function or class that no module of the
    package reads (by name, attribute or import) is dead code."""
    read = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = [
        f"{module}: {node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in read
    ]
    assert dead == []
