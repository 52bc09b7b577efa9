"""Checks on the package source itself, read as syntax trees."""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ontoshacl"
TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}


def names_read(trees) -> set:
    """Every name the syntax trees read: by name, attribute or import."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


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


def test_only_model_names_anonymous_nodes():
    """``build_can`` names each anonymous node by its place in the tree when
    it makes it; no other module makes one, so only ``model`` knows the
    naming scheme."""
    callers = {
        module
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Anon"
    }
    assert callers == {"model.py"}


def test_no_module_keys_by_object_identity():
    """No walker keys a body by the object it is, so no module calls
    ``id()``: an equal body built apart must get the same answer."""
    callers = sorted(
        module
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )
    assert callers == []


def test_every_private_definition_is_read_somewhere():
    """A module-level function or class, private or public too, that no
    module of the package reads (by name, attribute or import) is dead
    code."""
    read = names_read(TREES.values())
    dead = [
        f"{module}: {node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in read
    ]
    assert dead == []


def _is_fixture(node: ast.FunctionDef) -> bool:
    """Whether a definition is decorated with ``pytest.fixture``, called or not."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr == "fixture":
            return True
    return False


def test_every_oracle_helper_is_read_somewhere():
    """A module-level function or class of ``tests/oracles.py`` that no test
    module and not ``oracles.py`` itself reads is dead code. Fixtures are
    exempt: pytest reads them by name."""
    tests = Path(__file__).resolve().parent
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(tests.glob("*.py"))
        if path.name.startswith("test_") or path.name == "oracles.py"
    }
    read = names_read(trees.values())
    dead = [
        node.name
        for node in trees["oracles.py"].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not _is_fixture(node) and node.name not in read
    ]
    assert dead == []
