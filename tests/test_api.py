"""The package's public names, and the imports of every module."""

import ast
from pathlib import Path

import alp


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from alp import *", namespace)  # raises if a name in __all__ is missing
    assert sorted(set(alp.__all__)) == sorted(alp.__all__)
    assert all(namespace[name] is getattr(alp, name) for name in alp.__all__)


def _unused_imports(path: Path) -> list:
    """``file:line: name`` for each name the module imports and never reads,
    leaving out ``from __future__`` imports and the names of ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in read and name not in exported]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    paths = sorted(root.glob("src/alp/*.py")) + sorted(root.glob("tests/*.py"))
    assert len(paths) > 20
    assert [line for path in paths for line in _unused_imports(path)] == []


def _unexported_top_level_names(tree: ast.Module) -> dict:
    """Name -> line of each module-level function, class or variable that is
    neither a dunder nor exported by ``alp.__all__``."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update({t.id: node.lineno for t in targets if isinstance(t, ast.Name)})
    return {name: line for name, line in names.items()
            if not name.startswith("__") and name not in alp.__all__}


def test_every_private_top_level_name_is_read():
    # A top-level name that neither the package's users (``alp.__all__``) nor
    # any module of the package reads is dead code, typically left behind
    # when its last caller is deleted.
    root = Path(__file__).resolve().parents[1]
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(root.glob("src/alp/*.py"))}
    assert len(trees) > 5
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert [f"{file}:{line}: {name}" for file, tree in trees.items()
            for name, line in _unexported_top_level_names(tree).items() if name not in read] == []
