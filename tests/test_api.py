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
