"""The package's public names, and the imports of every module."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alp


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from alp import *", namespace)  # raises if a name in __all__ is missing
    assert sorted(set(alp.__all__)) == sorted(alp.__all__)
    assert all(namespace[name] is getattr(alp, name) for name in alp.__all__)


def _child(script: str, **given) -> str:
    """Stdout of a fresh interpreter that finds this alp and runs ``script``,
    with ``OPENBLAS_NUM_THREADS`` set only if ``given`` sets it."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=os.pathsep.join(sys.path), **given)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_alp_loads_no_module_and_no_numpy():
    script = ("import sys, alp; print(sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'numpy' or m.startswith('alp.')))")
    assert _child(script) == "[]"


def test_alp_trace_loads_alp_geo_alone():
    script = "import sys, alp; alp.Trace; print(sorted(m for m in sys.modules if m.startswith('alp.')))"
    assert _child(script) == "['alp.geo']"


# A finder placed first on sys.meta_path records the BLAS thread setting at
# the moment numpy is first looked up, then lets the normal finders load it.
_BLAS_THREADS_AT_NUMPY = """
import os, sys

class Recorder:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Recorder())
import alp.cli
print(Recorder.seen)
"""


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
def test_the_cli_sets_one_blas_thread_before_numpy_loads(given, expected):
    env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    assert _child(_BLAS_THREADS_AT_NUMPY, **env) == repr([expected])


def test_every_exported_name_is_the_object_of_its_defining_module():
    root = Path(__file__).resolve().parents[1]
    defined = {path.stem: _top_level_names(ast.parse(path.read_text(encoding="utf-8")))
               for path in sorted(root.glob("src/alp/*.py")) if path.stem != "__init__"}
    for name in alp.__all__:
        (module,) = [stem for stem, names in defined.items() if name in names]
        assert getattr(alp, name) is getattr(importlib.import_module(f"alp.{module}"), name), name


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        alp.no_such_name
    assert not hasattr(alp, "no_such_name")


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


def test_no_private_name_crosses_a_module():
    # A ``_``-prefixed name belongs to its module: one that another module
    # imports is a decision two modules know, so it should live behind one.
    root = Path(__file__).resolve().parents[1]
    paths = sorted(root.glob("src/alp/*.py"))
    assert len(paths) > 5
    crossings = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "alp"):
                crossings += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert crossings == []


def test_only_geo_reads_the_earth_radius_or_converts_angles():
    # Earth geometry belongs to geo: a module that reads the radius or turns
    # degrees into radians or chords into arcs computes a distance of its own.
    root = Path(__file__).resolve().parents[1]
    paths = [path for path in sorted(root.glob("src/alp/*.py")) if path.name != "geo.py"]
    assert len(paths) > 5
    geometry = {"EARTH_RADIUS_M", "radians", "degrees", "arcsin", "asin"}
    reads = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a Name's id, an Attribute's attr, or an imported or defined name
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in geometry:
                reads.append(f"{path.name}:{node.lineno}: {name}")
    assert reads == []


def test_only_geo_orders_rows():
    # Dataset.from_rows is the one rule for ordering a user's rows: a module
    # that sorts indices itself groups or orders rows by a rule of its own.
    trees = _package_trees()
    assert [file for file, tree in trees.items()
            if file != "geo.py" and {"argsort", "lexsort"} & _read_names([tree])] == []


def _top_level_names(tree: ast.Module) -> dict:
    """Name -> line of each module-level function, class or variable."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update({t.id: node.lineno for t in targets if isinstance(t, ast.Name)})
    return names


def _unexported_top_level_names(tree: ast.Module) -> dict:
    """Name -> line of each module-level function, class or variable that is
    neither a dunder nor exported by ``alp.__all__``."""
    return {name: line for name, line in _top_level_names(tree).items()
            if not name.startswith("__") and name not in alp.__all__}


def _read_names(trees) -> set:
    """Every name that the trees load, as a ``Name`` or an ``Attribute``."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _package_trees() -> dict:
    root = Path(__file__).resolve().parents[1]
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(root.glob("src/alp/*.py"))}
    assert len(trees) > 5
    return trees


def test_every_private_top_level_name_is_read():
    # A top-level name that neither the package's users (``alp.__all__``) nor
    # any module of the package reads is dead code, typically left behind
    # when its last caller is deleted.
    trees = _package_trees()
    read = _read_names(trees.values())
    assert [f"{file}:{line}: {name}" for file, tree in trees.items()
            for name, line in _unexported_top_level_names(tree).items() if name not in read] == []


def test_every_exported_name_is_read_by_the_package():
    # An export that no module of the package reads serves only its tests: a
    # second way to do what ``alp`` does, which ``alp`` itself never runs.
    trees = _package_trees()
    read = _read_names(tree for file, tree in trees.items() if file != "__init__.py")
    assert sorted(name for name in alp.__all__ if name not in read) == []
