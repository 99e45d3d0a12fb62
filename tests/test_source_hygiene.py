"""Static checks on the source: no unused imports, no dead locals.

Each module of ``src/tomoreg`` is parsed with ``ast``.  An import that the
module never reads, or a name that a function assigns and never reads, is
code that does nothing.  ``__init__.py`` is skipped (its imports are the
re-exported API, which ``__all__`` must list exactly), and so are names
that start with ``_``, the convention for a value that is deliberately
unused.  The test and tool scripts get the import check only: tuple
unpacking there often binds names a test does not read.  No module of
``src/tomoreg`` imports from another package's private parts, such as
``scipy.ndimage._filters``: those change without notice between releases.
Every private name that a module of ``src/tomoreg`` defines at module level
or in a class body there (a function, a class or a constant; dunders
aside) is read somewhere in ``src/tomoreg``, so no helper outlives its
last caller.
"""
import ast
from pathlib import Path

import pytest

import tomoreg

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tomoreg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")])


def _loaded(tree) -> set:
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def unused_imports(tree) -> list:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = _loaded(tree)
    return sorted(n for n in imported if n not in used and not n.startswith("_"))


def dead_locals(tree) -> list:
    """(function, name) for each local a function assigns but never reads.

    A nested function counts as part of the function around it, so a
    closure that reads an outer local keeps that local alive.
    """
    dead = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        shared = {name for node in ast.walk(fn)
                  if isinstance(node, (ast.Global, ast.Nonlocal))
                  for name in node.names}
        stored = {n.id for n in ast.walk(fn)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        dead += [(fn.name, name) for name in sorted(stored - _loaded(fn) - shared)
                 if not name.startswith("_")]
    return dead


def _private(dotted: str) -> bool:
    return any(part.startswith("_") for part in dotted.split("."))


def private_imports(tree) -> list:
    """Absolute imports of an underscore module or name of another package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if _private(a.name)]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module != "__future__"):
            found += [f"{node.module}.{a.name}" for a in node.names
                      if _private(f"{node.module}.{a.name}")]
    return sorted(found)


def _defined(tree) -> set:
    """Names bound at module level or in a class body at module level."""
    names = set()
    for body in [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def unread_private_names(trees: dict) -> list:
    """(module, name) for each private, non-dunder name a module of ``trees``
    defines and no module reads, as a name or as an attribute."""
    read = set()
    for tree in trees.values():
        read |= _loaded(tree) | {n.attr for n in ast.walk(tree)
                                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted((module, name) for module, tree in trees.items()
                  for name in _defined(tree) - read
                  if name.startswith("_") and not name.endswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports_or_dead_locals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert (unused_imports(tree), dead_locals(tree)) == ([], [])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_public_third_party_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert private_imports(tree) == []


def test_every_private_name_has_a_reader():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(trees) == []


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_has_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_the_checks_see_what_they_look_for():
    tree = ast.parse(
        "import os\n"
        "from typing import Any, ClassVar\n"
        "x: ClassVar[int] = 0\n"
        "def f(a):\n"
        "    b, _c = a\n"
        "    d = 1\n"
        "    def g():\n"
        "        return b\n"
        "    return g\n")
    assert unused_imports(tree) == ["Any", "os"]
    assert dead_locals(tree) == [("f", "d")]
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy._core\n"
        "from scipy.ndimage._filters import correlate1d\n"
        "from scipy.ndimage import _ni_support, gaussian_filter1d\n"
        "from scipy.linalg.blas import daxpy\n"
        "from .grids import _real\n")
    assert private_imports(tree) == ["numpy._core", "scipy.ndimage._filters.correlate1d",
                                     "scipy.ndimage._ni_support"]
    tree = ast.parse(
        "_USED, _UNUSED = 1, 2\n"
        "def _helper():\n"
        "    return _USED\n"
        "class _Operator:\n"
        "    _step: float = 0.5\n"
        "    def __init__(self):\n"
        "        self._A = _Operator._step\n"
        "    def _matrix(self):\n"
        "        return self._A\n")
    assert unread_private_names({"m.py": tree}) == [
        ("m.py", "_UNUSED"), ("m.py", "_helper"), ("m.py", "_matrix")]


def test_all_lists_exactly_the_names_the_package_imports():
    """A helper deleted from its module must leave no stale export behind."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for a in node.names]
    assert sorted(tomoreg.__all__) == sorted(imported)
    assert len(set(tomoreg.__all__)) == len(tomoreg.__all__)
    assert [n for n in tomoreg.__all__ if not hasattr(tomoreg, n)] == []
