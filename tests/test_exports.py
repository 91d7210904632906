"""The public names each module declares, the names each module imports,
and the readers of each library definition."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import binprov

MODULES = ["binprov", *(f"binprov.{m.name}" for m in pkgutil.iter_modules(binprov.__path__))]

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "binprov").glob("*.py"))
SOURCES = sorted([*LIBRARY, *(ROOT / "tests").glob("*.py")])
BENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def _unread_imports(source: str) -> list[str]:
    """Names that a module's top-level imports bind and that the module
    never reads. A name in ``__all__`` counts as read. An import statement
    marked ``# noqa: F401`` is exempt: it binds a name only for code that
    rebinds the module's attribute."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, None] = {}
    read: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if not any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                bound.update((alias.asname or alias.name.split(".")[0], None) for alias in node.names)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    read.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path\n"
        "from json import dumps as d, loads  # noqa: F401\n"
        "from re import compile, escape\n"
        "__all__ = ['escape']\n"
        "print(sys.argv)\n"
    )
    assert _unread_imports(source) == ["os", "compile"]


def _unread_defs(library: list[str], readers: list[str]) -> list[str]:
    """Top-level ``def``s and ``class``es of the ``library`` sources whose
    name nothing reads. A name is read where a library or reader source
    loads it as a name or an attribute, and where a reader holds it as a
    string: perfbench's tracer names the attributes it rebinds as strings.
    A library string does not count, so ``__all__`` keeps no name alive."""
    library_trees = [ast.parse(source) for source in library]
    reader_trees = [ast.parse(source) for source in readers]
    read: set[str] = set()
    for tree in [*library_trees, *reader_trees]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    for tree in reader_trees:
        read.update(
            node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    return [
        node.name
        for tree in library_trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in read
    ]


def test_every_library_def_has_a_caller():
    # Code that only tests reach belongs in the tests (``oracles``), not in
    # the library.
    assert _unread_defs([p.read_text() for p in LIBRARY], [p.read_text() for p in BENCH]) == []


def test_an_unread_def_is_found():
    library = (
        "__all__ = ['exported']\n"
        "def exported():\n"
        "    return called(), 'helper'\n"
        "def helper(): pass\n"
        "def called(): return Kept\n"
        "class Kept:\n"
        "    def method(self): pass\n"
        "def attribute(): pass\n"
        "async def constant(): pass\n"
    )
    reader = "import lib\nlib.attribute()\nTARGETS = ((lib, 'constant'),)\n"
    assert _unread_defs([library], [reader]) == ["exported", "helper"]
