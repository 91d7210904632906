"""The public names each module declares, and the names each module imports."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import binprov

MODULES = ["binprov", *(f"binprov.{m.name}" for m in pkgutil.iter_modules(binprov.__path__))]

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "binprov").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
