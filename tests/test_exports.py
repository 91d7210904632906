"""The public names each module declares."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import binprov

MODULES = ["binprov", *(f"binprov.{m.name}" for m in pkgutil.iter_modules(binprov.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
