"""Every name a module exports resolves, so a deletion leaves no stale export."""

import importlib
import pkgutil

import pytest

import smonkit

MODULES = ["smonkit"] + [
    f"smonkit.{info.name}" for info in pkgutil.iter_modules(smonkit.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_engine_modules_declare_exports():
    for name in ("smonkit", "smonkit.exactla", "smonkit.quiver", "smonkit.bqa", "smonkit.layered", "smonkit.harness"):
        assert hasattr(importlib.import_module(name), "__all__"), name
