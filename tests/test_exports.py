"""Every name a module exports resolves, so a deletion leaves no stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

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
    for name in (
        "smonkit",
        "smonkit.exactla",
        "smonkit.quiver",
        "smonkit.bqa",
        "smonkit.layered",
        "smonkit.harness",
        "smonkit.formats",
    ):
        assert hasattr(importlib.import_module(name), "__all__"), name


# Exports of the engine layers that nothing in the program calls. Each one is
# kept on purpose; a new export without a caller fails below until it is
# either used or added here.
UNCALLED_EXPORTS = {
    "bqa.syzygy",  # one step of bqa.resolve
    "exactla.solve",  # one column of solve_many; perfbench's trace hooks it by name
    "harness.algebra_trivial",  # the ground field as an algebra
    # ROADMAP item 7 parks these two for item 2 (stock contexts where the
    # theorems bite), which may give them a suite caller
    "harness.submodule_pair",
    "harness.radical_power_inclusion",
}

PROGRAM_DIRS = ("src", "scripts", "perfbench")


def _referenced_names() -> set[str]:
    """The names the program's code reads: an attribute read or a
    ``from ... import`` anywhere, as a bare name, and a load inside an engine
    module, as ``module.name``.  The definitions themselves, the ``__all__``
    strings and a same-named local elsewhere are not references."""
    root = Path(__file__).resolve().parent.parent
    names = set()
    for d in PROGRAM_DIRS:
        for path in (root / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and path.parent.name == "smonkit":
                    names.add(f"{path.stem}.{node.id}")
    return names


def test_uncalled_exports_are_listed():
    used = _referenced_names()
    uncalled = {
        f"{name}.{export}"
        for name in ("exactla", "quiver", "bqa", "layered", "harness", "formats")
        for export in importlib.import_module(f"smonkit.{name}").__all__
        if export not in used and f"{name}.{export}" not in used
    }
    assert uncalled == UNCALLED_EXPORTS
