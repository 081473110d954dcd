"""Every name a module of the package exports exists in that module, so
deleting a function cannot leave a stale ``__all__`` entry behind."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import sdparse

# __main__ runs the command line when imported
MODULES = sorted(info.name for info in pkgutil.iter_modules(sdparse.__path__)
                 if info.name != "__main__")


def test_the_module_list_covers_the_package():
    assert {"potentials", "mf", "lbp", "pipeline", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"sdparse.{name}")
    assert [export for export in getattr(module, "__all__", ())
            if not hasattr(module, export)] == []
