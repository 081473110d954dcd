"""Every name a module of the package exports exists in that module, so
deleting a function cannot leave a stale ``__all__`` entry behind; every
name a module imports is used in it; and ``autodiff`` stands on numpy
alone."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sdparse

# __main__ runs the command line when imported
MODULES = sorted(info.name for info in pkgutil.iter_modules(sdparse.__path__)
                 if info.name != "__main__")
SOURCES = sorted(Path(sdparse.__file__).parent.glob("*.py"))


def test_the_module_list_covers_the_package():
    assert {"potentials", "mf", "lbp", "pipeline", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"sdparse.{name}")
    assert [export for export in getattr(module, "__all__", ())
            if not hasattr(module, export)] == []


def _imports(tree):
    """(name the import binds, line) of every import but ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


# __init__ imports to re-export
@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "__init__.py"],
                         ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    # an attribute chain such as np.zeros starts at the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [(name, line) for name, line in _imports(tree) if name not in used] == []


def test_autodiff_imports_no_module_of_the_package():
    tree = ast.parse((Path(sdparse.__file__).parent / "autodiff.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.startswith((".", "sdparse"))] == []
