"""Every public export resolves, and every import is used: a stale
``__all__`` entry or import is what deleting a name leaves behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ipcconfine

MODULES = ["ipcconfine"] + [f"ipcconfine.{info.name}"
                            for info in pkgutil.iter_modules(ipcconfine.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
    exec(f"from {module_name} import *", {})


@pytest.mark.parametrize("path", sorted(Path(ipcconfine.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_imports_are_used(path):
    """Each name a module-level import binds, ``__future__`` aside, is read
    in the module or listed in its ``__all__``."""
    module = importlib.import_module(f"ipcconfine.{path.stem}" if path.stem != "__init__"
                                     else "ipcconfine")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            # ``import json.scanner`` binds ``json``
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [name for name in bound
              if name not in read and name not in getattr(module, "__all__", ())]
    assert unused == []
