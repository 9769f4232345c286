"""Every public export resolves: a stale ``__all__`` entry is what deleting a
public name leaves behind."""

import importlib
import pkgutil

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
