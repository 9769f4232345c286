"""Every public export resolves, and every import is used: a stale
``__all__`` entry or import is what deleting a name leaves behind."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ipcconfine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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


@pytest.mark.skipif(not (PERFBENCH / "run.py").is_file(), reason="no perfbench/ in this tree")
def test_benchmark_tracer_finds_every_entry():
    """A traced benchmark run wraps public entries by name (for example
    ``ReferenceEngine.resolve``, ``SimKernel.create_object``,
    ``engine.rename``, ``dangerous_decide`` and ``validate_events``);
    installing its tracer against this tree's package finds every one."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run, spans; "
            "run.install(spans.Tracer(), run.import_package())")
    done = subprocess.run([sys.executable, "-c", code, str(PERFBENCH)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
