"""Every public export resolves, every import is used and every assigned
attribute is read: a stale ``__all__`` entry, import or attribute is what
deleting a name leaves behind."""

import ast
import functools
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ipcconfine

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
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


@functools.cache
def attribute_reads() -> frozenset[str]:
    """Each attribute name that some ``.py`` file under ``src/``, ``tests/``
    or ``perfbench/`` loads as ``<expr>.<name>``."""
    paths = [path for folder in (ROOT / "src", ROOT / "tests", PERFBENCH) if folder.is_dir()
             for path in folder.rglob("*.py")]
    return frozenset(node.attr for path in paths
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("path", sorted(Path(ipcconfine.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_assigned_attributes_are_read(path):
    """Each name a method assigns as ``self.<name>``, plainly or with an
    annotation, is read as an attribute somewhere: state that is written
    and never read is what deleting its readers leaves behind."""
    assigned = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign):
            targets = [sub for target in node.targets for sub in ast.walk(target)]
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        assigned.update(target.attr for target in targets
                        if isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name) and target.value.id == "self")
    assert sorted(assigned - attribute_reads()) == []


def run_with_perfbench(code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``perfbench/`` first on its
    path and return its stdout."""
    done = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1])\n"
                           + code, str(PERFBENCH)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


needs_perfbench = pytest.mark.skipif(not (PERFBENCH / "run.py").is_file(),
                                     reason="no perfbench/ in this tree")


@needs_perfbench
def test_benchmark_tracer_finds_every_entry():
    """A traced benchmark run wraps public entries by name (for example
    ``ReferenceEngine.resolve``, ``SimKernel.create_object``,
    ``engine.rename``, ``dangerous_decide`` and ``validate_events``);
    installing its tracer against this tree's package finds every one."""
    run_with_perfbench("import run, spans; run.install(spans.Tracer(), run.import_package())")


@functools.cache
def traced_dual_replay() -> dict:
    """Span calls and the work they should time, from one dual replay of a
    300-event trace with patterns, traced by the benchmark's tracer: the
    oracle's scans, and the trace's create and open events."""
    out = run_with_perfbench("""
import collections, json, run, spans
pkg = run.import_package()
oracle, trace = pkg.engine.ReferenceEngine, pkg.trace
scans = []
scan = oracle._listed
oracle._listed = lambda self, name: scans.append(name) or scan(self, name)
tracer = spans.Tracer()
run.install(tracer, pkg)
events = trace.generate_random_trace(3, trace.TraceParams(event_count=300, pattern_count=2))
trace.Replayer(dual=True).run(events)
calls = tracer.analyse().calls
ops = collections.Counter(event.op for event in events)
print(json.dumps({
    "oracle.resolve": [calls("oracle.resolve"), len(scans)],
    "kernel.create_object": [calls("kernel.create_object"), ops["create"]],
    "kernel.open_object": [calls("kernel.open_object"), ops["open"]],
}))
""")
    return json.loads(out)


@needs_perfbench
def test_traced_dual_replay_times_every_oracle_scan():
    """The benchmark's ``oracle.resolve`` span records one call per scan
    that the oracle makes in a dual replay, so the span cannot read 0."""
    spans, scans = traced_dual_replay()["oracle.resolve"]
    assert spans == scans > 0


@needs_perfbench
@pytest.mark.parametrize("span", ["kernel.create_object", "kernel.open_object"])
def test_traced_dual_replay_times_every_create_and_open(span):
    """The benchmark's ``kernel.create_object`` and ``kernel.open_object``
    spans record one call per create and per open event of a dual replay,
    so neither span can read 0."""
    spans, events = traced_dual_replay()[span]
    assert spans == events > 0
