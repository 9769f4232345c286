"""Work counts on the resolve path: the flat-cost claim as a deterministic gate.

Each container an engine reads on a resolve is replaced, in these tests
only, by a subclass that counts its lookups, and the name check is wrapped
to count its calls. The engine's own code runs unchanged, so the counts are
those of the hot path, and they do not vary with machine load.
"""

from collections import Counter, OrderedDict

import pytest

import ipcconfine.engine as engine_module
from ipcconfine.engine import ConfinementEngine, ReferenceEngine
from ipcconfine.kernel import SimKernel
from ipcconfine.model import DIGITS, HOST, Intent, PORT, ProcessRef, Scope, VmId, VmRegistry

LONG_LIST = (r"\srv\alpha", r"\srv\beta", r"\srv\gamma", r"\Device\NamedPipe\ctl\Pipe*")

VM1 = ProcessRef(10, VmId(1))
VM2 = ProcessRef(11, VmId(2))
HOSTP = ProcessRef(1, HOST)

LONG_PROBES = ("exact", "prefix")


def counting(base: type, probes: Counter, label: str) -> type:
    """A subclass of ``base`` that counts every lookup under ``label``."""

    def __contains__(self, key):
        probes[label] += 1
        return base.__contains__(self, key)

    attrs = {"__contains__": __contains__}
    if hasattr(base, "get"):
        def __getitem__(self, key):
            probes[label] += 1
            return base.__getitem__(self, key)

        def get(self, key, default=None):
            probes[label] += 1
            return base.get(self, key, default)

        attrs.update(__getitem__=__getitem__, get=get)
    return type(f"Counting{base.__name__}", (base,), attrs)


@pytest.fixture
def probes(monkeypatch) -> Counter:
    """Lookup counts by label, with the engine module's name checks counted
    under ``"check"``."""
    counts = Counter()
    check = engine_module.check_object_name

    def counted_check(*args, **kwargs):
        counts["check"] += 1
        return check(*args, **kwargs)

    monkeypatch.setattr(engine_module, "check_object_name", counted_check)
    return counts


def count_tables(engine, probes: Counter) -> None:
    """Swap the engine's host-object containers for counting copies."""
    if isinstance(engine, ConfinementEngine):
        host = engine._host
        host.exact = counting(set, probes, "exact")(host.exact)
        host.prefixes = counting(frozenset, probes, "prefix")(host.prefixes)
        host.short = counting(OrderedDict, probes, "short")(host.short)
    else:
        # the oracle's one long-list read is a full scan
        scan = engine._scan

        def counted_scan(name):
            probes["scan"] += 1
            return scan(name)

        engine._scan = counted_scan


def resolve(engine, proc, name, intent=Intent.OPEN, scope=Scope.LOCAL):
    return engine.resolve(proc, name, PORT, intent, scope)


def trailing_digits(name: str) -> int:
    return len(name) - len(name.rstrip(DIGITS))


@pytest.mark.parametrize("seal", [False, True])
@pytest.mark.parametrize("engine_class", [ConfinementEngine, ReferenceEngine])
def test_table_hits_make_no_check_and_no_long_list_probe(engine_class, seal, probes):
    engine = engine_class()
    engine.load_long_list(LONG_LIST)
    resolve(engine, VM1, r"\obj\g", Intent.CREATE, Scope.GLOBAL)
    resolve(engine, VM1, r"\srv\alpha")
    if seal:
        engine.seal_host_objects()
    count_tables(engine, probes)
    before = engine.counters.copy()
    probes.clear()

    # (c) global-table hits, a repeated Create included
    resolve(engine, VM1, r"\obj\g")
    resolve(engine, VM1, r"\obj\g", Intent.CREATE, Scope.GLOBAL)
    assert engine.counters.global_table_hits == before.global_table_hits + 2
    if engine_class is ConfinementEngine:
        # (d) short-list hits, a Local Create included
        resolve(engine, VM2, r"\srv\alpha")
        resolve(engine, VM2, r"\srv\alpha", Intent.CREATE)
        assert engine.counters.short_hits == before.short_hits + 2
    assert probes["check"] == 0
    assert sum(probes[label] for label in LONG_PROBES + ("scan",)) == 0


def test_sealed_resolve_makes_no_long_list_probe_and_one_short_probe(probes):
    engine = ConfinementEngine()
    engine.load_long_list(LONG_LIST)
    resolve(engine, VM1, r"\obj\g", Intent.CREATE, Scope.GLOBAL)
    resolve(engine, VM1, r"\srv\alpha")
    resolve(engine, VM1, r"\Device\NamedPipe\ctl\Pipe7")
    engine.seal_host_objects()
    count_tables(engine, probes)
    calls = [
        (VM1, r"\obj\g", Intent.OPEN, Scope.LOCAL),                     # (c)
        (VM2, r"\srv\alpha", Intent.OPEN, Scope.LOCAL),                 # (d)
        (VM2, r"\Device\NamedPipe\ctl\Pipe7", Intent.OPEN, Scope.LOCAL),  # (d), pattern
        (VM2, r"\srv\beta", Intent.OPEN, Scope.LOCAL),                  # (e), listed
        (VM2, r"\Device\NamedPipe\ctl\Pipe8", Intent.OPEN, Scope.LOCAL),  # (e), pattern
        (VM2, r"\app\private-000123", Intent.OPEN, Scope.LOCAL),        # (e), unlisted
        (VM2, r"\srv\alpha", Intent.CREATE, Scope.GLOBAL),              # (b), short-listed
        (VM2, r"\obj\new", Intent.CREATE, Scope.GLOBAL),                # (b)
        (HOSTP, r"\srv\gamma", Intent.OPEN, Scope.LOCAL),               # (a)
    ]
    for call in calls:
        probes.clear()
        resolve(engine, *call)
        assert sum(probes[label] for label in LONG_PROBES) == 0, call
        assert probes["short"] <= 1, call
    assert engine.counters.long_list_reads == 2  # both made before the seal


def test_preseal_lookup_probes_are_flat_in_list_size_and_pattern_count(probes):
    """At most one exact probe plus one prefix probe per trailing digit, and
    the same counts at 1k and 100k exact entries and 10 and 10 000 patterns."""
    names = [
        r"\srv\host-000007",     # exact entry
        r"\pipe\pool00003_42",   # pattern instance
        r"\app\priv-123456",     # unlisted, six trailing digits
        r"\app\private",         # unlisted, no trailing digit
        r"\app\123",             # unlisted, a component of digits only
    ]
    seen = {}
    for size in (1_000, 100_000):
        for pattern_count in (10, 10_000):
            engine = ConfinementEngine()
            engine.load_long_list([rf"\srv\host-{i:06d}" for i in range(size)]
                                  + [rf"\pipe\pool{k:05d}_*" for k in range(pattern_count)])
            count_tables(engine, probes)
            counts = []
            for name in names:
                probes.clear()
                resolve(engine, VM1, name)
                assert probes["exact"] <= 1, name
                assert probes["prefix"] <= trailing_digits(name), name
                assert probes["short"] <= 1, name
                counts.append((probes["exact"], probes["prefix"], probes["short"]))
            seen[size, pattern_count] = counts
            assert engine.counters.long_hits == 2 and engine.counters.long_misses == 3
    assert len(set(map(tuple, seen.values()))) == 1, seen


def test_counting_copies_keep_decisions(probes):
    """The counting containers change no outcome: a warm and sealed engine
    with them decides as one without them."""
    plain, counted = ConfinementEngine(), ConfinementEngine()
    for engine in (plain, counted):
        engine.load_long_list(LONG_LIST)
    count_tables(counted, probes)
    calls = [
        (VM1, r"\srv\alpha", Intent.OPEN, Scope.LOCAL),
        (VM2, r"\obj\g", Intent.CREATE, Scope.GLOBAL),
        (VM2, r"\obj\g", Intent.OPEN, Scope.LOCAL),
        (VM1, r"\srv\alpha", Intent.OPEN, Scope.LOCAL),
        (VM1, r"\srv\beta", Intent.OPEN, Scope.LOCAL),
    ]
    for seal in (False, True):
        if seal:
            plain.seal_host_objects()
            counted.seal_host_objects()
        for call in calls:
            assert resolve(plain, *call) == resolve(counted, *call)
    assert plain.snapshot() == counted.snapshot()


def test_window_lookups_are_flat_in_vm_count():
    """A window lookup compares class names only within the caller's VM:
    the same number of comparisons at 4 and at 1 024 VMs, each VM holding
    20 windows."""
    compared = []

    class ClassName(str):
        def __eq__(self, other):
            compared.append(str(self))
            return str.__eq__(self, other)

        __hash__ = str.__hash__

    seen = {}
    for vm_count in (4, 1_024):
        registry = VmRegistry()
        engine = ConfinementEngine()
        engine.load_long_list([])
        kernel = SimKernel(registry, engine)
        procs = [registry.process_spawn(registry.vm_create(f"10.{i // 250}.{i % 250}.2"))
                 for i in range(vm_count)]
        for proc in procs:
            for k in range(20):
                kernel.register_window(proc, ClassName(f"W{k}"))
        counts = []
        for proc in (procs[0], procs[-1]):
            for class_name in ("W0", "W19", "Missing"):
                compared.clear()
                found = kernel.find_window(proc, ClassName(class_name))
                assert (found is None) == (class_name == "Missing")
                assert found is None or found.owner is proc
                counts.append(len(compared))
            compared.clear()
            windows = kernel.enumerate_windows(proc)
            assert [w.class_name for w in windows] == [f"W{k}" for k in range(20)]
            assert all(w.owner is proc for w in windows)
            counts.append(len(compared))
        seen[vm_count] = counts
    assert seen[4] == seen[1_024], seen
