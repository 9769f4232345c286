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
from ipcconfine.trace import Replayer, TraceEvent, validate_events

LONG_LIST = (r"\srv\alpha", r"\srv\beta", r"\srv\gamma", r"\Device\NamedPipe\ctl\Pipe*")

VM1 = ProcessRef(10, VmId(1))
VM2 = ProcessRef(11, VmId(2))
HOSTP = ProcessRef(1, HOST)

LONG_PROBES = ("exact", "prefix", "digit_stem")


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


def scanning(base: type, probes: Counter, label: str) -> type:
    """``counting(base, ...)`` that also counts, under ``label``, each
    element that iterating the container or its views yields, so a scan
    costs one count per element it reads."""

    def counted_scan(method):
        def scan(self):
            for item in method(self):
                probes[label] += 1
                yield item
        return scan

    return type(f"Scanning{base.__name__}", (counting(base, probes, label),),
                {name: counted_scan(getattr(base, name))
                 for name in ("__iter__", "keys", "values", "items")})


def recording(compared: list) -> type:
    """A ``str`` subclass for window class names that appends itself to
    ``compared`` on each equality comparison made with it."""

    class ClassName(str):
        def __eq__(self, other):
            compared.append(str(self))
            return str.__eq__(self, other)

        __hash__ = str.__hash__

    return ClassName


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
        host.digit_stems = counting(frozenset, probes, "digit_stem")(host.digit_stems)
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


def preseal_probes(engine, probes, names) -> list[tuple]:
    """Probe counts of one pre-seal resolve of each name by ``VM1``, with the
    bounds every lookup keeps: at most one exact, digit-stem and short-list
    probe, and at most one prefix probe per trailing digit."""
    count_tables(engine, probes)
    counts = []
    for name in names:
        probes.clear()
        resolve(engine, VM1, name)
        assert probes["exact"] <= 1, name
        assert probes["digit_stem"] <= 1, name
        assert probes["prefix"] <= trailing_digits(name), name
        assert probes["short"] <= 1, name
        counts.append(tuple(probes[label] for label in LONG_PROBES + ("short",)))
    return counts


def test_preseal_lookup_probes_are_flat_in_list_size_and_pattern_count(probes):
    """With no prefix ending in a digit, at most one exact probe and one
    prefix probe, whatever the number of trailing digits; the same counts
    at 1k and 100k exact entries and 10 and 10 000 patterns."""
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
            counts = preseal_probes(engine, probes, names)
            for name, (_, prefix, *_) in zip(names, counts):
                assert prefix <= 1, name
            seen[size, pattern_count] = counts
            assert engine.counters.long_hits == 2 and engine.counters.long_misses == 3
    assert len(set(map(tuple, seen.values()))) == 1, seen


def test_preseal_lookup_probes_inside_the_digits_only_for_a_digit_ended_prefix(probes):
    """A prefix ending in a digit, ``\\pipe\\x1*``, shares its digit stem with
    names it may not match; their lookups keep one prefix probe per
    trailing digit, and a name of another stem still makes one."""
    engine = ConfinementEngine()
    engine.load_long_list([r"\srv\alpha", r"\pipe\x1*", r"\pipe\y*"])
    names = [r"\pipe\x12", r"\pipe\x1", r"\pipe\x2", r"\pipe\y12", r"\app\z123"]
    counts = preseal_probes(engine, probes, names)
    assert [prefix for _, prefix, *_ in counts] == [2, 1, 1, 1, 1]
    assert [stem for _, _, stem, _ in counts] == [1, 1, 1, 0, 1]
    assert engine.counters.long_hits == 2 and engine.counters.long_misses == 3


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
    ClassName = recording(compared)
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


IIS_SERVICE_OBJECTS = (
    (r"\RPC Control\epmapper", "I_Port"),
    (r"\Device\NamedPipe\iisadmin", "II_PseudoFile:NamedPipe"),
    (r"\BaseNamedObjects\IisWebContent", "III_SharedMemory:Section"),
)


def iis_instances(count: int) -> tuple[list[TraceEvent], list[list[TraceEvent]]]:
    """The three-web-server fixture scaled to ``count`` instances, one VM
    and one process each: the setup events, then each instance's events.

    An instance binds port 80, creates the service objects and a uniquely
    named pipe, registers a window and finds it, sends one message to
    itself and one to the next instance, and sets a system-wide hook.
    """
    setup = [TraceEvent(seq=1, op="load_long_list",
                        names=(r"\srv\alpha", r"\Device\NamedPipe\net\NtControlPipe*"))]
    setup += [TraceEvent(seq=0, op="vm_create", ip=f"10.{i // 250}.{i % 250}.2")
              for i in range(count)]
    setup += [TraceEvent(seq=0, op="spawn", vm=vm) for vm in range(1, count + 1)]
    vm_private = {"route": "VmPrivate"}
    instances = []
    for pid in range(1, count + 1):   # pid == vm number
        events = [TraceEvent(seq=0, op="bind", actor=pid, ip="0.0.0.0", port=80)]
        events += [TraceEvent(seq=0, op="create", actor=pid, name=name, category=category,
                              expect=vm_private)
                   for name, category in IIS_SERVICE_OBJECTS
                   + ((rf"\Device\NamedPipe\site-{pid}", "II_PseudoFile:NamedPipe"),)]
        events += [
            TraceEvent(seq=0, op="register_window", actor=pid, class_name="IisAdmin"),
            TraceEvent(seq=0, op="find_window", actor=pid, class_name="IisAdmin",
                       expect={"decision": "Allow"}),
            TraceEvent(seq=0, op="send", actor=pid, target=pid, expect={"decision": "Allow"}),
            TraceEvent(seq=0, op="send", actor=pid, target=pid % count + 1,
                       expect={"decision": "Deny"}),
            TraceEvent(seq=0, op="set_hook", actor=pid, hook_scope="SystemWide"),
        ]
        instances.append(events)
    trace = setup + [event for events in instances for event in events]
    for seq, event in enumerate(trace, 1):
        event.seq = seq
    validate_events(trace)
    return setup, instances


def count_replayer(replayer: Replayer, probes: Counter) -> None:
    """Swap every container the replayed ops read for a scanning copy, and
    the engine's host-object containers for counting copies."""
    kernel, registry = replayer.kernel, replayer.registry
    containers = [(registry, "_aliases"), (registry, "_by_alias"), (registry, "_processes"),
                  (replayer.engine, "_global_tables")]
    containers += [(kernel, attr) for attr in ("_objects", "_handles", "_inboxes",
                                               "_windows", "_vm_windows", "_bindings")]
    for owner, attr in containers:
        setattr(owner, attr, scanning(dict, probes, attr)(getattr(owner, attr)))
    count_tables(replayer.engine, probes)


def test_instance_work_is_flat_in_vm_count(probes):
    """One web-server instance's events make the same counted work, lookups,
    scanned elements, name checks and class-name comparisons alike, at 4
    and at 1 024 instances, for the first instance as for the last."""
    compared = []
    ClassName = recording(compared)
    seen = {}
    for count in (4, 1_024):
        setup, instances = iis_instances(count)
        for events in instances:
            for event in events:
                if event.class_name is not None:
                    event.class_name = ClassName(event.class_name)
        replayer = Replayer()
        replayer.run(setup)
        count_replayer(replayer, probes)
        for index, events in enumerate(instances):
            probes.clear()
            compared.clear()
            report = replayer.run(events)
            assert report.ok, report.assertions_failed
            if index in (0, count - 1):
                seen[count, index] = probes + Counter(class_name=len(compared))
    first = seen[4, 0]
    assert first["check"] == 4 and first["exact"] == 4 and first["class_name"] == 1
    assert first["_objects"] and first["_windows"] and first["_bindings"]
    assert all(counts == first for counts in seen.values()), seen
