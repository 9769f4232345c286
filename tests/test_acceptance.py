"""Acceptance gate: one test per shipped criterion.

Each test name carries the criterion number; the terminal summary section
(see conftest) prints one PASS/FAIL line per criterion.
"""

import itertools
import time

import pytest

from ipcconfine import (
    ConfinementEngine,
    Delivery,
    Replayer,
    SimKernel,
    TraceParams,
    VmRegistry,
    generate_random_trace,
    parse_trace,
    replay,
    serialize_trace,
)
from ipcconfine.kernel import HookScope
from ipcconfine.model import HOST, PORT, SHARED_MEMORY, Intent, ProcessRef, Scope, VmId, unrename
from ipcconfine.trace import first_post_seal_host_touches, fixture_rpcss, fixture_three_iis

V = "\\vm1"

# route, principle, and effective name for every object the virtualized
# service touches, frozen by hand from the inventory
RPCSS_GOLDEN = {
    r"\RPC Control\epmapper":
        ("VmPrivate", "Isolation", V + r"\RPC Control\epmapper"),
    r"\RPC Control\OLE30778CF8A8F24282B5F73ADC0B14":
        ("VmPrivate", "Isolation", V + r"\RPC Control\OLE30778CF8A8F24282B5F73ADC0B14"),
    r"\Device\NamedPipe\epmapper":
        ("VmPrivate", "Isolation", V + r"\Device\NamedPipe\epmapper"),
    r"\Device\NamedPipe\Winsock2\CatalogChangeListener-30c-0":
        ("VmPrivate", "Isolation", V + r"\Device\NamedPipe\Winsock2\CatalogChangeListener-30c-0"),
    r"\BaseNamedObjects\Global\RotHintTable":
        ("VmGlobal", "GlobalObject", V + r"\BaseNamedObjects\Global\RotHintTable"),
    r"\RPC Control\DNSResolver":
        ("HostPassthrough", "HostObject", r"\RPC Control\DNSResolver"),
    r"\RPC Control\ntsvcs":
        ("HostPassthrough", "HostObject", r"\RPC Control\ntsvcs"),
    r"\Device\NamedPipe\net\NtControlPipe1":
        ("HostPassthrough", "HostObject", r"\Device\NamedPipe\net\NtControlPipe1"),
    r"\Device\NamedPipe\svcsctl":
        ("HostPassthrough", "HostObject", r"\Device\NamedPipe\svcsctl"),
    r"\Device\NamedPipe\ntsvcs":
        ("HostPassthrough", "HostObject", r"\Device\NamedPipe\ntsvcs"),
    r"\Device\NamedPipe\EVENTLOG":
        ("HostPassthrough", "HostObject", r"\Device\NamedPipe\EVENTLOG"),
    r"\BaseNamedObjects\DBWinMutex":
        ("HostPassthrough", "HostObject", r"\BaseNamedObjects\DBWinMutex"),
    r"\BaseNamedObjects\RasPbFile":
        ("HostPassthrough", "HostObject", r"\BaseNamedObjects\RasPbFile"),
    r"\BaseNamedObjects\_R_00000000da_SMem_":
        ("HostPassthrough", "HostObject", r"\BaseNamedObjects\_R_00000000da_SMem_"),
    r"\BaseNamedObjects\DBWIN_BUFFER":
        ("HostPassthrough", "HostObject", r"\BaseNamedObjects\DBWIN_BUFFER"),
    r"\BaseNamedObjects\ScmCreatedEvent":
        ("HostPassthrough", "HostObject", r"\BaseNamedObjects\ScmCreatedEvent"),
    r"\SECURITY\LSA_AUTHENTICATION_INITIALIZED":
        ("HostPassthrough", "HostObject", r"\SECURITY\LSA_AUTHENTICATION_INITIALIZED"),
}


def test_criterion_1_service_inventory_classification():
    """Every object of the virtualized service is routed per its principle."""
    start = time.perf_counter()
    events = fixture_rpcss()
    replayer = Replayer()
    report = replayer.run(events)
    assert report.assertions_failed == []
    observed = {}
    for event, outcome in zip(events, replayer.outcomes):
        if event.op in ("create", "open") and event.actor == 2:
            row = (outcome["route"], outcome["principle"], outcome["effective_name"])
            assert observed.setdefault(event.name, row) == row
    assert observed == RPCSS_GOLDEN
    assert report.counters.host_passthroughs == 12
    assert report.counters.conservation_holds()
    assert time.perf_counter() - start < 1.0


def test_criterion_2_namespace_disjointness():
    """Two VMs resolving one original name get equal effective names only
    when the name passes through to a host object."""
    for seed in range(100):
        params = TraceParams(vm_count=2 + seed % 3, process_count=4,
                             name_pool_size=24, host_fraction=0.25,
                             event_count=60, seal_position=30)
        events = generate_random_trace(seed, params)
        replayer = Replayer()
        replayer.run(events)
        by_context: dict[str, set] = {}
        resolved: dict[str, dict] = {}
        for event, outcome in zip(events, replayer.outcomes):
            if event.op not in ("create", "open") or "route" not in outcome:
                continue
            effective = outcome["effective_name"]
            vm = replayer.registry.process(event.actor).vm
            passthrough = outcome["route"] == "HostPassthrough"
            if passthrough:
                assert effective == event.name
                assert unrename(effective) is None
                by_context.setdefault("host", set()).add(effective)
            else:
                assert unrename(effective) == (vm, event.name)
                by_context.setdefault(str(vm), set()).add(effective)
            resolved.setdefault(event.name, {})[str(vm)] = (effective, passthrough)
        for a, b in itertools.combinations(sorted(by_context), 2):
            assert not by_context[a] & by_context[b], (seed, a, b)
        for name, views in resolved.items():
            for (ea, pa), (eb, pb) in itertools.combinations(views.values(), 2):
                if ea == eb:
                    assert pa and pb, (seed, name)


def test_criterion_3_oracle_equivalence_and_divergence():
    """Constrained workloads match the full-scan oracle; unconstrained ones
    diverge exactly where the engine confines a listed name by step (e)."""
    constrained = TraceParams(event_count=120, seal_position=60)
    for seed in range(100):
        report = replay(generate_random_trace(seed, constrained, constrained=True),
                        dual=True)
        assert report.divergences == [], seed

    qualifying = 0
    for seed in range(40):
        events = generate_random_trace(seed, constrained, constrained=False)
        detected = first_post_seal_host_touches(events)
        if not detected:
            continue
        qualifying += 1
        seal_seq = next(e.seq for e in events if e.op == "seal")
        host_pool = set(next(e.names for e in events if e.op == "load_long_list"))
        report = replay(events, dual=True)
        assert len(report.divergences) >= 1, seed
        names = {d["name"] for d in report.divergences}
        assert detected == names, seed
        for div in report.divergences:
            assert div["seq"] > seal_seq
            assert div["name"] in host_pool
            assert div["engine"]["route"] == "VmPrivate"
            assert div["reference"]["route"] == "HostPassthrough"
        if qualifying >= 10:
            break
    assert qualifying >= 10


def test_criterion_4_short_list_frozen_after_seal():
    """Sealing freezes short-list content and order and stops long-list use."""
    params = TraceParams(event_count=120, seal_position=40)
    runs = [fixture_rpcss()] + [generate_random_trace(seed, params)
                                for seed in range(20)]
    for events in runs:
        replayer = Replayer()
        replayer.run(events)
        at_seal = replayer.seal_snapshot
        final = replayer.engine.snapshot()
        assert at_seal is not None and at_seal.flag and final.flag
        assert final.short_list == at_seal.short_list
        assert final.counters.long_hits == at_seal.counters.long_hits
        assert final.counters.long_misses == at_seal.counters.long_misses
        assert final.counters.long_list_reads == at_seal.counters.long_list_reads


def test_criterion_5_exhaustive_crossborder_denial():
    """Messages and dangerous calls succeed same-VM only, for every ordered
    pair of processes across three VMs and the host."""
    registry = VmRegistry()
    engine = ConfinementEngine()
    engine.load_long_list([])
    kernel = SimKernel(registry, engine)
    for i in range(3):
        registry.vm_create(f"10.0.0.{2 + i}")
    procs = [registry.process_spawn(HOST) for _ in range(2)]
    for vm in (1, 2, 3):
        procs += [registry.process_spawn(VmId(vm)) for _ in range(2)]
    for proc in procs:
        kernel.register_window(proc, f"WndClass-{proc.pid}")

    for sender, receiver in itertools.product(procs, repeat=2):
        same = sender.vm == receiver.vm
        assert (kernel.send_message(sender, receiver) is Delivery.DELIVERED) == same
        assert kernel.create_remote_thread(sender, receiver).allowed == same
        found = kernel.find_window(sender, f"WndClass-{receiver.pid}")
        assert (found is not None) == same
        if same:
            assert found.owner is receiver

    for proc in procs:
        visible = kernel.enumerate_windows(proc)
        assert {w.owner.pid for w in visible} == {
            p.pid for p in procs if p.vm == proc.vm}
        grant = kernel.set_hook(proc, HookScope.SYSTEM_WIDE)
        assert grant.effective_vm == proc.vm and grant.narrowed

    # 8 processes, 16 same-context ordered pairs, 48 denied per surface
    assert engine.counters.denials == 96


def test_criterion_6_three_web_servers_one_port():
    """Three VMs all bind port 80 and build identical namespaces without
    conflicts; nothing leaks across instances."""
    replayer = Replayer()
    report = replayer.run(fixture_three_iis())
    assert report.ok
    bindings = [b for b in replayer.kernel.bindings if b.effective[1] == 80]
    assert len(bindings) == 3
    assert {b.effective[0] for b in bindings} == {"10.0.0.2", "10.0.0.3", "10.0.0.4"}
    assert {b.owner.vm.id for b in bindings} == {1, 2, 3}
    errors = [o.get("error") for o in replayer.outcomes if o.get("error")]
    assert errors == ["NotFound"] * 6
    assert "AddressInUse" not in errors


# the resolve paths criterion 7 times, each named for the pipeline step that
# decides its calls, and the counter that step increments
FLAT_COST_STEPS = {
    "global_hit": "global_table_hits",
    "short_hit": "short_hits",
    "long_hit": "long_hits",
    "rename_miss": "long_misses",
    "post_seal_miss": "post_seal_long_skips",
}
STEP_COUNTERS = ("host_bypass", "global_table_hits", "short_hits", "long_hits",
                 "long_misses", "post_seal_long_skips")
# host objects warmed onto the short list, and VM globals created, before
# the short_hit and global_hit paths cycle over them
SHORT_WARM_COUNT = 16
GLOBAL_POOL = 8
BATCH_SIZE = 300
TIMED_PROC = ProcessRef(pid=1, vm=VmId(1))


def _loaded_engine(long_names):
    engine = ConfinementEngine()
    engine.load_long_list(long_names)
    return engine


def _flat_cost_paths(size):
    """For each path in FLAT_COST_STEPS, in that order: a callable returning
    the engine one batch resolves on, and the batch's names.

    The engines are built and warmed here, outside any timed region.
    ``long_hit`` gets a fresh engine per batch, so every call is a first touch.
    """
    long_names = [rf"\bench\host-{i:06d}" for i in range(size)]
    batch = min(BATCH_SIZE, size)

    globals_engine = _loaded_engine(long_names)
    globals_pool = [rf"\bench\global-{i:04d}" for i in range(GLOBAL_POOL)]
    for name in globals_pool:
        globals_engine.resolve(TIMED_PROC, name, SHARED_MEMORY, Intent.CREATE, Scope.GLOBAL)

    short_engine = _loaded_engine(long_names)
    warm = long_names[:SHORT_WARM_COUNT]
    for name in warm:
        short_engine.resolve(TIMED_PROC, name, PORT, Intent.OPEN)

    # unlisted names, before the seal (no state is mutated) and after it
    misses = [rf"\bench\priv-{i:06d}" for i in range(batch)]
    unsealed = _loaded_engine(long_names)
    sealed = _loaded_engine(long_names)
    sealed.seal_host_objects()

    return {
        "global_hit": (lambda: globals_engine,
                       [globals_pool[i % len(globals_pool)] for i in range(batch)]),
        "short_hit": (lambda: short_engine, [warm[i % len(warm)] for i in range(batch)]),
        "long_hit": (lambda: _loaded_engine(long_names), long_names[:batch]),
        "rename_miss": (lambda: unsealed, misses),
        "post_seal_miss": (lambda: sealed, misses),
    }


def _time_batch(engine, names):
    """Mean ns per call of one batch of opens, each through a wrapper closure."""
    def resolve(name):
        engine.resolve(TIMED_PROC, name, PORT, Intent.OPEN)
    start = time.perf_counter_ns()
    for name in names:
        resolve(name)
    return (time.perf_counter_ns() - start) / len(names)


def test_flat_cost_paths_take_the_step_they_name():
    paths = _flat_cost_paths(1000)
    assert list(paths) == list(FLAT_COST_STEPS)
    for path, (engine_for_batch, names) in paths.items():
        engine = engine_for_batch()
        before = engine.counters.copy()
        _time_batch(engine, names)
        after = engine.counters.copy()
        moved = {key: getattr(after, key) - getattr(before, key) for key in STEP_COUNTERS}
        expected = dict.fromkeys(STEP_COUNTERS, 0)
        expected[FLAT_COST_STEPS[path]] = len(names)
        assert len(names) == BATCH_SIZE and moved == expected, (path, moved)
    assert paths["post_seal_miss"][0]().counters.long_list_reads == 0


def test_criterion_7_resolve_cost_flat_in_long_list_size():
    """Short-hit and post-seal-miss cost stays within 1.5x from a 1k to a
    10k long list, a pre-seal rename miss within 1.5x from 10 to 1 000
    wildcard patterns, and sealing ends all long-list reads."""
    # alternate the sizes batch by batch and keep per-path minimum floors:
    # load spikes and frequency drift only ever add time, a real size
    # dependence never hides. A shared machine also has short quiet phases
    # that take time away; alternating every batch, not every five, lets
    # both sizes meet them. 70 rounds of one batch per path and size.
    rounds = 70
    paths = {"small": _flat_cost_paths(1000), "big": _flat_cost_paths(10000)}
    floors = {label: dict.fromkeys(FLAT_COST_STEPS, float("inf")) for label in paths}
    for _ in range(rounds):
        for label, by_path in paths.items():
            for path, (engine_for_batch, names) in by_path.items():
                engine = engine_for_batch()
                floors[label][path] = min(floors[label][path], _time_batch(engine, names))
    sealed = [by_path["post_seal_miss"][0]() for by_path in paths.values()]
    assert [engine.counters.long_list_reads for engine in sealed] == [0, 0]
    for path in FLAT_COST_STEPS:
        bound = 1.5 if path in ("short_hit", "post_seal_miss") else 3.0
        ratio = floors["big"][path] / floors["small"][path]
        assert ratio <= bound, (path, ratio, floors)

    # the same floors for a pre-seal rename miss, which looks up the wildcard
    # patterns: unlisted names ending in six digits, against 10 and 1 000
    exact = [rf"\bench\host-{i:06d}" for i in range(1000)]
    probe = [rf"\bench\priv-{i:06d}" for i in range(300)]
    proc = ProcessRef(pid=1, vm=VmId(1))
    engines = {}
    for count in (10, 1000):
        engines[count] = ConfinementEngine()
        engines[count].load_long_list(exact + [rf"\bench\pool{k:04d}_*" for k in range(count)])
    pattern_floors = dict.fromkeys(engines, float("inf"))
    for _ in range(rounds):
        for count, engine in engines.items():
            start = time.perf_counter_ns()
            for name in probe:
                engine.resolve(proc, name, PORT, Intent.OPEN)
            per_call = (time.perf_counter_ns() - start) / len(probe)
            pattern_floors[count] = min(pattern_floors[count], per_call)
    ratio = pattern_floors[1000] / pattern_floors[10]
    assert ratio <= 1.5, ("rename_miss by pattern count", ratio, pattern_floors)


def test_criterion_8_replay_reports_byte_identical():
    """Identical traces yield byte-identical replay reports, including under
    the dual-oracle mode, and traces survive serialize/parse unchanged."""
    params = TraceParams(event_count=120, seal_position=60)
    diverging_seed = next(
        seed for seed in range(40)
        if first_post_seal_host_touches(generate_random_trace(seed, params)))
    cases = [
        fixture_rpcss(),
        fixture_three_iis(),
        generate_random_trace(5, params, constrained=True),
        generate_random_trace(diverging_seed, params),
    ]
    for events in cases:
        text = serialize_trace(events)
        assert serialize_trace(parse_trace(text)) == text
        assert replay(events).to_json() == replay(events).to_json()
        dual_a = replay(events, dual=True).to_json()
        dual_b = replay(events, dual=True).to_json()
        assert dual_a == dual_b
