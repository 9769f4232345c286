"""Resolve pipeline, host-object table mechanics, and VM-id access decisions."""

from dataclasses import FrozenInstanceError

import pytest

from ipcconfine.engine import (
    ConfinementEngine,
    DangerousKind,
    Decision,
    EngineCounters,
    Principle,
    ReferenceEngine,
    ResolveOutcome,
    Route,
    SYSTEM_WIDE,
)
from ipcconfine.errors import (
    AlreadyLoaded,
    BadCategory,
    InvalidName,
    NotLoaded,
)
from ipcconfine.model import (
    HOST,
    Intent,
    MESSAGE,
    PORT,
    ProcessRef,
    Scope,
    SHARED_MEMORY,
    VmId,
)

VM1 = ProcessRef(10, VmId(1))
VM2 = ProcessRef(11, VmId(2))
HOSTP = ProcessRef(1, HOST)
LONG_LIST = (r"\srv\alpha", r"\srv\beta", r"\srv\gamma", r"\Device\NamedPipe\ctl\Pipe*")


def resolve(engine, proc, name, intent=Intent.OPEN, scope=Scope.LOCAL, category=PORT):
    return engine.resolve(proc, name, category, intent, scope)


class TestLifecycle:
    def test_resolve_requires_loaded_list(self):
        engine = ConfinementEngine()
        with pytest.raises(NotLoaded):
            resolve(engine, VM1, r"\a\b")
        with pytest.raises(NotLoaded):
            engine.seal_host_objects()

    def test_load_once(self, engine):
        with pytest.raises(AlreadyLoaded):
            engine.load_long_list([r"\x\y"])

    def test_load_counts_and_dedups(self):
        engine = ConfinementEngine()
        assert engine.load_long_list([r"\a\b", r"\a\b", r"\p\q*", r"\p\q*"]) == 2

    def test_load_validates_names(self):
        engine = ConfinementEngine()
        with pytest.raises(InvalidName):
            engine.load_long_list(["not-a-name"])

    def test_resolve_rejects_bad_input(self, engine):
        with pytest.raises(BadCategory):
            resolve(engine, VM1, r"\a\b", category=MESSAGE)
        with pytest.raises(InvalidName):
            resolve(engine, VM1, "no-lead-sep")


@pytest.mark.parametrize("engine_class", [ConfinementEngine, ReferenceEngine])
class TestReservedPrefix:
    """A ``vm<digits>`` first component names a VM's renamed copy; neither
    engine takes one from a caller or into its long list."""

    @pytest.mark.parametrize("proc", [HOSTP, VM1, VM2])
    def test_resolve_rejects(self, engine_class, proc):
        engine = engine_class()
        engine.load_long_list([r"\srv\alpha"])
        for name in (r"\vm1\secret", r"\vm01\x", r"\vm0\x"):
            with pytest.raises(InvalidName, match="reserved"):
                resolve(engine, proc, name, Intent.CREATE)
        assert engine.counters.resolves_total == 0

    def test_load_rejects(self, engine_class):
        engine = engine_class()
        with pytest.raises(InvalidName, match="reserved"):
            engine.load_long_list([r"\srv\alpha", r"\vm1\y"])
        with pytest.raises(InvalidName, match="reserved"):
            engine.load_long_list([r"\vm2\pipe*"])

    def test_similar_names_are_ordinary(self, engine_class):
        engine = engine_class()
        engine.load_long_list([r"\vm\a", r"\vmx*"])
        assert resolve(engine, VM1, r"\vm\a").route is Route.HOST_PASSTHROUGH
        assert resolve(engine, VM1, r"\vmx1").route is Route.HOST_PASSTHROUGH
        assert resolve(engine, VM1, r"\a\vm1").effective_name == r"\vm1\a\vm1"


@pytest.mark.parametrize("engine_class", [ConfinementEngine, ReferenceEngine])
class TestStoredOutcomes:
    """A VM's hit in a table of stored outcomes returns before the name
    check; every other resolve is checked, errors in the same order."""

    def warm(self, engine_class):
        engine = engine_class()
        engine.load_long_list(LONG_LIST + (r"\srv\Global\h",))
        resolve(engine, VM1, r"\obj\g", Intent.CREATE, Scope.GLOBAL)
        for name in (r"\srv\alpha", r"\srv\Global\h"):
            resolve(engine, VM1, name)
        return engine

    @pytest.mark.parametrize("seal", [False, True])
    @pytest.mark.parametrize("name", [123, ["x"], None, b"\\srv\\alpha"])
    def test_non_str_name_is_invalid(self, engine_class, seal, name):
        engine = self.warm(engine_class)
        if seal:
            engine.seal_host_objects()
        before = engine.counters.copy()
        for proc in (VM1, VM2, HOSTP):
            with pytest.raises(InvalidName):
                resolve(engine, proc, name)
            with pytest.raises(InvalidName):
                resolve(engine, proc, name, Intent.CREATE, Scope.GLOBAL)
        assert engine.counters == before

    def test_error_order_before_load(self, engine_class):
        engine = engine_class()
        for name in ("no-lead-sep", r"\vm1\x", 123, ["x"]):
            with pytest.raises(BadCategory):
                resolve(engine, VM1, name, category=MESSAGE)
            with pytest.raises(InvalidName):
                resolve(engine, VM1, name)
        with pytest.raises(NotLoaded):
            resolve(engine, VM1, r"\a\b")

    def test_global_create_of_short_listed_name_is_vm_global(self, engine_class):
        engine = self.warm(engine_class)
        out = resolve(engine, VM2, r"\srv\alpha", Intent.CREATE, Scope.GLOBAL)
        assert out == ResolveOutcome(r"\vm2\srv\alpha", Route.VM_GLOBAL, Principle.GLOBAL_OBJECT)
        # a literal Global component makes a Local create global too
        out = resolve(engine, VM2, r"\srv\Global\h", Intent.CREATE)
        assert out == ResolveOutcome(r"\vm2\srv\Global\h", Route.VM_GLOBAL,
                                     Principle.GLOBAL_OBJECT)
        assert resolve(engine, VM2, r"\srv\alpha").route is Route.VM_GLOBAL
        assert resolve(engine, VM1, r"\srv\alpha").route is Route.HOST_PASSTHROUGH
        # an Open of the same names still passes through for other VMs
        assert resolve(engine, VM1, r"\srv\Global\h").route is Route.HOST_PASSTHROUGH


class TestResolveOutcome:
    def test_is_a_named_tuple(self):
        out = ResolveOutcome(r"\a\b", Route.VM_PRIVATE, Principle.ISOLATION)
        assert out == (r"\a\b", Route.VM_PRIVATE, Principle.ISOLATION)
        assert (out.effective_name, out.route, out.principle) == tuple(out)
        assert out.to_dict() == {"effective_name": r"\a\b", "route": "VmPrivate",
                                 "principle": "Isolation"}
        assert repr(out) == ("ResolveOutcome(effective_name='\\\\a\\\\b', "
                             "route=<Route.VM_PRIVATE: 'VmPrivate'>, "
                             "principle=<Principle.ISOLATION: 'Isolation'>)")
        with pytest.raises(AttributeError):
            out.route = Route.VM_GLOBAL
        assert hash(out) == hash(tuple(out))

    @pytest.mark.parametrize("engine_class", [ConfinementEngine, ReferenceEngine])
    def test_every_step_returns_one(self, engine_class):
        engine = engine_class()
        engine.load_long_list(LONG_LIST)
        calls = [
            (HOSTP, r"\srv\alpha", Intent.OPEN, Scope.LOCAL),
            (VM1, r"\obj\g", Intent.CREATE, Scope.GLOBAL),
            (VM1, r"\obj\g", Intent.OPEN, Scope.LOCAL),
            (VM1, r"\srv\alpha", Intent.OPEN, Scope.LOCAL),
            (VM2, r"\srv\alpha", Intent.OPEN, Scope.LOCAL),
            (VM1, r"\app\x", Intent.OPEN, Scope.LOCAL),
        ]
        for proc, name, intent, scope in calls:
            assert type(resolve(engine, proc, name, intent, scope)) is ResolveOutcome
        engine.seal_host_objects()
        assert type(resolve(engine, VM1, r"\srv\beta")) is ResolveOutcome


class TestPipeline:
    def test_host_caller_bypasses_everything(self, engine):
        # even a long-listed name: passthrough with no short-list update
        out = resolve(engine, HOSTP, r"\srv\alpha")
        assert out == ResolveOutcome(r"\srv\alpha", Route.HOST_PASSTHROUGH, Principle.HOST_OBJECT)
        assert engine.snapshot().short_list == ()
        assert engine.counters.host_bypass == 1
        assert engine.counters.host_passthroughs == 0

    def test_create_global_registers_and_renames(self, engine):
        out = resolve(engine, VM1, r"\obj\shared", Intent.CREATE, Scope.GLOBAL,
                      SHARED_MEMORY)
        assert out == ResolveOutcome(r"\vm1\obj\shared", Route.VM_GLOBAL,
                                     Principle.GLOBAL_OBJECT)
        assert engine.snapshot().global_tables == {1: frozenset({r"\obj\shared"})}

    def test_literal_global_component_counts(self, engine):
        out = resolve(engine, VM1, r"\BaseNamedObjects\Global\X", Intent.CREATE,
                      Scope.LOCAL, SHARED_MEMORY)
        assert out.route is Route.VM_GLOBAL

    def test_global_table_hit_on_open(self, engine):
        resolve(engine, VM1, r"\obj\shared", Intent.CREATE, Scope.GLOBAL)
        out = resolve(engine, VM1, r"\obj\shared")
        assert out.effective_name == r"\vm1\obj\shared"
        assert out.route is Route.VM_GLOBAL
        assert engine.counters.global_table_hits == 2

    def test_global_tables_are_per_vm(self, engine):
        resolve(engine, VM1, r"\obj\shared", Intent.CREATE, Scope.GLOBAL)
        out = resolve(engine, VM2, r"\obj\shared")
        # vm2 never created it globally: plain rename, not a table hit
        assert out == ResolveOutcome(r"\vm2\obj\shared", Route.VM_PRIVATE,
                                     Principle.ISOLATION)

    def test_open_global_name_without_create_is_not_registered(self, engine):
        out = resolve(engine, VM1, r"\x\Global\y", Intent.OPEN)
        assert out.route is Route.VM_PRIVATE
        assert engine.snapshot().global_tables.get(1, frozenset()) == frozenset()

    def test_first_host_touch_long_hit(self, engine):
        out = resolve(engine, VM1, r"\srv\alpha")
        assert out == ResolveOutcome(r"\srv\alpha", Route.HOST_PASSTHROUGH,
                                     Principle.HOST_OBJECT)
        assert engine.counters.long_hits == 1
        assert engine.snapshot().short_list == (r"\srv\alpha",)

    def test_second_host_touch_short_hit(self, engine):
        resolve(engine, VM1, r"\srv\alpha")
        reads = engine.counters.long_list_reads
        out = resolve(engine, VM2, r"\srv\alpha")
        assert out.route is Route.HOST_PASSTHROUGH
        assert engine.counters.short_hits == 1
        # short hits never consult the long list
        assert engine.counters.long_list_reads == reads

    def test_table_hits_return_the_stored_outcome(self, engine):
        created = resolve(engine, VM1, r"\obj\g", Intent.CREATE, Scope.GLOBAL)
        assert resolve(engine, VM1, r"\obj\g") is created
        assert resolve(engine, VM1, r"\obj\g", Intent.CREATE, Scope.GLOBAL) is created
        first = resolve(engine, VM1, r"\srv\alpha")
        assert resolve(engine, VM2, r"\srv\alpha") is first
        engine.seal_host_objects()
        assert resolve(engine, VM2, r"\srv\alpha") is first

    def test_miss_renames(self, engine):
        out = resolve(engine, VM1, r"\app\private")
        assert out == ResolveOutcome(r"\vm1\app\private", Route.VM_PRIVATE,
                                     Principle.ISOLATION)
        assert engine.counters.long_misses == 1
        assert engine.snapshot().short_list == ()

    def test_mru_order(self, engine):
        for name in (r"\srv\alpha", r"\srv\beta", r"\srv\gamma"):
            resolve(engine, VM1, name)
        assert engine.snapshot().short_list == (r"\srv\gamma", r"\srv\beta", r"\srv\alpha")
        resolve(engine, VM1, r"\srv\alpha")
        assert engine.snapshot().short_list == (r"\srv\alpha", r"\srv\gamma", r"\srv\beta")


class TestWildcard:
    @pytest.mark.parametrize("name,hits", [
        (r"\Device\NamedPipe\ctl\Pipe1", True),
        (r"\Device\NamedPipe\ctl\Pipe42", True),
        (r"\Device\NamedPipe\ctl\Pipe", False),
        (r"\Device\NamedPipe\ctl\PipeX", False),
        (r"\Device\NamedPipe\ctl\Pip1", False),
    ])
    def test_pattern_matches_decimal_suffix(self, engine, name, hits):
        out = resolve(engine, VM1, name)
        expected = Route.HOST_PASSTHROUGH if hits else Route.VM_PRIVATE
        assert out.route is expected

    def test_matched_concrete_name_enters_short_list(self, engine):
        resolve(engine, VM1, r"\Device\NamedPipe\ctl\Pipe7")
        snap = engine.snapshot()
        assert snap.short_list == (r"\Device\NamedPipe\ctl\Pipe7",)
        assert snap.long_patterns == (r"\Device\NamedPipe\ctl\Pipe*",)
        # a sibling instance is its own long-list consultation
        resolve(engine, VM1, r"\Device\NamedPipe\ctl\Pipe8")
        assert engine.counters.long_hits == 2


class TestSeal:
    def test_seal_sets_one_way_flag(self, engine):
        assert not engine.sealed
        engine.seal_host_objects()
        assert engine.sealed
        engine.seal_host_objects()   # idempotent
        assert engine.sealed

    def test_post_seal_skips_long_list(self, engine):
        resolve(engine, VM1, r"\srv\alpha")
        engine.seal_host_objects()
        reads = engine.counters.long_list_reads
        out = resolve(engine, VM1, r"\srv\beta")   # long-listed but never touched
        assert out == ResolveOutcome(r"\vm1\srv\beta", Route.VM_PRIVATE,
                                     Principle.ISOLATION)
        assert engine.counters.post_seal_long_skips == 1
        assert engine.counters.long_list_reads == reads

    def test_post_seal_short_list_still_serves(self, engine):
        resolve(engine, VM1, r"\srv\alpha")
        engine.seal_host_objects()
        out = resolve(engine, VM2, r"\srv\alpha")
        assert out.route is Route.HOST_PASSTHROUGH
        assert engine.counters.short_hits == 1

    def test_post_seal_short_list_frozen(self, engine):
        resolve(engine, VM1, r"\srv\alpha")
        resolve(engine, VM1, r"\srv\beta")
        engine.seal_host_objects()
        before = engine.snapshot().short_list
        assert before == (r"\srv\beta", r"\srv\alpha")
        # hits no longer move entries; misses no longer insert
        resolve(engine, VM1, r"\srv\alpha")
        resolve(engine, VM1, r"\srv\gamma")
        assert engine.snapshot().short_list == before

    def test_post_seal_globals_still_work(self, engine):
        engine.seal_host_objects()
        out = resolve(engine, VM1, r"\obj\g", Intent.CREATE, Scope.GLOBAL)
        assert out.route is Route.VM_GLOBAL
        assert resolve(engine, VM1, r"\obj\g").route is Route.VM_GLOBAL


class TestCounters:
    def test_conservation_over_mixed_sequence(self, engine):
        resolve(engine, HOSTP, r"\srv\alpha")
        resolve(engine, VM1, r"\obj\g", Intent.CREATE, Scope.GLOBAL)
        resolve(engine, VM1, r"\obj\g")
        resolve(engine, VM1, r"\srv\alpha")
        resolve(engine, VM2, r"\srv\alpha")
        resolve(engine, VM2, r"\nowhere\x")
        engine.seal_host_objects()
        resolve(engine, VM2, r"\srv\beta")
        resolve(engine, VM1, r"\srv\alpha")
        c = engine.counters
        assert c.conservation_holds()
        assert c.to_dict() == {
            "resolves_total": 8,
            "global_table_hits": 2,
            "short_hits": 2,
            "long_hits": 1,
            "long_misses": 1,
            "renames": 4,
            "host_passthroughs": 3,
            "post_seal_long_skips": 1,
            "denials": 0,
            "host_bypass": 1,
            "long_list_reads": 2,
        }

    def test_renames_and_passthroughs_are_derived(self):
        c = EngineCounters(global_table_hits=2, short_hits=3, long_hits=5,
                           long_misses=7, post_seal_long_skips=11)
        assert c.renames == 2 + 7 + 11
        assert c.host_passthroughs == 3 + 5
        assert c.long_list_reads == 5 + 7
        assert list(c.to_dict()) == [
            "resolves_total", "global_table_hits", "short_hits", "long_hits",
            "long_misses", "renames", "host_passthroughs", "post_seal_long_skips",
            "denials", "host_bypass", "long_list_reads"]

    def test_copy_is_detached(self, engine):
        snap = engine.counters.copy()
        resolve(engine, VM1, r"\a\b")
        assert snap.resolves_total == 0
        assert engine.counters.resolves_total == 1


class TestSnapshot:
    def test_snapshot_is_immutable_view(self, engine):
        resolve(engine, VM1, r"\srv\alpha")
        resolve(engine, VM1, r"\obj\g", Intent.CREATE, Scope.GLOBAL)
        snap = engine.snapshot()
        resolve(engine, VM1, r"\srv\beta")
        resolve(engine, VM2, r"\obj\h", Intent.CREATE, Scope.GLOBAL)
        assert snap.short_list == (r"\srv\alpha",)
        assert snap.global_tables == {1: frozenset({r"\obj\g"})}
        assert snap.counters.resolves_total == 2

    def test_snapshot_serializes(self, engine):
        resolve(engine, VM1, r"\srv\alpha")
        d = engine.snapshot().to_dict()
        assert d["short_list"] == [r"\srv\alpha"]
        assert d["flag"] is False
        assert r"\srv\alpha" in d["long_list"]


class TestAccessDecisions:
    def test_send_same_vm_allowed(self, engine):
        verdict = engine.access_decide(VM1, ProcessRef(99, VmId(1)), MESSAGE)
        assert verdict.allowed and verdict.reason == "SameVm"

    def test_send_cross_vm_denied(self, engine):
        verdict = engine.access_decide(VM1, VM2, MESSAGE)
        assert verdict.decision is Decision.DENY
        assert verdict.reason == "CrossVm"
        assert engine.counters.denials == 1

    def test_send_host_vm_border_denied_both_ways(self, engine):
        assert not engine.access_decide(VM1, HOSTP, MESSAGE).allowed
        assert not engine.access_decide(HOSTP, VM1, MESSAGE).allowed
        assert engine.access_decide(HOSTP, ProcessRef(2, HOST), MESSAGE).allowed

    def test_access_decide_rejects_named_categories(self, engine):
        with pytest.raises(BadCategory):
            engine.access_decide(VM1, VM2, PORT)

    def test_dangerous_same_vm_allowed(self, engine):
        verdict = engine.dangerous_decide(VM1, VmId(1), DangerousKind.CREATE_REMOTE_THREAD)
        assert verdict.allowed

    @pytest.mark.parametrize("kind", list(DangerousKind))
    def test_dangerous_cross_vm_denied(self, engine, kind):
        assert not engine.dangerous_decide(VM1, VmId(2), kind).allowed
        assert not engine.dangerous_decide(VM1, HOST, kind).allowed
        assert not engine.dangerous_decide(HOSTP, VmId(1), kind).allowed

    def test_verdicts_are_shared(self, engine):
        assert engine.access_decide(VM1, VM2, MESSAGE) is engine.dangerous_decide(
            VM2, VmId(1), DangerousKind.CREATE_REMOTE_THREAD)
        assert engine.access_decide(VM1, VM1, MESSAGE) is engine.dangerous_decide(
            VM1, VmId(1), DangerousKind.SET_WINDOW_HOOK)
        hook = DangerousKind.SET_WINDOW_HOOK
        assert engine.dangerous_decide(VM1, SYSTEM_WIDE, hook) is engine.dangerous_decide(
            VM2, SYSTEM_WIDE, hook)
        with pytest.raises(FrozenInstanceError):
            engine.access_decide(VM1, VM1, MESSAGE).reason = "CrossVm"

    def test_system_wide_hook_narrowed_not_denied(self, engine):
        verdict = engine.dangerous_decide(VM1, SYSTEM_WIDE, DangerousKind.SET_WINDOW_HOOK)
        assert verdict.allowed and verdict.reason == "ScopedToVm"
        assert engine.counters.denials == 0


class TestCollectCounters:
    def test_detached_snapshot(self, engine):
        from ipcconfine.model import Intent, PORT, ProcessRef, VmId
        snap = engine.counters.copy()
        assert snap == engine.counters and snap is not engine.counters
        engine.resolve(ProcessRef(5, VmId(1)), r"\a\b", PORT, Intent.OPEN)
        assert snap.resolves_total == 0
        assert engine.counters.copy().resolves_total == 1
