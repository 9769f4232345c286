"""Resolve pipeline, host-object table mechanics, and VM-id access decisions."""

import json
import threading

import pytest

import ipcconfine.engine as engine_module
from ipcconfine.engine import (
    ConfinementEngine,
    EngineCounters,
    Principle,
    ReferenceEngine,
    ResolveOutcome,
    Route,
)
from ipcconfine.errors import (
    AlreadyLoaded,
    BadCategory,
    InvalidName,
    NotLoaded,
    ValidationError,
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
    rename,
)
from ipcconfine.trace import parse_trace

VM1 = ProcessRef(10, VmId(1))
VM2 = ProcessRef(11, VmId(2))
HOSTP = ProcessRef(1, HOST)
LONG_LIST = (r"\srv\alpha", r"\srv\beta", r"\srv\gamma", r"\Device\NamedPipe\ctl\Pipe*")


def resolve(engine, proc, name, intent=Intent.OPEN, scope=Scope.LOCAL, category=PORT):
    return engine.resolve(proc, name, category, intent, scope)


def open_as(engine, proc, name):
    """A VM caller's open of ``name``: the engine's whole resolve, or the
    oracle's one scan, which is all the oracle decides."""
    if isinstance(engine, ReferenceEngine):
        return engine.resolve(name, proc.vm)
    return resolve(engine, proc, name)


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

    @pytest.mark.parametrize("engine_class", [ConfinementEngine, ReferenceEngine])
    def test_load_counts_and_dedups(self, engine_class):
        engine = engine_class()
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


class TestReservedPrefix:
    """A ``vm<digits>`` first component names a VM's renamed copy; the
    engine takes none from a caller, and neither engine into its long list."""

    # the oracle checks no name after its load
    @pytest.mark.parametrize("proc", [HOSTP, VM1, VM2])
    def test_resolve_rejects(self, proc):
        engine = ConfinementEngine()
        engine.load_long_list([r"\srv\alpha"])
        for name in (r"\vm1\secret", r"\vm01\x", r"\vm0\x"):
            with pytest.raises(InvalidName, match="reserved"):
                resolve(engine, proc, name, Intent.CREATE)
        assert engine.counters.resolves_total == 0

    @pytest.mark.parametrize("engine_class", [ConfinementEngine, ReferenceEngine])
    def test_load_rejects(self, engine_class):
        engine = engine_class()
        with pytest.raises(InvalidName, match="reserved"):
            engine.load_long_list([r"\srv\alpha", r"\vm1\y"])
        with pytest.raises(InvalidName, match="reserved"):
            engine.load_long_list([r"\vm2\pipe*"])

    @pytest.mark.parametrize("engine_class", [ConfinementEngine, ReferenceEngine])
    def test_similar_names_are_ordinary(self, engine_class):
        engine = engine_class()
        engine.load_long_list([r"\vm\a", r"\vmx*"])
        assert open_as(engine, VM1, r"\vm\a").route is Route.HOST_PASSTHROUGH
        assert open_as(engine, VM1, r"\vmx1").route is Route.HOST_PASSTHROUGH
        assert open_as(engine, VM1, r"\a\vm1").effective_name == r"\vm1\a\vm1"


def name_errors(name) -> dict:
    """The InvalidName message, or None, that each entry point that checks
    an original name gives for ``name``."""

    def error(call):
        try:
            call()
        except InvalidName as exc:
            return str(exc)
        except ValidationError as exc:  # the trace builder prefixes the field
            assert exc.reason.startswith("name: "), exc.reason
            return exc.reason.removeprefix("name: ")
        return None

    line = {"seq": 1, "op": "create", "actor": 1, "name": name, "category": "I_Port"}
    engine = ConfinementEngine()
    engine.load_long_list(LONG_LIST)
    errors = {"trace create": error(lambda: parse_trace(json.dumps(line))),
              "rename": error(lambda: rename(name, VmId(1))),
              "ConfinementEngine.resolve": error(lambda: resolve(engine, VM1, name))}
    for engine_class in (ConfinementEngine, ReferenceEngine):
        errors[f"{engine_class.__name__}.load_long_list"] = error(
            lambda: engine_class().load_long_list([r"\srv\pipe*", name]))
    return errors


@pytest.mark.parametrize("name,message", [
    (r"\vm1\a", r"reserved vm-prefix name '\\vm1\\a'"),
    (r"\vm42", r"reserved vm-prefix name '\\vm42'"),
    (r"\vm0\x\y", r"reserved vm-prefix name '\\vm0\\x\\y'"),
    ("\\vm\u0661\\a", None),   # Arabic-Indic digit one: not a tag
    ("\\vm\u00b2\\a", None),   # superscript two
    ("\\vm1\u0661\\a", None),
    (r"\a*\b", r"'*' only allowed as a trailing suffix pattern: '\\a*\\b'"),
    (r"\vm1\a*b", r"'*' only allowed as a trailing suffix pattern: '\\vm1\\a*b'"),
    ("\\pipe\\*", r"'*' only allowed as a trailing suffix pattern: '\\pipe\\*'"),
    (r"\a\\b", r"empty component or trailing separator: '\\a\\\\b'"),
    (r"\vm1\\b", r"empty component or trailing separator: '\\vm1\\\\b'"),
    ("\\a\\", r"empty component or trailing separator: '\\a\\'"),
])
def test_one_name_rule_at_every_entry_point(name, message):
    """The trace builder, the engine's ``resolve``, both engines'
    ``load_long_list`` (where patterns are allowed) and ``rename`` apply one
    rule, with one message: syntax first, then the reserved ``vm<digits>``
    first component."""
    errors = name_errors(name)
    assert errors == dict.fromkeys(errors, message)


# the engine only: the oracle has no stored outcomes and checks no name
# after its load
class TestStoredOutcomes:
    """A VM's hit in a table of stored outcomes returns before the name
    check; every other resolve is checked, errors in the same order."""

    def warm(self):
        engine = ConfinementEngine()
        engine.load_long_list(LONG_LIST + (r"\srv\Global\h",))
        resolve(engine, VM1, r"\obj\g", Intent.CREATE, Scope.GLOBAL)
        for name in (r"\srv\alpha", r"\srv\Global\h"):
            resolve(engine, VM1, name)
        return engine

    @pytest.mark.parametrize("seal", [False, True])
    @pytest.mark.parametrize("name", [123, ["x"], None, b"\\srv\\alpha"])
    def test_non_str_name_is_invalid(self, seal, name):
        engine = self.warm()
        if seal:
            engine.seal_host_objects()
        before = engine.counters.copy()
        for proc in (VM1, VM2, HOSTP):
            with pytest.raises(InvalidName):
                resolve(engine, proc, name)
            with pytest.raises(InvalidName):
                resolve(engine, proc, name, Intent.CREATE, Scope.GLOBAL)
        assert engine.counters == before

    def test_error_order_before_load(self):
        engine = ConfinementEngine()
        for name in ("no-lead-sep", r"\vm1\x", 123, ["x"]):
            with pytest.raises(BadCategory):
                resolve(engine, VM1, name, category=MESSAGE)
            with pytest.raises(InvalidName):
                resolve(engine, VM1, name)
        with pytest.raises(NotLoaded):
            resolve(engine, VM1, r"\a\b")

    def test_global_create_of_short_listed_name_is_vm_global(self):
        engine = self.warm()
        out = resolve(engine, VM2, r"\srv\alpha", Intent.CREATE, Scope.GLOBAL)
        assert out == ResolveOutcome(r"\vm2\srv\alpha", Route.VM_GLOBAL)
        # a literal Global component makes a Local create global too
        out = resolve(engine, VM2, r"\srv\Global\h", Intent.CREATE)
        assert out == ResolveOutcome(r"\vm2\srv\Global\h", Route.VM_GLOBAL)
        assert resolve(engine, VM2, r"\srv\alpha").route is Route.VM_GLOBAL
        assert resolve(engine, VM1, r"\srv\alpha").route is Route.HOST_PASSTHROUGH
        # an Open of the same names still passes through for other VMs
        assert resolve(engine, VM1, r"\srv\Global\h").route is Route.HOST_PASSTHROUGH


def loaded() -> ConfinementEngine:
    engine = ConfinementEngine()
    engine.load_long_list(LONG_LIST)
    return engine


def outcome_or_error(engine, proc, name):
    try:
        return resolve(engine, proc, name)
    except InvalidName as exc:
        return type(exc)


# the engine only: the oracle checks no name after its load
class TestCheckedNames:
    """An engine checks each distinct str name once: ``_checked`` keeps the
    names that passed the check, and only those, up to its bound. Counted
    with the ``probes`` fixture, which counts the engine's name checks."""

    # two or three resolves of one name that reach the check, by the steps
    # named; the engine is sealed first where the steps need it
    REPEATS = {
        "a, a": ([(HOSTP, r"\srv\gamma", Intent.OPEN, Scope.LOCAL)] * 2, False,
                 {"host_bypass": 2}),
        "b, b": ([(VM1, r"\obj\g", Intent.CREATE, Scope.GLOBAL),
                  (VM2, r"\obj\g", Intent.CREATE, Scope.GLOBAL)], False,
                 {"global_table_hits": 2}),
        "e, e": ([(VM1, r"\srv\beta", Intent.OPEN, Scope.LOCAL)] * 2, True,
                 {"post_seal_long_skips": 2}),
        "a, f": ([(HOSTP, r"\srv\alpha", Intent.OPEN, Scope.LOCAL),
                  (VM1, r"\srv\alpha", Intent.OPEN, Scope.LOCAL)], False,
                 {"host_bypass": 1, "long_hits": 1}),
        "f, b": ([(VM1, r"\Device\NamedPipe\ctl\Pipe7", Intent.OPEN, Scope.LOCAL),
                  (VM2, r"\Device\NamedPipe\ctl\Pipe7", Intent.CREATE, Scope.GLOBAL)], False,
                 {"long_hits": 1, "global_table_hits": 1}),
        "g, g, g": ([(VM1, r"\app\x", Intent.OPEN, Scope.LOCAL),
                     (VM1, r"\app\x", Intent.OPEN, Scope.LOCAL),
                     (VM2, r"\app\x", Intent.OPEN, Scope.LOCAL)], False,
                    {"long_misses": 3}),
    }

    @pytest.mark.parametrize("steps", list(REPEATS))
    def test_a_repeated_name_is_checked_once(self, probes, steps):
        calls, seal, moved = self.REPEATS[steps]

        def engine_in_state():
            engine = loaded()
            if seal:
                engine.seal_host_objects()
            return engine

        # a fresh engine per call: each checks the name
        fresh = [resolve(engine_in_state(), *call) for call in calls]
        engine = engine_in_state()
        probes.clear()
        outcomes = [resolve(engine, *call) for call in calls]
        assert probes["check"] == 1
        assert list(engine._checked) == [calls[0][1]]
        assert outcomes == fresh
        counters = vars(engine.counters)
        assert {key: value for key, value in counters.items()
                if value and key != "resolves_total"} == moved

    @pytest.mark.parametrize("proc", [HOSTP, VM1])
    @pytest.mark.parametrize("name", ["no-lead-sep", r"\vm1\x", "\\a\\\\b", "\\"])
    def test_a_name_that_fails_is_checked_every_time(self, probes, proc, name):
        engine = loaded()
        probes.clear()
        for _ in range(2):
            with pytest.raises(InvalidName):
                resolve(engine, proc, name)
        assert probes["check"] == 2
        assert engine._checked == {}
        assert engine.counters.resolves_total == 0

    def test_a_str_subclass_never_borrows_a_check(self, probes):
        engine = loaded()
        resolve(engine, VM1, r"\app\x")

        class Lookalike(str):
            """Equal to, and hashed as, the checked name ``\\app\\x``."""

            def __eq__(self, other):
                return True

            def __hash__(self):
                return hash(r"\app\x")

        bad = Lookalike("no-lead-sep")
        assert bad == r"\app\x" and hash(bad) == hash(r"\app\x") and r"\app\x" in engine._checked
        probes.clear()
        for proc in (VM1, VM2, HOSTP):
            with pytest.raises(InvalidName):
                resolve(engine, proc, bad)
        # a valid one is checked on every call, and never kept
        good = Lookalike(r"\app\y")
        for _ in range(2):
            assert resolve(engine, VM2, good).effective_name == r"\vm2\app\y"
        assert probes["check"] == 5
        assert list(engine._checked) == [r"\app\x"]

    def test_errors_keep_their_order(self, probes):
        engine = ConfinementEngine()
        for _ in range(2):
            with pytest.raises(NotLoaded):
                resolve(engine, VM1, r"\a\b")
        assert r"\a\b" in engine._checked
        with pytest.raises(BadCategory):
            resolve(engine, VM1, r"\a\b", category=MESSAGE)
        engine.load_long_list(LONG_LIST)
        assert resolve(engine, VM1, r"\a\b").effective_name == r"\vm1\a\b"
        assert probes["check"] == 1 + len(LONG_LIST)

    def test_engines_do_not_share_checked_names(self, probes):
        first, second = loaded(), loaded()
        probes.clear()
        for engine in (first, second, first, second):
            resolve(engine, VM1, r"\app\x")
        assert probes["check"] == 2
        assert first._checked == second._checked == {r"\app\x": None}
        assert first._checked is not second._checked

    def test_past_the_bound_outcomes_and_counters_are_a_fresh_engines(self, probes):
        """4 097 distinct names, VM and host callers and failing names
        among them, resolved twice over: the engine keeps at most 4 096, and
        each call's outcome, or error, and the counters are what a fresh
        engine gives for that call alone."""
        limit = engine_module._CHECKED_MAX
        assert limit == 4_096
        names = [rf"\app\obj-{i:05d}" for i in range(limit + 1)]
        calls = []
        for i, name in enumerate(names):
            calls.append((HOSTP if i % 5 == 0 else VM1, name))
            if i % 7 == 0:  # a reserved first component
                calls.append((VM2, rf"\vm3\obj-{i:05d}"))
        engine = loaded()
        got, want, checks = [], [], []
        total = EngineCounters()
        for _ in range(2):
            checks.append(0)
            for proc, name in calls:
                before = probes["check"]
                got.append(outcome_or_error(engine, proc, name))
                checks[-1] += probes["check"] - before
                fresh = loaded()
                want.append(outcome_or_error(fresh, proc, name))
                for key in ("resolves_total", "host_bypass", "long_misses"):
                    setattr(total, key, getattr(total, key) + getattr(fresh.counters, key))
            assert len(engine._checked) <= limit
        assert got == want
        assert got.count(InvalidName) == 2 * len(range(0, len(names), 7))
        assert engine.counters == total
        assert names[-1] in engine._checked
        # cleared when full: the first pass keeps only its last name, so
        # the second checks every call again
        assert checks == [len(calls), len(calls)]

    def test_two_threads_across_the_bound_match_a_sequential_run(self):
        """Two threads resolve overlapping names, more than the bound holds,
        failing names and long-list names among them: each thread's
        outcomes and errors, and the counters, are those of a sequential
        run of the same calls."""
        limit = engine_module._CHECKED_MAX
        pool = [rf"\app\obj-{i:05d}" for i in range(limit + 600)]
        pool[::50] = ["bad-name"] * len(pool[::50])
        pool[3::50] = [rf"\Device\NamedPipe\ctl\Pipe{i}" for i in range(len(pool[3::50]))]
        pool[5::50] = [LONG_LIST[i % 3] for i in range(len(pool[5::50]))]
        workers = [(VM1, pool), (VM2, pool[limit // 2:] + pool[:limit // 2])]

        def run(engine, proc, names, into):
            for name in names:
                into.append(outcome_or_error(engine, proc, name))

        sequential = loaded()
        expected = []
        for proc, names in workers:
            expected.append([])
            run(sequential, proc, names, expected[-1])

        engine = loaded()
        results = [[], []]
        barrier = threading.Barrier(2)

        def worker(index):
            barrier.wait()
            run(engine, *workers[index], results[index])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == expected
        assert engine.counters == sequential.counters
        assert len(engine._checked) <= limit


class TestResolveOutcome:
    def test_is_a_named_tuple(self):
        out = ResolveOutcome(r"\a\b", Route.VM_PRIVATE)
        assert out == (r"\a\b", Route.VM_PRIVATE)
        assert (out.effective_name, out.route) == tuple(out)
        assert out.principle is Principle.ISOLATION
        assert out.to_dict() == {"effective_name": r"\a\b", "route": "VmPrivate",
                                 "principle": "Isolation"}
        assert repr(out) == ("ResolveOutcome(effective_name='\\\\a\\\\b', "
                             "route=<Route.VM_PRIVATE: 'VmPrivate'>)")
        with pytest.raises(AttributeError):
            out.route = Route.VM_GLOBAL
        assert hash(out) == hash(tuple(out))

    def test_route_fixes_the_principle(self):
        """An outcome stores the name and route only; each route member
        carries its own principle, one per route, all three covered."""
        assert ResolveOutcome._fields == ("effective_name", "route")
        pairs = {route: route.principle for route in Route}
        assert pairs == {Route.VM_PRIVATE: Principle.ISOLATION,
                         Route.VM_GLOBAL: Principle.GLOBAL_OBJECT,
                         Route.HOST_PASSTHROUGH: Principle.HOST_OBJECT}
        for route in Route:
            out = ResolveOutcome(r"\a\b", route)
            assert out.principle is route.principle
            assert list(out.to_dict().items()) == [
                ("effective_name", r"\a\b"), ("route", route.value),
                ("principle", route.principle.value)]

    @pytest.mark.parametrize("engine_class", [ConfinementEngine, ReferenceEngine])
    def test_every_step_returns_one(self, engine_class):
        """Each of the engine's steps, and the oracle's (f) and (g)."""
        engine = engine_class()
        engine.load_long_list(LONG_LIST)
        # (f), (d) and (g) for the engine; (f), (f) and (g) for the oracle
        outcomes = [open_as(engine, proc, name) for proc, name in (
            (VM1, r"\srv\alpha"), (VM2, r"\srv\alpha"), (VM1, r"\app\x"))]
        if engine_class is ConfinementEngine:
            outcomes += [resolve(engine, HOSTP, r"\srv\alpha"),
                         resolve(engine, VM1, r"\obj\g", Intent.CREATE, Scope.GLOBAL),
                         resolve(engine, VM1, r"\obj\g")]
            engine.seal_host_objects()
            outcomes.append(resolve(engine, VM1, r"\srv\beta"))
        assert all(type(out) is ResolveOutcome for out in outcomes)


class TestPipeline:
    def test_host_caller_bypasses_everything(self, engine):
        # even a long-listed name: passthrough with no short-list update
        out = resolve(engine, HOSTP, r"\srv\alpha")
        assert out == ResolveOutcome(r"\srv\alpha", Route.HOST_PASSTHROUGH)
        assert engine.snapshot().short_list == ()
        assert engine.counters.host_bypass == 1
        assert engine.counters.host_passthroughs == 0

    def test_create_global_registers_and_renames(self, engine):
        out = resolve(engine, VM1, r"\obj\shared", Intent.CREATE, Scope.GLOBAL,
                      SHARED_MEMORY)
        assert out == ResolveOutcome(r"\vm1\obj\shared", Route.VM_GLOBAL)
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
        assert out == ResolveOutcome(r"\vm2\obj\shared", Route.VM_PRIVATE)

    def test_open_global_name_without_create_is_not_registered(self, engine):
        out = resolve(engine, VM1, r"\x\Global\y", Intent.OPEN)
        assert out.route is Route.VM_PRIVATE
        assert engine.snapshot().global_tables.get(1, frozenset()) == frozenset()

    def test_first_host_touch_long_hit(self, engine):
        out = resolve(engine, VM1, r"\srv\alpha")
        assert out == ResolveOutcome(r"\srv\alpha", Route.HOST_PASSTHROUGH)
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
        assert out == ResolveOutcome(r"\vm1\app\private", Route.VM_PRIVATE)
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
        assert not engine.snapshot().flag
        engine.seal_host_objects()
        assert engine.snapshot().flag
        engine.seal_host_objects()   # idempotent
        assert engine.snapshot().flag

    def test_post_seal_skips_long_list(self, engine):
        resolve(engine, VM1, r"\srv\alpha")
        engine.seal_host_objects()
        reads = engine.counters.long_list_reads
        out = resolve(engine, VM1, r"\srv\beta")   # long-listed but never touched
        assert out == ResolveOutcome(r"\vm1\srv\beta", Route.VM_PRIVATE)
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
    def test_conservation_over_mixed_sequence(self):
        engine = ConfinementEngine()
        engine.load_long_list(LONG_LIST)
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
        assert engine.access_decide(VM1, ProcessRef(99, VmId(1))) is True
        assert engine.counters.denials == 0

    def test_send_cross_vm_denied(self, engine):
        assert engine.access_decide(VM1, VM2) is False
        assert engine.counters.denials == 1

    def test_send_host_vm_border_denied_both_ways(self, engine):
        assert engine.access_decide(VM1, HOSTP) is False
        assert engine.access_decide(HOSTP, VM1) is False
        assert engine.access_decide(HOSTP, ProcessRef(2, HOST)) is True

    def test_dangerous_same_vm_allowed(self, engine):
        assert engine.dangerous_decide(VM1, ProcessRef(99, VmId(1))) is True

    def test_dangerous_cross_vm_denied(self, engine):
        assert engine.dangerous_decide(VM1, VM2) is False
        assert engine.dangerous_decide(VM1, HOSTP) is False
        assert engine.dangerous_decide(HOSTP, VM1) is False
        assert engine.counters.denials == 3

    def test_one_decision_for_messages_and_dangerous_calls(self):
        assert ConfinementEngine.dangerous_decide is ConfinementEngine.access_decide

    def test_verdicts_are_shared(self, engine):
        assert engine.access_decide(VM1, VM2) is engine.dangerous_decide(VM2, VM1) is False
        assert engine.access_decide(VM1, VM1) is engine.dangerous_decide(
            VM1, ProcessRef(99, VmId(1))) is True


class TestCollectCounters:
    def test_detached_snapshot(self, engine):
        from ipcconfine.model import Intent, PORT, ProcessRef, VmId
        snap = engine.counters.copy()
        assert snap == engine.counters and snap is not engine.counters
        engine.resolve(ProcessRef(5, VmId(1)), r"\a\b", PORT, Intent.OPEN)
        assert snap.resolves_total == 0
        assert engine.counters.copy().resolves_total == 1
