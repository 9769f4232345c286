"""Equivalence between the optimized engine and the full-scan reference.

The reference is the oracle's semantics: the whole pipeline with no skip of
the long list, as an unsealed ``PipelineModel`` states it, and the oracle's
one scan, ``ReferenceEngine.resolve(name, vm)``, for steps (f) and (g).
The engine agrees with it everywhere except on a listed name confined by
step (e): after the seal, a name the long list holds that is neither on the
short list nor in the caller VM's global-object table. Every divergence has
exactly that one shape, the optimized engine renaming (VmPrivate) where the
reference passes through (HostPassthrough). Where a dual replay is
expected to diverge is read from the lockstep replay against the model,
``reference_replay.diverging_names``, never from the engine itself.
"""

import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ipcconfine.engine import ConfinementEngine, ReferenceEngine, ResolveOutcome, Route
from ipcconfine.model import Intent, PORT, ProcessRef, Scope, VmId, unrename
from ipcconfine.trace import (
    Replayer,
    TraceEvent,
    TraceParams,
    fixture_rpcss,
    fixture_three_iis,
    generate_random_trace,
    replay,
    validate_events,
)
from pipeline_model import PipelineModel, listed
from reference_replay import diverging_names, lockstep_replay

VM1 = ProcessRef(10, VmId(1))
VM2 = ProcessRef(11, VmId(2))

HOSTS = (r"\srv\alpha", r"\srv\beta", r"\srv\ctl\Pipe*")


def pair():
    """The engine and the reference, an unsealed model, both loaded with
    ``HOSTS``."""
    engine = ConfinementEngine()
    engine.load_long_list(HOSTS)
    return engine, PipelineModel(HOSTS)


def both(engine, model, proc, name, intent=Intent.OPEN, scope=Scope.LOCAL):
    """The engine's outcome and the model's, as a ``ResolveOutcome``."""
    effective, route, _ = model.resolve(proc.vm.id, name, intent is Intent.CREATE,
                                        scope is Scope.GLOBAL)
    return (engine.resolve(proc, name, PORT, intent, scope),
            ResolveOutcome(effective, Route(route)))


class TestReferenceEngine:
    def test_scan_handles_patterns(self):
        reference = ReferenceEngine()
        reference.load_long_list(HOSTS)
        assert reference.resolve(r"\srv\ctl\Pipe3", VM1.vm) == ResolveOutcome(
            r"\srv\ctl\Pipe3", Route.HOST_PASSTHROUGH)
        assert reference.resolve(r"\srv\ctl\PipeX", VM1.vm) == ResolveOutcome(
            r"\vm1\srv\ctl\PipeX", Route.VM_PRIVATE)

    def test_miss_compares_every_exact_entry(self):
        compared = []

        class Entry(str):
            def __eq__(self, other):
                compared.append(str(self))
                return str.__eq__(self, other)

            __hash__ = str.__hash__

        entries = [Entry(rf"\srv\host-{i}") for i in range(20)]
        reference = ReferenceEngine()
        reference.load_long_list(entries + [r"\srv\ctl\Pipe*"])
        out = reference.resolve(r"\srv\other", VM1.vm)
        assert out.route is Route.VM_PRIVATE
        assert compared == [str(e) for e in entries]


class TestAsciiDigits:
    """Pattern suffixes and ``vm<digits>`` tags take ASCII digits only, in
    the engine, the reference and the oracle's scan."""

    @pytest.mark.parametrize("seal", [False, True])
    def test_unicode_digit_suffix_is_not_a_host_object(self, seal):
        engine, reference = pair()
        oracle = ReferenceEngine()
        oracle.load_long_list(HOSTS)
        if seal:
            engine.seal_host_objects()
        for name in ("\\srv\\ctl\\Pipe\u00b2", "\\srv\\ctl\\Pipe\u0661"):
            a, b = both(engine, reference, VM1, name)
            assert a == b == oracle.resolve(name, VM1.vm)
            assert a.route is Route.VM_PRIVATE and a.effective_name == "\\vm1" + name

    def test_unicode_digit_tag_is_an_ordinary_name(self):
        engine, reference = pair()
        name = "\\vm\u0661\\x"
        a, b = both(engine, reference, VM1, name)
        assert a == b == ReferenceEngine().resolve(name, VM1.vm)
        assert a.route is Route.VM_PRIVATE
        assert unrename(a.effective_name) == (VmId(1), name)
        assert unrename(name) is None


def lookups(long_list):
    """The engine's long-list lookup and the oracle's scan, both loaded with
    ``long_list``."""
    engine, reference = ConfinementEngine(), ReferenceEngine()
    engine.load_long_list(long_list)
    reference.load_long_list(long_list)
    return engine._listed, reference._listed


class TestWildcardLookup:
    """The engine probes its prefix set at a name's digit stem, the name
    without its trailing ASCII digits, and inside those digits only when a
    prefix ending in a digit has that stem; the oracle tries every prefix.
    They agree, on the stems that force the inner probes too: many
    digit-ended prefixes of one stem, a stem that is itself an exact entry
    or a prefix, names equal to a prefix, names with no trailing digit and
    names ending in non-ASCII digits."""

    @settings(max_examples=150, deadline=None)
    @given(
        prefixes=st.lists(st.text(alphabet="ab019", min_size=1, max_size=4), max_size=6),
        exact=st.lists(st.text(alphabet="ab019", min_size=1, max_size=5), max_size=3),
        names=st.lists(
            st.tuples(st.text(alphabet="ab019", min_size=1, max_size=4),
                      st.text(alphabet="0159\u00b2\u0661", max_size=4)),
            min_size=1, max_size=10),
    )
    # a name whose digit stem is a pattern prefix with no digit at its end
    @example(prefixes=["a"], exact=[], names=[("a", "5")])
    def test_engine_lookup_matches_full_scan(self, prefixes, exact, names):
        long_list = [rf"\p\{p}*" for p in prefixes] + [rf"\p\{e}" for e in exact]
        engine, reference = ConfinementEngine(), ReferenceEngine()
        engine.load_long_list(long_list)
        reference.load_long_list(long_list)
        for stem, suffix in names:
            name = rf"\p\{stem}{suffix}"
            assert engine.resolve(VM1, name, PORT, Intent.OPEN) == reference.resolve(name, VM1.vm)

    @settings(max_examples=300, deadline=None)
    @given(
        stem=st.text(alphabet="ab0", min_size=1, max_size=3),
        tails=st.lists(st.text(alphabet="0129", min_size=1, max_size=4),
                       min_size=1, max_size=12),
        stem_exact=st.booleans(),
        stem_pattern=st.booleans(),
        suffixes=st.lists(st.text(alphabet="0129a\u00b2\u0661", max_size=5), max_size=12),
    )
    def test_digit_ended_prefixes_of_one_stem_match_full_scan(
            self, stem, tails, stem_exact, stem_pattern, suffixes):
        base = rf"\p\{stem}"
        long_list = ([base + t + "*" for t in tails] + [base] * stem_exact
                     + [base + "*"] * stem_pattern)
        contains, scan = lookups(long_list)
        # every prefix as a name, the stem itself, and the stem with any tail
        names = [base + t for t in tails] + [base] + [base + s for s in suffixes]
        for name in names:
            assert contains(name) == scan(name), (long_list, name)

    def test_stem_lookup_edges(self):
        long_list = [r"\p\a1*", r"\p\a12*", r"\p\a*", r"\p\b", r"\p\b7*", r"\p\c*"]
        contains, scan = lookups(long_list)
        cases = {
            r"\p\a": False,          # a stem that is a prefix, no digit after it
            r"\p\a1": True,          # a prefix as a name, matched by \p\a*
            r"\p\a123": True,
            r"\p\b": True,           # a stem that is an exact entry
            r"\p\b7": False,         # a prefix as a name, its own pattern unmatched
            r"\p\b70": True,
            r"\p\b8": False,         # the stem of a digit-ended prefix, another digit
            r"\p\cx": False,         # no trailing digit
            "\\p\\c\u00b2": False,    # non-ASCII digits are no digits
            "\\p\\c\u0661": False,
            "\\p\\b7\u0661": False,
            "\\p\\c1\u00b2": False,
        }
        for name, listed in cases.items():
            assert contains(name) is scan(name) is listed, name

    def test_prefix_ending_in_digits(self):
        engine, reference = ConfinementEngine(), ReferenceEngine()
        for e in (engine, reference):
            e.load_long_list([r"\p\a1*", r"\p\b*"])
        for name, listed in ((r"\p\a12", True), (r"\p\a1", False), (r"\p\a2", False),
                             (r"\p\b0", True), (r"\p\b", False), ("\\p\\a1\u00b2", False)):
            a = engine.resolve(VM1, name, PORT, Intent.OPEN)
            assert a == reference.resolve(name, VM1.vm)
            assert (a.route is Route.HOST_PASSTHROUGH) is listed


class TestAgreementBeforeSeal:
    def test_identical_on_mixed_preseal_stream(self):
        engine, reference = pair()
        stream = [
            (VM1, r"\srv\alpha", Intent.OPEN, Scope.LOCAL),
            (VM1, r"\app\x", Intent.CREATE, Scope.LOCAL),
            (VM1, r"\app\g", Intent.CREATE, Scope.GLOBAL),
            (VM2, r"\app\g", Intent.OPEN, Scope.LOCAL),
            (VM1, r"\app\g", Intent.OPEN, Scope.LOCAL),
            (VM2, r"\srv\alpha", Intent.OPEN, Scope.LOCAL),
            (VM2, r"\srv\ctl\Pipe1", Intent.OPEN, Scope.LOCAL),
        ]
        for proc, name, intent, scope in stream:
            a, b = both(engine, reference, proc, name, intent, scope)
            assert a == b

    def test_preseal_touched_name_agrees_after_seal(self):
        engine, reference = pair()
        a, b = both(engine, reference, VM1, r"\srv\alpha")
        assert a == b
        engine.seal_host_objects()
        a, b = both(engine, reference, VM2, r"\srv\alpha")
        assert a == b
        assert a.route is Route.HOST_PASSTHROUGH


class TestConstructedDivergence:
    def test_post_seal_first_touch_diverges(self):
        engine, reference = pair()
        engine.seal_host_objects()
        a, b = both(engine, reference, VM1, r"\srv\alpha")
        assert a.route is Route.VM_PRIVATE
        assert a.effective_name == r"\vm1\srv\alpha"
        assert b.route is Route.HOST_PASSTHROUGH
        assert b.effective_name == r"\srv\alpha"

    def test_preseal_global_create_hides_host_name_from_other_vms(self):
        # vm1 globally creates a host-listed name before the seal: nothing
        # enters the short list, so vm2's first post-seal touch diverges
        engine, reference = pair()
        a, b = both(engine, reference, VM1, r"\srv\alpha", Intent.CREATE, Scope.GLOBAL)
        assert a == b and a.route is Route.VM_GLOBAL
        engine.seal_host_objects()
        a, b = both(engine, reference, VM1, r"\srv\alpha")
        assert a == b   # vm1 still hits its own global table
        a, b = both(engine, reference, VM2, r"\srv\alpha")
        assert a.route is Route.VM_PRIVATE
        assert b.route is Route.HOST_PASSTHROUGH


    def test_failed_open_diverges(self):
        # after the seal vm1 opens a listed name it never touched: the engine
        # renames it into vm1, where nothing exists, while the oracle passes
        # it through
        events = [
            TraceEvent(seq=1, op="load_long_list", names=[r"\srv\alpha"]),
            TraceEvent(seq=2, op="vm_create", ip="10.0.0.2"),
            TraceEvent(seq=3, op="spawn", vm=1),
            TraceEvent(seq=4, op="seal"),
            TraceEvent(seq=5, op="open", actor=1, name=r"\srv\alpha", category="I_Port",
                       expect={"error": "NotFound", "route": "VmPrivate"}),
        ]
        replayer = Replayer(dual=True)
        report = replayer.run(events)
        result = replayer.outcomes[-1]
        assert list(result) == ["seq", "op", "error", "effective_name", "route", "principle"]
        assert result == {"seq": 5, "op": "open", "error": "NotFound",
                          "effective_name": r"\vm1\srv\alpha", "route": "VmPrivate",
                          "principle": "Isolation"}
        assert report.assertions_passed == 1 and not report.assertions_failed
        assert report.divergences == [{
            "seq": 5,
            "name": r"\srv\alpha",
            "engine": {"effective_name": r"\vm1\srv\alpha", "route": "VmPrivate",
                       "principle": "Isolation"},
            "reference": {"effective_name": r"\srv\alpha", "route": "HostPassthrough",
                          "principle": "HostObject"},
        }]
        assert diverging_names(events) == {r"\srv\alpha"}


class TestTraceEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_constrained_traces_never_diverge(self, seed):
        params = TraceParams(event_count=80, seal_position=40)
        events = generate_random_trace(seed, params, constrained=True)
        report = replay(events, dual=True)
        assert report.divergences == []
        assert report.counters.conservation_holds()

    def test_constrained_traces_with_patterns_never_diverge(self):
        params = TraceParams(event_count=120, seal_position=60, pattern_count=4)
        for seed in range(10):
            events = generate_random_trace(seed, params, constrained=True)
            report = replay(events, dual=True)
            assert report.divergences == []
            assert report.counters.long_hits > 0

    def test_unconstrained_divergences_have_the_predicted_shape(self):
        # plain host names, then host names plus wildcard entries and the
        # concrete names that match them, then many global creates
        for params in (TraceParams(event_count=120, seal_position=60),
                       TraceParams(event_count=120, seal_position=60, pattern_count=3),
                       TraceParams(event_count=120, seal_position=60, global_fraction=0.5,
                                   vm_count=3, process_count=6)):
            seen = 0
            detected_by_pattern = set()
            for seed in range(15):
                events = generate_random_trace(seed, params, constrained=False)
                seal_seq = next(e.seq for e in events if e.op == "seal")
                long_list = next(e.names for e in events if e.op == "load_long_list")
                # every host object the trace has: the host process's creates
                host_pool = {e.name for e in events if e.op == "create" and e.actor == 1}
                report = replay(events, dual=True)
                seen += bool(report.divergences)
                for div in report.divergences:
                    assert div["seq"] > seal_seq
                    assert div["name"] in host_pool
                    assert div["engine"]["route"] == "VmPrivate"
                    assert div["reference"]["route"] == "HostPassthrough"
                detected = diverging_names(events)
                assert detected == {d["name"] for d in report.divergences}
                detected_by_pattern |= detected - set(long_list)
            assert seen >= 5   # most seeds at these parameters diverge somewhere
            # names listed only by a pattern are predicted too
            assert bool(detected_by_pattern) == (params.pattern_count > 0)


class TestLockstepEquivalence:
    """A dual replay compares the oracle only with a VM caller's outcomes
    that are not ``VmGlobal``, with one scan per distinct (name, VM); its
    report is byte-identical to that of an unsealed model run in lockstep
    on every create and open (``reference_replay``)."""

    @pytest.mark.parametrize("params", [
        TraceParams(event_count=120),
        TraceParams(event_count=120, pattern_count=3),
        TraceParams(event_count=120, global_fraction=0.5, vm_count=3, process_count=6),
    ], ids=["plain", "patterns", "global_half"])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20),
           seal_position=st.integers(min_value=0, max_value=120))
    def test_unconstrained_traces(self, params, seed, seal_position):
        events = generate_random_trace(seed, replace(params, seal_position=seal_position),
                                       constrained=False)
        assert replay(events, dual=True).to_json() == lockstep_replay(events).to_json()

    @pytest.mark.parametrize("fixture", [fixture_rpcss, fixture_three_iis])
    def test_fixtures(self, fixture):
        events = fixture()
        assert replay(events, dual=True).to_json() == lockstep_replay(events).to_json()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_literal_global_component(self, seed):
        # the generator names no object with a literal Global component, so
        # every third private name is moved under one: a Local-scope create
        # of it is then global by step (b)'s component rule, which the
        # oracle is never asked about
        params = TraceParams(event_count=150, seal_position=70, vm_count=3, process_count=6)
        remap = {rf"\app\obj-{i:04d}": rf"\app\Global\obj-{i:04d}"
                 for i in range(0, params.name_pool_size, 3)}
        events = [replace(e, name=remap[e.name]) if e.name in remap else e
                  for e in generate_random_trace(seed, params)]
        validate_events(events)
        assert any(e.op == "create" and e.scope == "Local" and e.name in remap.values()
                   for e in events)
        assert replay(events, dual=True).to_json() == lockstep_replay(events).to_json()

    def test_refused_second_load_between_repeated_opens(self):
        # each oracle answer is kept per (name, VM) and compared again: two
        # VMs open the same names before and after a refused second load of
        # another list, which must reach neither the engine nor the oracle
        names = (r"\srv\alpha", r"\srv\beta", r"\srv\ctl\Pipe7", r"\app\b")

        def opens(pids):
            return [("open", dict(actor=pid, name=name, category="I_Port"))
                    for name in names for pid in pids]

        steps = [
            ("load_long_list", dict(names=list(HOSTS))),
            ("vm_create", dict(ip="10.0.0.2")),
            ("vm_create", dict(ip="10.0.0.3")),
            ("spawn", dict(vm=1)),
            ("spawn", dict(vm=2)),
            ("create", dict(actor=1, name=r"\app\b", category="I_Port")),
            ("create", dict(actor=2, name=r"\app\b", category="I_Port")),
            ("create", dict(actor=1, name=r"\srv\alpha", category="I_Port")),
            ("seal", {}),
            *opens((1, 2)),
            ("load_long_list", dict(names=[r"\app\b", r"\srv\gamma"],
                                    expect={"error": "AlreadyLoaded"})),
            *opens((2, 1)),
            # asked for the first time: the oracle still holds the first list
            ("open", dict(actor=1, name=r"\srv\gamma", category="I_Port")),
            ("open", dict(actor=2, name=r"\srv\gamma", category="I_Port")),
        ]
        events = [TraceEvent(seq=seq, op=op, **kwargs)
                  for seq, (op, kwargs) in enumerate(steps, 1)]
        replayer = Replayer(dual=True)
        report = replayer.run(events)
        assert report.to_json() == lockstep_replay(events).to_json()
        assert report.assertions_passed == 1 and not report.assertions_failed
        # the oracle kept its first list: every open of a listed name that
        # the seal left off the short list diverges, in both rounds, and
        # the refused list's names do not pass through
        assert [d["name"] for d in report.divergences] == 2 * [
            r"\srv\beta", r"\srv\beta", r"\srv\ctl\Pipe7", r"\srv\ctl\Pipe7"]
        assert {out["route"] for e, out in zip(events, replayer.outcomes)
                if e.name in (r"\app\b", r"\srv\gamma")} == {"VmPrivate"}

    def test_reference_sees_divergences(self):
        # the comparison is not vacuous: the reference reports divergences,
        # each of step (e)'s one shape, a listed name that the engine renames
        # after the seal and the unsealed model passes through
        params = TraceParams(event_count=120, seal_position=60, pattern_count=3)
        events = generate_random_trace(3, params)
        seal_seq = next(e.seq for e in events if e.op == "seal")
        long_list = next(e.names for e in events if e.op == "load_long_list")
        divergences = lockstep_replay(events).divergences
        assert divergences
        for div in divergences:
            name = div["name"]
            assert div["seq"] > seal_seq
            assert listed(long_list, name)
            assert div["engine"]["route"] == "VmPrivate"
            assert div["engine"]["principle"] == "Isolation"
            assert unrename(div["engine"]["effective_name"])[1] == name
            assert div["reference"] == {"effective_name": name, "route": "HostPassthrough",
                                        "principle": "HostObject"}


def moved_seal(events, k: int) -> list[TraceEvent]:
    """``events`` with its one seal moved to follow the first ``k`` other
    events, renumbered from 1."""
    others = [e for e in events if e.op != "seal"]
    moved = others[:k] + [TraceEvent(0, "seal")] + others[k:]
    return [replace(e, seq=seq) for seq, e in enumerate(moved, 1)]


def seal_price(events) -> tuple[int, int]:
    """A dual replay's ``post_seal_long_skips`` and divergence count."""
    report = replay(events, dual=True)
    return report.counters.post_seal_long_skips, len(report.divergences)


class TestSealCurve:
    """The seal's price as an exact curve. Routes do not depend on kernel
    state, and the short list only grows before the seal, so a later seal
    freezes a superset of it: moving the one seal later never adds a
    divergence, and each divergence is where the lockstep model predicts."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20),
           params=st.builds(TraceParams,
                            vm_count=st.integers(1, 3), process_count=st.integers(1, 4),
                            name_pool_size=st.integers(1, 12),
                            host_fraction=st.sampled_from([0.3, 0.5, 1.0]),
                            global_fraction=st.sampled_from([0.0, 0.1, 0.5]),
                            event_count=st.integers(0, 50), seal_position=st.just(0),
                            pattern_count=st.integers(0, 2)))
    def test_generated_traces(self, seed, params):
        counts = []
        previous = None
        for k in range(0, params.event_count + 1, 5):
            events = generate_random_trace(seed, replace(params, seal_position=k))
            assert len(events) <= 80
            # the same events each time, the seal moved
            rest = [(e.op, e.actor, e.name, e.scope) for e in events if e.op != "seal"]
            assert previous in (None, rest)
            previous = rest
            report = replay(events, dual=True)
            assert {d["name"] for d in report.divergences} == diverging_names(events)
            counts.append(len(report.divergences))
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("fixture", [fixture_rpcss, fixture_three_iis])
    def test_fixtures_at_every_position(self, fixture):
        counts = []
        others = sum(1 for e in fixture() if e.op != "seal")
        # from 1: a seal before the long list is loaded aborts the replay
        for k in range(1, others + 1):
            events = moved_seal(fixture(), k)
            report = replay(events, dual=True)
            assert {d["name"] for d in report.divergences} == diverging_names(events)
            counts.append(len(report.divergences))
        assert counts == sorted(counts, reverse=True)

    def test_rpcss_curve_is_the_readme_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = [tuple(map(int, row)) for row in
                 re.findall(r"^\| (\d+) \| (\d+) \| (\d+) \|$", readme, re.M)]
        # every 5th position, and the fixture's own: after its last event
        assert [k for k, _, _ in table] == [5, 10, 15, 20, 25, 30, 34]
        assert moved_seal(fixture_rpcss(), 34) == fixture_rpcss()
        assert [(k, *seal_price(moved_seal(fixture_rpcss(), k))) for k, _, _ in table] == table
