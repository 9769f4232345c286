"""Trace parsing, validation, replay semantics, fixtures, random generation."""

import gc
import json
import re
import weakref
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ipcconfine import trace
from ipcconfine.cli import main
from ipcconfine.errors import ParseError, InvalidParams, ReplayError, ValidationError
from ipcconfine.trace import (
    OP_SCHEMA,
    PATTERN_INSTANCES,
    RPCSS_HOST_OBJECTS,
    RPCSS_ISOLATION,
    RPCSS_LONG_LIST,
    Replayer,
    TraceEvent,
    TraceParams,
    first_post_seal_host_touches,
    fixture_rpcss,
    fixture_three_iis,
    generate_random_trace,
    parse_trace,
    replay,
    serialize_trace,
    stress_replay,
    validate_events,
)


def ev(seq, op, **kwargs):
    return TraceEvent(seq=seq, op=op, **kwargs)


def preamble():
    return [
        ev(1, "load_long_list", names=(r"\srv\alpha",)),
        ev(2, "vm_create", ip="10.0.0.2"),
        ev(3, "spawn", vm=1),
    ]


class TestParseSerialize:
    def test_roundtrip_fixture(self):
        events = fixture_rpcss()
        assert parse_trace(serialize_trace(events)) == events

    def test_roundtrip_random(self):
        events = generate_random_trace(3, TraceParams(event_count=50, seal_position=25))
        assert parse_trace(serialize_trace(events)) == events

    def test_blank_lines_skipped(self):
        text = serialize_trace(preamble()).replace("\n", "\n\n", 1)
        assert len(parse_trace(text)) == 3

    def test_bad_json_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_trace('{"seq": 1, "op": "seal"}\n{nope\n')
        assert exc.value.line == 2

    def test_non_object_line(self):
        with pytest.raises(ParseError):
            parse_trace("[1, 2]\n")

    def test_unknown_field(self):
        with pytest.raises(ParseError) as exc:
            parse_trace('{"seq": 1, "op": "seal", "bogus": 1}\n')
        assert "bogus" in str(exc.value)


def outcome(text: str):
    """The events ``parse_trace`` returns, or its error's type, line and text."""
    try:
        return parse_trace(text)
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, getattr(exc, "line", None), str(exc)


def _never_scans(line, idx):
    raise StopIteration(idx)


_SEAL = '{"seq": 1, "op": "seal"}'

# raw lines, each decoded the same whether or not the scanner takes it
_RAW_LINES = {
    "padded": " " + _SEAL + " ",
    "tabbed": "\t" + _SEAL + "\t",
    "nbsp_padded": "\u00a0" + _SEAL,   # str.strip() removes it, JSON does not
    "bom": "\ufeff" + _SEAL,
    "nan_seq": '{"seq": NaN, "op": "seal"}',
    "infinity_port": '{"seq": 1, "op": "bind", "actor": 1, "ip": "0.0.0.0", "port": Infinity}',
    "duplicate_keys": '{"seq": 1, "op": "vm_create", "op": "seal"}',
    "trailing_data": '{"seq":1} x',
    "truncated": '{"seq": 1, "op": "seal"',
    "array": "[]",
    "string": '"str"',
    "nested_too_deep": "[" * 100_000 + "]" * 100_000,
    "integer_too_long": '{"seq": ' + "1" * 5_000 + ', "op": "seal"}',
    "plain": _SEAL,
    "with_expect": '{"seq": 1, "op": "seal", "expect": {"error": null}}',
}


class TestParseEquivalence:
    """The one-scanner-call decode gives what ``json.loads`` gives, events
    and error messages alike."""

    # the rpcss fixture: TestParseSerialize.test_roundtrip_fixture
    @pytest.mark.parametrize("events", [
        pytest.param(fixture_three_iis(), id="three_iis"),
        *(pytest.param(generate_random_trace(seed, TraceParams(
            vm_count=3, process_count=6, event_count=150, seal_position=70,
            pattern_count=patterns)), id=f"random-{seed}-patterns{patterns}")
          for seed in range(3) for patterns in (0, 4)),
    ])
    def test_roundtrip(self, events):
        assert parse_trace(serialize_trace(events)) == events

    @pytest.mark.parametrize("name", sorted(_RAW_LINES))
    def test_raw_line_matches_json_loads_path(self, name, monkeypatch):
        text = "\n".join([_RAW_LINES[name], '{"seq": 2, "op": "seal"}']) + "\n"
        scanned = outcome(text)
        monkeypatch.setattr(trace, "_scan_once", _never_scans)
        assert outcome(text) == scanned

    # multi-line texts: the whole-text decode gives what the line-by-line
    # path through ``json.loads`` gives, events or error
    @pytest.mark.parametrize("text", [
        pytest.param(_SEAL + ", " + _SEAL.replace("1", "2") + "\n" + _SEAL.replace("1", "3"),
                     id="two_values_on_one_line"),
        pytest.param(_SEAL + "]\n" + _SEAL.replace("1", "2"), id="line_ends_in_bracket"),
        pytest.param("[" + _SEAL + "\n" + _SEAL.replace("1", "2") + "]", id="array_across_lines"),
        pytest.param(_SEAL + "\n\n   \n\t\n" + _SEAL.replace("1", "2") + "\n\u00a0\n"
                     + _SEAL.replace("1", "3") + "\n\n", id="blank_lines"),
        pytest.param(_SEAL + "\n" + _SEAL.replace("1", "2") + "\n"
                     + '{"seq": 3, "op": "seal", "bogus": 1}', id="unknown_field_line_3"),
        pytest.param(_SEAL + "\n" + '{"seq": "2", "op": "seal"}\n' + _SEAL.replace("1", "3"),
                     id="bad_seq_line_2"),
        # a value that runs past its line, made up for by a line with two
        # values: the lines join into one event per line, but the first
        # line alone is bad JSON
        pytest.param('{"seq": 1, "op": "load_long_list", "names": [{"a": 1}\n'
                     '{"b": 2}]}\n' + _SEAL.replace("1", "2") + ", " + _SEAL.replace("1", "3"),
                     id="value_across_lines"),
        # the same, made up for by a line with three values
        pytest.param('{"seq": 1, "op": "load_long_list", "names": [{"a": 1}\n'
                     '{"b": 2}]}\n' + _SEAL.replace("1", "2") + ", 0, " + _SEAL.replace("1", "3"),
                     id="value_across_lines_three_values"),
        # a value that runs past its line, with a separator forged as an
        # escape on the next line
        pytest.param('{"seq": 1, "op": "load_long_list", "names": [1\n'
                     '2]}, "\\u2028", ' + _SEAL.replace("1", "2"), id="escaped_separator"),
        pytest.param('{"seq": 1, "op": "load_long_list", "names": ["\\\\a\\u2028"]}\n'
                     + _SEAL.replace("1", "2"), id="escape_in_a_name"),
        pytest.param("", id="empty"),
        pytest.param("\n \n", id="only_blank"),
    ])
    def test_text_matches_json_loads_path(self, text, monkeypatch):
        scanned = outcome(text)
        monkeypatch.setattr(trace, "_scan_once", _never_scans)
        assert outcome(text) == scanned

    def test_whole_text_is_one_scanner_call(self, monkeypatch):
        calls = []

        def counted(doc, idx):
            calls.append(idx)
            return scan(doc, idx)

        scan = trace._scan_once
        monkeypatch.setattr(trace, "_scan_once", counted)
        events = fixture_three_iis()
        assert parse_trace(serialize_trace(events)) == events
        assert len(calls) == 1
        calls.clear()
        parse_trace("\n" + serialize_trace(events).replace("\n", "\n \n"))
        assert len(calls) == 1


class TestEventLayout:
    """Events are slotted records with a fixed field list: no per-event
    ``__dict__``, and none of the frozen class's per-field set-up."""

    def test_no_instance_dict(self):
        event = TraceEvent(seq=1, op="seal")
        assert not hasattr(event, "__dict__")
        assert "__setattr__" not in vars(TraceEvent)

    def test_fields_in_order(self):
        assert [f.name for f in fields(TraceEvent)] == [
            "seq", "op", "actor", "vm", "ip", "port", "name", "names", "category",
            "scope", "target", "subtype", "payload", "class_name", "hook_scope", "expect",
        ]


class TestValidation:
    def test_seq_strictly_increasing(self):
        events = [ev(1, "seal"), ev(1, "seal")]
        with pytest.raises(ValidationError):
            validate_events(events)
        with pytest.raises(ValidationError):
            validate_events([ev(0, "seal")])

    @pytest.mark.parametrize("bad", [
        ev(1, "fork"),
        ev(1, "create", actor=1, name=r"\a\b"),                       # no category
        ev(1, "create", actor=1, name=r"\a\b", category="I_Port", ip="x"),
        ev(1, "open", actor=1, name="a", category="I_Port"),          # bad name
        ev(1, "open", actor=1, name=r"\vm1\a", category="I_Port"),    # reserved
        ev(1, "open", actor=1, name=r"\a\b*", category="I_Port"),     # pattern
        ev(1, "load_long_list", names=(r"\vm2\a",)),                  # reserved
        ev(1, "create", actor=1, name=r"\a\b", category="V_Message"),
        ev(1, "create", actor=1, name=r"\a\b", category="X_Bad"),
        ev(1, "create", actor=1, name=r"\a\b", category="I_Port", scope="Shared"),
        ev(1, "set_hook", actor=1, hook_scope="Everywhere"),
        ev(1, "bind", actor=1, ip="0.0.0.0", port="80"),
        ev(1, "spawn", vm=-1),
        ev(1, "send", actor=0, target=1),
        ev(1, "create", actor=1, name=r"\a\b", category="I_Port",
           expect={"routes": "VmPrivate"}),
        ev(1, "create", actor=1, name=r"\a\b", category="I_Port",
           expect={"route": "Weird"}),
        ev(1, "send", actor=1, target=2, expect={"decision": "Maybe"}),
        ev(1, "create", actor=1, name=r"\a\b", category="I_Port",
           expect="VmPrivate"),
    ])
    def test_rejected_events(self, bad):
        with pytest.raises(ValidationError):
            validate_events([bad])

    def test_pattern_fine_in_long_list(self):
        validate_events([ev(1, "load_long_list", names=(r"\pipe\Ctl*",))])

    def test_optional_fields_accepted(self):
        validate_events([
            ev(1, "create", actor=1, name=r"\a\b", category="I_Port", scope="Global"),
            ev(2, "send", actor=1, target=2, subtype="Clipboard", payload="x"),
        ])


# lines that give a field a value of the wrong type; each must fail validation
_PREAMBLE_LINES = [
    {"seq": 1, "op": "load_long_list", "names": []},
    {"seq": 2, "op": "vm_create", "ip": "10.0.0.2"},
    {"seq": 3, "op": "spawn", "vm": 1},
]
_MALFORMED = {
    "category_int": {"seq": 4, "op": "open", "actor": 1, "name": r"\a\b", "category": 5},
    "payload_int": {"seq": 4, "op": "send", "actor": 1, "target": 1, "payload": 5},
    "port_bool": {"seq": 4, "op": "bind", "actor": 1, "ip": "0.0.0.0", "port": True},
    "class_name_int": {"seq": 4, "op": "register_window", "actor": 1, "class_name": 7},
    "seq_bool": {"seq": True, "op": "seal"},
    "ip_int": {"seq": 4, "op": "vm_create", "ip": 7},
    "names_string": {"seq": 4, "op": "load_long_list", "names": "\\abc"},
}


class TestFieldTypes:
    @pytest.fixture(params=sorted(_MALFORMED))
    def malformed(self, request, tmp_path):
        bad = _MALFORMED[request.param]
        lines = [bad] if bad["seq"] is True else _PREAMBLE_LINES + [bad]
        path = tmp_path / f"{request.param}.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        return path

    def test_validation_rejects(self, malformed):
        with pytest.raises(ValidationError):
            parse_trace(malformed.read_text(encoding="utf-8"))

    def test_replay_exits_2(self, malformed, capsys):
        assert main(["replay", str(malformed)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "[" * 100_000 + "]" * 100_000,                      # nested too deep
        '{"seq": ' + "1" * 5_000 + ', "op": "seal"}',       # integer too long
    ])
    def test_undecodable_json_is_a_parse_error(self, line):
        with pytest.raises(ParseError):
            parse_trace(line + "\n")


class TestSchema:
    def test_covers_every_payload_field(self):
        payload = {f.name for f in fields(TraceEvent)} - {"seq", "op", "expect"}
        covered = set().union(*(spec.fields for spec in OP_SCHEMA.values()))
        assert covered == payload


class TestReadme:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def test_example_trace_replays_clean(self):
        block = re.search(r"```jsonl\n(.*?)```", self.text, re.S).group(1)
        report = replay(parse_trace(block), dual=True)
        assert report.ok and report.assertions_passed == 2

    def test_op_list_matches_schema(self):
        listed = re.search(r"^Ops: (.*?)\.\s", self.text, re.M | re.S).group(1)
        assert re.findall(r"`(\w+)`", listed) == list(OP_SCHEMA)


_SCALAR = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
           | st.text(max_size=6))
_JSON = (_SCALAR | st.lists(_SCALAR, max_size=3)
         | st.dictionaries(st.text(max_size=6), _SCALAR, max_size=3))
# plausible values as well as arbitrary ones, so that events also get past
# the type checks
_VALUE = _JSON | st.sampled_from([
    1, 2, 0, -1, "10.0.0.2", r"\a\b", r"\vm1\a", r"\p\Pipe*", "I_Port", "V_Message",
    "Local", "Global", "SystemWide", [r"\a\b", r"\p\Pipe*"], {"route": "VmPrivate"},
    {"error": "NotFound"},
])
_LINE = st.fixed_dictionaries(
    {"seq": st.integers(min_value=1, max_value=4) | _JSON,
     "op": st.sampled_from(sorted(OP_SCHEMA)) | _JSON},
    optional={name: _VALUE for name in
              [f.name for f in fields(TraceEvent) if f.name not in ("seq", "op")] + ["bogus"]},
)


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(_LINE, min_size=1, max_size=4))
    def test_any_json_line_parses_or_is_rejected(self, lines, tmp_path_factory):
        text = "".join(json.dumps(line) + "\n" for line in lines)
        try:
            events = parse_trace(text)
        except (ParseError, ValidationError):
            pass
        else:
            assert len(events) == len(lines)
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) in (0, 2)
        assert main(["replay", str(path), "--dual-oracle"]) in (0, 1, 2)


class TestReplaySemantics:
    def test_unexpected_outcome_error_is_recorded_not_fatal(self):
        events = preamble() + [
            ev(4, "open", actor=1, name=r"\app\ghost", category="I_Port"),
            ev(5, "create", actor=1, name=r"\app\x", category="I_Port"),
        ]
        replayer = Replayer()
        report = replayer.run(events)
        assert report.events_run == 5
        assert replayer.outcomes[3]["error"] == "NotFound"
        assert report.ok   # no expect clauses anywhere

    def test_expected_outcome_error_passes(self):
        events = preamble() + [
            ev(4, "open", actor=1, name=r"\app\ghost", category="I_Port",
               expect={"error": "NotFound"}),
        ]
        report = replay(events)
        assert report.assertions_passed == 1 and not report.assertions_failed

    def test_expect_without_error_fails_on_error(self):
        events = preamble() + [
            ev(4, "create", actor=1, name=r"\app\x", category="I_Port"),
            ev(5, "create", actor=1, name=r"\app\x", category="I_Port",
               expect={"route": "VmPrivate"}),
        ]
        report = replay(events)
        assert len(report.assertions_failed) == 1
        diffs = report.assertions_failed[0]["diffs"]
        assert {"field": "error", "expected": None, "actual": "AlreadyExists"} in diffs

    def test_expected_error_that_does_not_happen_fails(self):
        events = preamble() + [
            ev(4, "create", actor=1, name=r"\app\x", category="I_Port",
               expect={"error": "AlreadyExists"}),
        ]
        report = replay(events)
        assert report.assertions_failed[0]["diffs"] == [
            {"field": "error", "expected": "AlreadyExists", "actual": None}]

    def test_wrong_route_reports_diff(self):
        events = preamble() + [
            ev(4, "create", actor=1, name=r"\app\x", category="I_Port",
               expect={"route": "VmGlobal", "effective_name": r"\vm1\app\x"}),
        ]
        report = replay(events)
        assert report.assertions_passed == 0
        diffs = report.assertions_failed[0]["diffs"]
        assert diffs == [{"field": "route", "expected": "VmGlobal", "actual": "VmPrivate"}]

    @pytest.mark.parametrize("tail", [
        [ev(4, "close", actor=1, name=r"\a\b")],                 # no handle
        [ev(4, "spawn", vm=7)],                                  # unknown vm
        [ev(4, "send", actor=1, target=9)],                      # unknown pid
        [ev(4, "vm_create", ip="10.0.0.2")],                     # duplicate alias
    ])
    def test_precondition_violations_abort(self, tail):
        with pytest.raises(ReplayError):
            replay(preamble() + tail)

    def test_missing_long_list_aborts(self):
        events = [
            ev(1, "vm_create", ip="10.0.0.2"),
            ev(2, "spawn", vm=1),
            ev(3, "create", actor=1, name=r"\a\b", category="I_Port"),
        ]
        with pytest.raises(ReplayError):
            replay(events)

    def test_expected_fatal_error_is_recorded(self):
        events = preamble() + [
            ev(4, "close", actor=1, name=r"\a\b", expect={"error": "InvalidHandle"}),
            ev(5, "create", actor=1, name=r"\app\x", category="I_Port"),
        ]
        report = replay(events)
        assert report.events_run == 5
        assert report.assertions_passed == 1

    def test_close_pops_most_recent_handle(self):
        events = preamble() + [
            ev(4, "create", actor=1, name=r"\app\x", category="I_Port"),
            ev(5, "open", actor=1, name=r"\app\x", category="I_Port"),
            ev(6, "close", actor=1, name=r"\app\x"),
            ev(7, "close", actor=1, name=r"\app\x"),
        ]
        replayer = Replayer()
        replayer.run(events)
        assert replayer.kernel.objects() == {}
        with pytest.raises(ReplayError):
            replayer.run([ev(8, "close", actor=1, name=r"\app\x")])

    def test_vm_can_plant_a_listed_host_object(self):
        """A listed name is one shared host object, whoever creates it first,
        a VM included: vm2 and then the host reach the object vm1 created."""
        events = [
            ev(1, "load_long_list", names=(r"\srv\h",)),
            ev(2, "vm_create", ip="10.0.0.2"),
            ev(3, "vm_create", ip="10.0.0.3"),
            ev(4, "spawn", vm=1),
            ev(5, "spawn", vm=2),
            ev(6, "spawn", vm=0),
            ev(7, "create", actor=1, name=r"\srv\h", category="I_Port",
               expect={"route": "HostPassthrough", "effective_name": r"\srv\h"}),
            ev(8, "open", actor=2, name=r"\srv\h", category="I_Port",
               expect={"route": "HostPassthrough", "effective_name": r"\srv\h"}),
            ev(9, "create", actor=3, name=r"\srv\h", category="I_Port",
               expect={"route": "HostPassthrough", "error": "AlreadyExists"}),
        ]
        replayer = Replayer(dual=True)
        report = replayer.run(events)
        assert report.ok and report.assertions_passed == 3
        assert report.divergences == []
        assert replayer.outcomes[6]["principle"] == "HostObject"
        record = replayer.kernel.objects()[r"\srv\h"]
        assert replayer.kernel.objects() == {r"\srv\h": record}
        assert record.creator == replayer.registry.process(1)
        # vm1's handle from its create and vm2's from its open
        assert replayer.kernel.live_handle_count(record) == 2

    def test_seal_snapshot_captured(self):
        events = preamble() + [
            ev(4, "open", actor=1, name=r"\srv\alpha", category="I_Port",
               expect={"error": "NotFound"}),
            ev(5, "seal"),
        ]
        replayer = Replayer()
        replayer.run(events)
        assert replayer.seal_snapshot is not None
        assert replayer.seal_snapshot.flag
        assert replayer.seal_snapshot.short_list == (r"\srv\alpha",)


class TestReports:
    def test_report_shape(self):
        report = replay(fixture_rpcss())
        data = json.loads(report.to_json())
        assert set(data) == {"events_run", "assertions_passed", "assertions_failed",
                             "counters", "divergences"}
        assert data["events_run"] == 35

    def test_report_bytes_deterministic(self):
        events = fixture_rpcss()
        assert replay(events).to_json() == replay(events).to_json()
        assert replay(events, dual=True).to_json() == replay(events, dual=True).to_json()

    def test_assertion_totals_cover_expect_clauses(self):
        for events in (fixture_rpcss(), fixture_three_iis(),
                       generate_random_trace(2, TraceParams(event_count=40,
                                                            seal_position=20))):
            report = replay(events)
            expected = sum(1 for e in events if e.expect is not None)
            assert report.assertions_passed + len(report.assertions_failed) == expected


class TestRpcssFixture:
    def test_counters_golden(self):
        report = replay(fixture_rpcss())
        assert report.assertions_passed == 30
        assert report.assertions_failed == []
        # 12 host creates bypass; vm1 makes 4 private + 2 global resolves
        # and opens 12 host objects, each a first-touch long hit
        assert report.counters.to_dict() == {
            "resolves_total": 30,
            "global_table_hits": 2,
            "short_hits": 0,
            "long_hits": 12,
            "long_misses": 4,
            "renames": 6,
            "host_passthroughs": 12,
            "post_seal_long_skips": 0,
            "denials": 0,
            "host_bypass": 12,
            "long_list_reads": 16,
        }

    def test_short_list_is_mru_of_host_opens(self):
        replayer = Replayer()
        replayer.run(fixture_rpcss())
        snap = replayer.engine.snapshot()
        opened = [name for name, _ in RPCSS_HOST_OBJECTS]
        assert snap.short_list == tuple(reversed(opened))
        assert snap.flag

    def test_wildcard_entry_matches_concrete_pipe(self):
        assert r"\Device\NamedPipe\net\NtControlPipe*" in RPCSS_LONG_LIST
        assert r"\Device\NamedPipe\net\NtControlPipe1" not in RPCSS_LONG_LIST
        replayer = Replayer()
        replayer.run(fixture_rpcss())
        assert r"\Device\NamedPipe\net\NtControlPipe1" in replayer.engine.snapshot().short_list

    def test_kernel_namespace_after_run(self):
        replayer = Replayer()
        replayer.run(fixture_rpcss())
        objects = set(replayer.kernel.objects())
        for name, _ in RPCSS_HOST_OBJECTS:
            assert name in objects
        for name, _ in RPCSS_ISOLATION:
            assert "\\vm1" + name in objects
            assert name not in objects

    def test_dual_replay_no_divergence(self):
        report = replay(fixture_rpcss(), dual=True)
        assert report.divergences == []


class TestThreeIisFixture:
    def test_replays_clean(self):
        replayer = Replayer()
        report = replayer.run(fixture_three_iis())
        assert report.ok
        bindings = replayer.kernel.bindings
        assert [b.effective for b in bindings] == [
            ("10.0.0.2", 80), ("10.0.0.3", 80), ("10.0.0.4", 80)]

    def test_cross_site_opens_all_fail(self):
        replayer = Replayer()
        replayer.run(fixture_three_iis())
        misses = [o for o in replayer.outcomes if o.get("error") == "NotFound"]
        assert len(misses) == 6

    @pytest.mark.parametrize("dual", [False, True])
    def test_finished_replayer_is_freed_without_the_cyclic_gc(self, dual):
        """A replayer is in no reference cycle: once its last reference goes,
        it is freed, with its kernel, engines and outcomes, by reference
        counting alone."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            replayer = Replayer(dual=dual)
            replayer.run(fixture_three_iis())
            freed = [weakref.ref(replayer), weakref.ref(replayer.kernel),
                     weakref.ref(replayer.engine)]
            del replayer
            assert [ref() for ref in freed] == [None] * len(freed)
        finally:
            if enabled:
                gc.enable()


class TestRandomTraces:
    def test_same_seed_same_bytes(self):
        params = TraceParams(event_count=60, seal_position=30)
        a = serialize_trace(generate_random_trace(11, params))
        b = serialize_trace(generate_random_trace(11, params))
        assert a == b

    def test_different_seeds_differ(self):
        params = TraceParams(event_count=60, seal_position=30)
        assert (serialize_trace(generate_random_trace(1, params))
                != serialize_trace(generate_random_trace(2, params)))

    def test_structure(self):
        params = TraceParams(vm_count=3, process_count=5, name_pool_size=20,
                             host_fraction=0.5, event_count=40, seal_position=40)
        events = generate_random_trace(0, params)
        # preamble: list + 3 vms + host spawn + 5 spawns + 10 host creates
        assert len(events) == 1 + 3 + 1 + 5 + 10 + 40 + 1
        assert events[-1].op == "seal"
        assert len([e for e in events if e.op == "seal"]) == 1

    def test_params_validated(self):
        with pytest.raises(InvalidParams):
            TraceParams(vm_count=0).check()
        with pytest.raises(InvalidParams):
            TraceParams(host_fraction=1.5).check()
        with pytest.raises(InvalidParams):
            TraceParams(event_count=10, seal_position=11).check()
        with pytest.raises(InvalidParams):
            TraceParams(pattern_count=-1).check()
        with pytest.raises(InvalidParams):
            generate_random_trace(0, TraceParams(host_fraction=1.0, seal_position=0,
                                                 event_count=10), constrained=True)

    def test_constrained_post_seal_host_names_were_touched(self):
        params = TraceParams(event_count=150, seal_position=50, host_fraction=0.5)
        for seed in range(5):
            events = generate_random_trace(seed, params, constrained=True)
            host_pool = set(next(e.names for e in events if e.op == "load_long_list"))
            vm_pids = {i + 2 for i in range(params.process_count)}
            touched, sealed = set(), False
            for event in events:
                if event.op == "seal":
                    sealed = True
                if event.op in ("create", "open") and event.actor in vm_pids:
                    if event.name in host_pool:
                        if sealed:
                            assert event.name in touched
                        else:
                            touched.add(event.name)
                    if event.op == "create" and event.scope == "Global":
                        assert event.name not in host_pool

    def test_detector_on_handcrafted_trace(self):
        events = [
            ev(1, "load_long_list", names=(r"\h\a", r"\h\b", r"\h\c")),
            ev(2, "vm_create", ip="10.0.0.2"),
            ev(3, "spawn", vm=0),
            ev(4, "spawn", vm=1),
            ev(5, "open", actor=2, name=r"\h\a", category="I_Port"),
            ev(6, "seal"),
            ev(7, "open", actor=2, name=r"\h\a", category="I_Port"),
            ev(8, "open", actor=2, name=r"\h\b", category="I_Port"),
            ev(9, "create", actor=2, name=r"\h\c", category="I_Port", scope="Global"),
            ev(10, "open", actor=2, name=r"\h\c", category="I_Port"),
        ]
        assert first_post_seal_host_touches(events) == {r"\h\b"}

    def test_detector_sees_names_listed_by_a_pattern(self):
        events = [
            ev(1, "load_long_list", names=(r"\h\pipe*",)),
            ev(2, "vm_create", ip="10.0.0.2"),
            ev(3, "spawn", vm=0),
            ev(4, "spawn", vm=1),
            ev(5, "create", actor=1, name=r"\h\pipe1", category="I_Port"),
            ev(6, "seal"),
            ev(7, "open", actor=2, name=r"\h\pipe1", category="I_Port"),
            ev(8, "open", actor=2, name=r"\h\pipeX", category="I_Port"),
        ]
        validate_events(events)
        diverging = {d["name"] for d in replay(events, dual=True).divergences}
        assert diverging == {r"\h\pipe1"}
        assert first_post_seal_host_touches(events) == diverging

    @pytest.mark.parametrize("tail, expected", [
        # a VM's global create decides in step (b) and leaves the short list
        # empty, so another VM's first post-seal open is confined
        pytest.param([
            ev(6, "create", actor=1, name=r"\h\a", category="I_Port", scope="Global"),
            ev(7, "seal"),
            ev(8, "open", actor=2, name=r"\h\a", category="I_Port"),
        ], {r"\h\a"}, id="global_create_before_seal"),
        pytest.param([
            ev(6, "seal"),
            ev(7, "create", actor=1, name=r"\h\a", category="I_Port", scope="Global"),
            ev(8, "open", actor=2, name=r"\h\a", category="I_Port"),
        ], {r"\h\a"}, id="global_create_after_seal"),
        # a "Global" component makes a Local-scope create global: step (b)
        pytest.param([
            ev(6, "seal"),
            ev(7, "create", actor=1, name=r"\h\Global\a", category="I_Port"),
        ], set(), id="global_component_after_seal"),
    ])
    def test_detector_matches_dual_replay(self, tail, expected):
        events = [
            ev(1, "load_long_list", names=(r"\h\a", r"\h\Global\a")),
            ev(2, "vm_create", ip="10.0.0.2"),
            ev(3, "vm_create", ip="10.0.0.3"),
            ev(4, "spawn", vm=1),
            ev(5, "spawn", vm=2),
        ] + tail
        validate_events(events)
        diverging = {d["name"] for d in replay(events, dual=True).divergences}
        assert diverging == expected
        assert first_post_seal_host_touches(events) == diverging

    def test_pattern_entries(self):
        params = TraceParams(event_count=40, seal_position=20, pattern_count=3)
        events = generate_random_trace(5, params)
        long_list = events[0].names
        patterns = [n for n in long_list if n.endswith("*")]
        assert patterns == [rf"\srv\pipe-{k:04d}-*" for k in range(3)]
        host_creates = [e.name for e in events if e.op == "create" and e.actor == 1]
        instances = [n for n in host_creates if n not in long_list]
        assert instances == [p[:-1] + str(i) for p in patterns
                             for i in range(1, PATTERN_INSTANCES + 1)]
        report = replay(events, dual=True)
        assert report.counters.conservation_holds()

    def test_stress_replay_invariants(self):
        params = TraceParams(vm_count=2, process_count=6, event_count=300,
                             seal_position=150)
        snap = stress_replay(generate_random_trace(4, params), max_workers=6)
        assert snap.counters.conservation_holds()
        assert snap.flag
        for name in snap.short_list:
            assert name in snap.long_list

    def test_stress_replay_tolerates_a_close_without_handle(self):
        # the open fails (nothing created it), so the close finds no handle:
        # the outcome a racing open that lost leaves behind
        events = preamble() + [
            ev(4, "open", actor=1, name=r"\app\x", category="I_Port"),
            ev(5, "close", actor=1, name=r"\app\x"),
            ev(6, "create", actor=1, name=r"\app\y", category="I_Port"),
        ]
        snap = stress_replay(events, max_workers=2)
        assert snap.counters.resolves_total == 2

    def test_stress_replay_raises_other_replay_errors(self):
        events = preamble() + [ev(4, "bind", actor=1, ip="0.0.0.0", port=0)]
        with pytest.raises(ReplayError, match="InvalidPort"):
            stress_replay(events, max_workers=2)
