"""Trace parsing, validation, replay semantics, fixtures, random generation."""

import concurrent.futures
import gc
import json
import re
import typing
import weakref
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ipcconfine import trace
from ipcconfine.cli import main
from ipcconfine.engine import EngineSnapshot
from ipcconfine.errors import (
    InvalidHandle,
    InvalidParams,
    ParseError,
    ReplayError,
    ValidationError,
)
from ipcconfine.trace import (
    OP_SCHEMA,
    PATTERN_INSTANCES,
    RPCSS_HOST_OBJECTS,
    RPCSS_ISOLATION,
    RPCSS_LONG_LIST,
    Replayer,
    TraceEvent,
    TraceParams,
    fixture_rpcss,
    fixture_three_iis,
    generate_random_trace,
    parse_trace,
    replay,
    serialize_trace,
    validate_events,
)
from reference_replay import diverging_names
from reference_trace import event_from_line, reference_parse, reference_validate


def ev(seq, op, **kwargs):
    return TraceEvent(seq=seq, op=op, **kwargs)


def preamble():
    return [
        ev(1, "load_long_list", names=[r"\srv\alpha"]),
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


def outcome(text: str, parse=parse_trace):
    """The events ``parse`` returns, or its error's type, line and text."""
    try:
        return parse(text)
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
    """The per-line scan gives what ``json.loads`` gives, events and error
    messages alike: ``_never_scans`` makes the scanner refuse every line,
    so each goes through the ``json.loads`` of a refused line."""

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

    # each raw line first, and after a valid line, where the per-line scan
    # takes one line before it meets the raw one (renumbered to seq 2)
    @pytest.mark.parametrize("name, after_a_line", [
        *(pytest.param(name, False, id=name) for name in sorted(_RAW_LINES)),
        *(pytest.param(name, True, id=f"{name}-after_a_line") for name in sorted(_RAW_LINES)),
    ])
    def test_raw_line_matches_json_loads_path(self, name, after_a_line, monkeypatch):
        if after_a_line:
            lines = [_SEAL, _RAW_LINES[name].replace('"seq": 1,', '"seq": 2,')]
        else:
            lines = [_RAW_LINES[name], '{"seq": 2, "op": "seal"}']
        text = "\n".join(lines) + "\n"
        scanned = outcome(text)
        monkeypatch.setattr(trace, "_scan_once", _never_scans)
        assert outcome(text) == scanned

    # multi-line texts: the per-line scan gives what ``json.loads`` of each
    # line gives, events or error
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
        # a value that runs past its line, with an escaped U+2028 in a
        # value on the next line
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

    def test_one_scanner_call_per_line(self, decoded):
        """Each non-blank line of a trace is scanned once, and a blank line
        not at all; only a line the scanner refuses, such as a padded one,
        is handed to ``json.loads``, once."""
        scans, loads = decoded
        events = fixture_three_iis()
        text = serialize_trace(events)
        lines = text.splitlines()
        assert parse_trace(text) == events
        assert scans == lines and loads == []
        scans.clear()
        assert parse_trace("\n" + text.replace("\n", "\n \n")) == events
        assert scans == lines and loads == []
        scans.clear()
        padded = lines[:5] + [" " + lines[5] + "\t"] + lines[6:]
        assert parse_trace("\n".join(padded)) == events
        assert scans == padded and loads == [padded[5]]

    def test_a_refused_text_is_not_decoded_again(self, decoded):
        """A bad last line is decoded once more, alone; a ValidationError
        on the first line decodes no line again."""
        scans, loads = decoded
        text = serialize_trace(fixture_three_iis())
        with pytest.raises(ParseError, match=re.escape("line 35: bad JSON")):
            parse_trace(text + "{nope\n")
        assert loads == ["{nope"] and len(scans) == 35
        scans.clear()
        loads.clear()
        bad_first = text.replace('"names": []', '"names": [1]', 1)
        with pytest.raises(ValidationError, match=re.escape("seq 1: names: ")):
            parse_trace(bad_first)
        assert loads == [] and len(scans) == 34


@pytest.fixture
def decoded(monkeypatch):
    """The lines ``parse_trace`` hands to the scanner and to ``json.loads``,
    each in a list, in call order."""
    scans, loads = [], []
    scan, json_loads = trace._scan_once, json.loads

    def counted_scan(line, idx):
        scans.append(line)
        return scan(line, idx)

    def counted_loads(line):
        loads.append(line)
        return json_loads(line)

    monkeypatch.setattr(trace, "_scan_once", counted_scan)
    monkeypatch.setattr(json, "loads", counted_loads)
    return scans, loads


# a valid value for every payload field
_VALID = {
    "actor": 1, "target": 2, "vm": 1, "ip": "10.0.0.2", "port": 80, "name": r"\a\b",
    "names": [r"\a\b", r"\p\Pipe*"], "category": "II_PseudoFile:NamedPipe",
    "scope": "Global", "subtype": "Clipboard", "payload": "x", "class_name": "Shell_TrayWnd",
    "hook_scope": "OwnVm",
}
# values that break some field's type or rule, or fit another field's
_INVALID = [
    None, True, 0, -1, 1.0, "1", "", "a", r"\vm1\a", r"\a\b*", "\\", [5], [r"\vm2\a"], "\\abc",
    "V_Message", "X_Bad", "Shared", "Everywhere", {"a": 1}, *_VALID.values(),
]
# expect clauses, valid and not
_EXPECTS = [
    {"route": "VmPrivate"}, {"error": "NotFound", "decision": None}, {"effective_name": r"\a"},
    {}, None, {"route": "Weird"}, {"routes": "VmPrivate"}, {"decision": 1}, "VmPrivate",
]
_PAYLOAD_FIELDS = sorted(_VALID)


def _full_line(op: str) -> dict:
    """A valid line of ``op`` with every field the op takes."""
    return {"seq": 1, "op": op, **{f: _VALID[f] for f in OP_SCHEMA[op].fields},
            "expect": {"error": None}}


# raw lines that are not a JSON object
_NOT_OBJECTS = ["[1, 2]", '"str"', "{nope", "7"]


@st.composite
def _plausible_texts(draw):
    """Traces of per-op lines, mostly valid: a line may drop a required
    field, give a field a value of the wrong type or rule, set an optional
    field to null, carry a field of another op, a bad ``expect``, an unknown
    op, or a ``seq`` out of order or not an int; now and then a line is not
    a JSON object at all."""
    rare = st.sampled_from([False] * 40 + [True])
    lines = []
    seq = 0
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(sorted(OP_SCHEMA)))
        seq += draw(st.sampled_from([1] * 40 + [2, 0, -1]))
        line = {"seq": seq, "op": op}
        spec = OP_SCHEMA[op]
        for name, _ in spec.required:
            if draw(rare):
                continue
            line[name] = draw(st.sampled_from(_INVALID)) if draw(rare) else _VALID[name]
        for name, _ in spec.optional:
            choice = draw(st.sampled_from(["valid"] * 3 + ["absent", "null", "invalid"]))
            if choice != "absent":
                line[name] = draw({"valid": st.just(_VALID[name]), "null": st.none(),
                                   "invalid": st.sampled_from(_INVALID)}[choice])
        if draw(rare):
            line[draw(st.sampled_from(_PAYLOAD_FIELDS + ["bogus"]))] = draw(
                st.sampled_from([None] + _INVALID))
        if draw(st.sampled_from([False] * 4 + [True])):
            line["expect"] = draw(st.sampled_from(_EXPECTS))
        if draw(rare):
            line[draw(st.sampled_from(["seq", "op"]))] = draw(
                st.sampled_from([None, True, "1", 2.0, "fork", ["seal"]]))
        if draw(rare):
            del line[draw(st.sampled_from(["seq", "op"]))]
        lines.append(json.dumps(line))
        if draw(rare):
            lines.append(draw(st.sampled_from(_NOT_OBJECTS)))
    return "".join(line + "\n" for line in lines)


# any value a Python-built event may hold in a field: valid ones, and ones
# of another type or against a rule, ``names`` as a tuple and bools for ints
# among them
_ANY_VALUE = [None, *_INVALID, tuple(_VALID["names"]), (r"\a\b", 5), (), False, 2.5]


@st.composite
def _python_events(draw):
    """Events built in Python with arbitrary field values: mostly each op's
    own fields, valid, but any field may hold any value, the op may be
    unknown or not a string, ``seq`` out of order or not an int, and
    ``expect`` not a dict."""
    rare = st.sampled_from([False] * 12 + [True])
    events = []
    seq = 0
    for _ in range(draw(st.integers(1, 5))):
        seq += draw(st.sampled_from([1] * 20 + [2, 0, -1]))
        op = draw(st.sampled_from(sorted(OP_SCHEMA) * 4 + ["fork", "Seal", None, 3, True]))
        spec = OP_SCHEMA.get(op) if type(op) is str else None
        fields_ = {}
        for name in sorted(spec.fields) if spec else ():
            choice = draw(st.sampled_from(["valid"] * 7 + ["absent", "any"]))
            if choice == "any":
                fields_[name] = draw(st.sampled_from(_ANY_VALUE))
            elif choice != "absent":
                fields_[name] = _VALID[name]
        while draw(rare):
            fields_[draw(st.sampled_from(_PAYLOAD_FIELDS))] = draw(st.sampled_from(_ANY_VALUE))
        if draw(rare):
            fields_["expect"] = draw(st.sampled_from(_EXPECTS + [[1], 5]))
        event_seq = draw(st.sampled_from(["1", 1.0, True, None])) if draw(rare) else seq
        events.append(TraceEvent(event_seq, op, **fields_))
    return events


def validated(check, events):
    """None if ``check`` accepts the events, else its error's type, seq and text."""
    try:
        check(events)
    except ValidationError as exc:
        return type(exc).__name__, exc.seq, str(exc)
    return None


class TestBuilders:
    """Each op's generated check-and-build function accepts exactly the
    events the reference walk accepts, builds the same events, and words
    the same errors, for parsed lines and Python-built events alike."""

    @settings(max_examples=400, deadline=None)
    @given(text=_plausible_texts())
    def test_matches_forced_line_path(self, text):
        built = outcome(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace, "_scan_once", _never_scans)
            assert outcome(text) == built

    @settings(max_examples=400, deadline=None)
    @given(text=_plausible_texts())
    # a valid line, then one that is no JSON object: drawn only now and then
    @example(text='{"seq": 1, "op": "seal"}\n[1, 2]\n')
    def test_parse_matches_reference_walk(self, text):
        assert outcome(text) == outcome(text, reference_parse)

    @settings(max_examples=400, deadline=None)
    @given(events=_python_events())
    def test_validate_matches_reference_walk(self, events):
        assert validated(validate_events, events) == validated(reference_validate, events)

    def test_one_builder_per_op(self):
        assert list(trace._BUILDERS) == list(OP_SCHEMA)

    @pytest.mark.parametrize("op", list(OP_SCHEMA))
    def test_accepted_keys_are_the_ops_fields(self, op):
        build = trace._BUILDERS[op]
        line = _full_line(op)
        assert set(line) == OP_SCHEMA[op].fields | {"seq", "op", "expect"}
        assert build(1, line) == event_from_line(line)
        for key in set(_VALID) - set(line):
            assert build(1, {**line, key: _VALID[key]}) == f"{op} does not take ['{key}']", key
            assert build(1, {**line, key: None}) == event_from_line(line), key
        assert type(build(1, {**line, "bogus": None})) is str
        with pytest.raises(ParseError, match=re.escape("unknown fields: ['bogus']")):
            parse_trace(json.dumps({**_full_line(op), "bogus": None}))
        for name, _ in OP_SCHEMA[op].required:
            assert build(1, {k: v for k, v in line.items() if k != name}) == \
                f"{op} requires ['{name}']", name
        for name, _ in OP_SCHEMA[op].optional:
            without = {k: v for k, v in line.items() if k != name}
            assert build(1, without) == event_from_line(without), name

    def test_roundtrip_of_every_op(self, decoded, monkeypatch):
        events = [event_from_line({**_full_line(op), "seq": seq})
                  for seq, op in enumerate(OP_SCHEMA, start=1)]
        # and one without its optional fields
        events.append(ev(len(events) + 1, "send", actor=1, target=2, expect={"decision": "Deny"}))
        validate_events(events)
        assert {event.op for event in events} == set(OP_SCHEMA)

        def refused(*args):
            raise AssertionError("the field walk ran")

        # every line is scanned once and checked and built by its op's
        # function: no line is decoded again, and the field walk never runs
        monkeypatch.setattr(trace, "validate_events", refused)
        text = serialize_trace(events)
        assert parse_trace(text) == events
        assert decoded == (text.splitlines(), [])

    def test_null_for_a_field_the_op_does_not_take(self, decoded):
        """A null stands for an absent field: such a line is built from its
        one scan, and no line is decoded again."""
        text = ('{"seq": 1, "op": "seal", "name": null}\n'
                '{"seq": 2, "op": "spawn", "vm": 1, "names": null, "scope": null}\n')
        assert parse_trace(text) == [ev(1, "seal"), ev(2, "spawn", vm=1)]
        assert decoded == (text.splitlines(), [])
        assert parse_trace(text) == reference_parse(text)

    def test_parse_error_beats_an_earlier_validation_error(self):
        text = '{"seq":1,"op":"spawn","vm":-1}\n{"seq":2,"op":"seal","bogus":1}\n'
        with pytest.raises(ParseError, match=re.escape("line 2: unknown fields: ['bogus']")):
            parse_trace(text)
        with pytest.raises(ValidationError, match=re.escape(
                "seq 1: vm: must be a non-negative integer")):
            parse_trace(text.replace(',"bogus":1', ""))

    @pytest.mark.parametrize("text, lineno", [
        pytest.param('{"seq":1,"op":"seal","bogus":1}\n{nope\n', 1, id="first_line"),
        pytest.param('\n{"seq":1,"op":"seal"}\n \n{"seq":2,"op":"seal","bogus":null}\n{nope\n', 4,
                     id="after_blank_lines"),
    ])
    def test_parse_error_on_an_earlier_line_beats_bad_json(self, text, lineno):
        with pytest.raises(ParseError, match=re.escape(f"line {lineno}: unknown fields: ['bogus']")):
            parse_trace(text)
        assert outcome(text) == outcome(text, reference_parse)

    @pytest.mark.parametrize("line, missing", [
        ('{"op": "seal"}', "1 required positional argument: 'seq'"),
        ('{"seq": 1}', "1 required positional argument: 'op'"),
        ('{"vm": 1}', "2 required positional arguments: 'seq' and 'op'"),
    ])
    def test_missing_seq_or_op_is_worded_as_the_call(self, line, missing):
        with pytest.raises(ParseError) as exc:
            parse_trace('{"seq": 1, "op": "seal"}\n\n' + line + "\n")
        assert str(exc.value) == f"line 3: TraceEvent.__init__() missing {missing}"
        with pytest.raises(TypeError, match=re.escape(missing)):
            TraceEvent(**json.loads(line))


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
        ev(1, "load_long_list", names=[r"\vm2\a"]),                   # reserved
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

    def test_names_held_as_a_list(self):
        # an event holds ``names`` as its trace line does, a JSON list
        with pytest.raises(ValidationError, match=re.escape(
                "seq 1: names must be of type list, got tuple")):
            validate_events([ev(1, "load_long_list", names=(r"\a\b",))])

    def test_pattern_fine_in_long_list(self):
        validate_events([ev(1, "load_long_list", names=[r"\pipe\Ctl*"])])

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


# (op, field) for every string field, and the field's valid value with a
# lone surrogate in it; a scope must be one of its values anyway
_STRING_FIELDS = [(op, name) for op, spec in OP_SCHEMA.items()
                  for name, kind in spec.required + spec.optional if kind.type in (str, list)]
_LONE = {**{f: v + "\ud800" for f, v in _VALID.items() if type(v) is str},
         "names": [_VALID["name"] + "\ud800"]}


class TestLoneSurrogates:
    """JSON's ``\\ud800`` escape decodes to a lone surrogate, a string that
    is not UTF-8 text: every string a trace holds must be UTF-8 text."""

    @pytest.mark.parametrize("op, field", _STRING_FIELDS)
    def test_each_string_field_refuses_one(self, op, field):
        line = {**_full_line(op), field: _LONE[field]}
        rule = ("must be one of" if field in ("scope", "hook_scope")
                else "must be UTF-8 text, holds a lone surrogate")
        message = f"seq 1: {field}: {rule}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            parse_trace(json.dumps(line) + "\n")
        with pytest.raises(ValidationError, match=re.escape(message)):
            validate_events([TraceEvent(**line)])

    @pytest.mark.parametrize("key", ["effective_name", "error"])
    def test_expect_strings_refuse_one(self, key):
        line = {**_full_line("seal"), "expect": {key: "\ud800"}}
        with pytest.raises(ValidationError, match=re.escape(
                f"seq 1: expect.{key}: must be UTF-8 text, holds a lone surrogate")):
            parse_trace(json.dumps(line) + "\n")

    def test_surrogate_pair_is_text(self):
        # JSON escapes U+1F600 as the surrogate pair \ud83d\ude00, which
        # decodes to it
        char = "\U0001f600"
        events = [
            ev(1, "load_long_list", names=[r"\srv\a" + char]),
            ev(2, "vm_create", ip=char),
            ev(3, "open", actor=1, name=r"\a" + char, category="I_Port:" + char),
            ev(4, "send", actor=1, target=1, subtype=char, payload=char),
            ev(5, "find_window", actor=1, class_name=char),
        ]
        text = serialize_trace(events)
        assert text.count(r"\ud83d\ude00") == 7
        assert parse_trace(text) == events


# (op, field) for every field whose type has a rule, and a value of the
# field's type that breaks the rule. The values are written here, not read
# from ``OP_SCHEMA``, so a rule dropped from the schema shows as a case that
# is accepted.
_RULE_BREAKERS = {
    ("load_long_list", "names"): [r"\srv\ok", "relative"],
    ("vm_create", "ip"): "10.0.0.\ud800",
    ("spawn", "vm"): -1,
    ("create", "actor"): 0,
    ("create", "name"): r"\vm1\a",
    ("create", "category"): "V_Message",
    ("create", "scope"): "Shared",
    ("open", "actor"): -3,
    ("open", "name"): "a",
    ("open", "category"): "X_Bad",
    ("close", "actor"): 0,
    ("close", "name"): r"\a\b*",
    ("send", "actor"): 0,
    ("send", "target"): -1,
    ("send", "subtype"): "Clip\ud800",
    ("send", "payload"): "\udfff",
    ("register_window", "actor"): 0,
    ("register_window", "class_name"): "Shell\ud800",
    ("find_window", "actor"): -1,
    ("find_window", "class_name"): "\ud800",
    ("remote_thread", "actor"): 0,
    ("remote_thread", "target"): 0,
    ("set_hook", "actor"): 0,
    ("set_hook", "hook_scope"): "Everywhere",
    ("bind", "actor"): 0,
    ("bind", "ip"): "\ud800",
}


# the error each rule breaker gives, written out: a cached rule or a shared
# value must not change a word of it
_RULE_ERRORS = {
    ("load_long_list", "names"): r"names: object name must start with '\\': 'relative'",
    ("vm_create", "ip"): "ip: must be UTF-8 text, holds a lone surrogate",
    ("spawn", "vm"): "vm: must be a non-negative integer",
    ("create", "actor"): "actor: must be a positive pid",
    ("create", "name"): r"name: reserved vm-prefix name '\\vm1\\a'",
    ("create", "category"): "category: not a name-addressed category: V_Message",
    ("create", "scope"): "scope: must be one of ['Global', 'Local'], got 'Shared'",
    ("open", "actor"): "actor: must be a positive pid",
    ("open", "name"): r"name: object name must start with '\\': 'a'",
    ("open", "category"): "category: unknown IPC group 'X_Bad'",
    ("close", "actor"): "actor: must be a positive pid",
    ("close", "name"): r"name: '*' only allowed as a trailing suffix pattern: '\\a\\b*'",
    ("send", "actor"): "actor: must be a positive pid",
    ("send", "target"): "target: must be a positive pid",
    ("send", "subtype"): "subtype: must be UTF-8 text, holds a lone surrogate",
    ("send", "payload"): "payload: must be UTF-8 text, holds a lone surrogate",
    ("register_window", "actor"): "actor: must be a positive pid",
    ("register_window", "class_name"): "class_name: must be UTF-8 text, holds a lone surrogate",
    ("find_window", "actor"): "actor: must be a positive pid",
    ("find_window", "class_name"): "class_name: must be UTF-8 text, holds a lone surrogate",
    ("remote_thread", "actor"): "actor: must be a positive pid",
    ("remote_thread", "target"): "target: must be a positive pid",
    ("set_hook", "actor"): "actor: must be a positive pid",
    ("set_hook", "hook_scope"): "hook_scope: must be one of ['OwnVm', 'SystemWide'], got 'Everywhere'",
    ("bind", "actor"): "actor: must be a positive pid",
    ("bind", "ip"): "ip: must be UTF-8 text, holds a lone surrogate",
}


class TestFieldRules:
    """Each field rule refuses a value of the right type: the per-field
    cases the reference walk cannot give, as it reads each rule from the
    schema it is compared with."""

    def test_a_case_for_every_rule(self):
        ruled = {(op, name) for op, spec in OP_SCHEMA.items()
                 for name, kind in spec.required + spec.optional if kind.rule is not None}
        assert ruled == set(_RULE_BREAKERS) == set(_RULE_ERRORS)

    @pytest.mark.parametrize("op, field", sorted(_RULE_BREAKERS))
    def test_each_rule_refuses_its_bad_value(self, op, field):
        line = {**_full_line(op), field: _RULE_BREAKERS[op, field]}
        # twice over: a cached rule answers the second check from its cache
        for check in (lambda: parse_trace(json.dumps(line) + "\n"),
                      lambda: validate_events([TraceEvent(**line)])) * 2:
            with pytest.raises(ValidationError) as exc:
                check()
            assert exc.value.seq == 1
            assert exc.value.reason.startswith(f"{field}: "), exc.value.reason
            assert exc.value.reason == _RULE_ERRORS[op, field]


# the fields replay reads, whose equal values parsed events share
_SHARED_FIELDS = frozenset({"name", "category", "scope", "hook_scope", "class_name", "ip"})
_SHARED_CASES = [(op, name) for op, spec in OP_SCHEMA.items()
                 for name in sorted(spec.fields & _SHARED_FIELDS)]


# each kind whose equal values events share, with its cache
_SHARED_KINDS = {kind for spec in OP_SCHEMA.values()
                 for _, kind in spec.required + spec.optional if kind.shared is not None}


def _objects_and_values(events, field: str) -> tuple[int, int]:
    """How many string objects, and how many distinct values, ``field``
    holds across ``events``."""
    held = [value for event in events if (value := getattr(event, field)) is not None]
    return len({id(value) for value in held}), len(set(held))


def _repeating_events() -> list[TraceEvent]:
    """A valid trace that repeats a few values of every shared field."""
    events = generate_random_trace(5, TraceParams(event_count=600, seal_position=300,
                                                  pattern_count=2))
    for i in range(200):
        actor = 1 + i % 5
        trace._emit(events, "set_hook", actor=actor, hook_scope=("OwnVm", "SystemWide")[i % 2])
        trace._emit(events, "register_window", actor=actor, class_name=f"Shell-{i % 3}")
        trace._emit(events, "find_window", actor=actor, class_name=f"Shell-{i % 4}")
        trace._emit(events, "bind", actor=actor, ip=("0.0.0.0", "10.0.0.2")[i % 2], port=80)
    return events


class TestSharing:
    """A parsed event holds one string object per distinct value of each
    field replay reads, whatever line or parse it came from; a send's
    subtype and payload, unique per event, are held as decoded. Each shared
    kind's one cache also answers its rule, once per distinct value."""

    def test_the_schema_shares_the_fields_replay_reads(self):
        shared = {name for spec in OP_SCHEMA.values()
                  for name, kind in spec.required + spec.optional if kind.shared}
        assert shared == _SHARED_FIELDS

    @pytest.mark.parametrize("op, field", _SHARED_CASES)
    def test_equal_values_are_one_object_across_parses(self, op, field):
        line = _full_line(op)
        text = json.dumps(line) + "\n" + json.dumps({**line, "seq": 2}) + "\n"
        # each parse decodes every line to new strings
        events = parse_trace(text) + parse_trace(text)
        assert [getattr(event, field) for event in events] == [line[field]] * 4
        assert _objects_and_values(events, field) == (1, 1)

    def test_send_subtype_and_payload_are_not_shared(self):
        line = {"seq": 1, "op": "send", "actor": 1, "target": 2,
                "subtype": "Clipboard", "payload": "hello"}
        text = json.dumps(line) + "\n" + json.dumps({**line, "seq": 2}) + "\n"
        kinds = [kind for _, kind in OP_SCHEMA["send"].optional]
        assert kinds == [trace.MESSAGE] * 2 and trace.MESSAGE.shared is None
        before = {kind: kind.shared.cache_info() for kind in _SHARED_KINDS}
        events = parse_trace(text) + parse_trace(text)
        assert {kind: kind.shared.cache_info() for kind in _SHARED_KINDS} == before
        assert _objects_and_values(events, "subtype") == (4, 1)
        assert _objects_and_values(events, "payload") == (4, 1)

    def test_more_distinct_names_than_the_cache_holds(self):
        """Past the cache's bound, an evicted value is held afresh: the
        events are those of the reference walk, twice over."""
        maxsize = trace.NAME.shared.cache_info().maxsize
        count = maxsize + 904
        names = [rf"\app\obj-{i:05d}" for i in range(count)]
        events = [ev(1, "load_long_list", names=[]), ev(2, "vm_create", ip="10.0.0.2"),
                  ev(3, "spawn", vm=1)]
        for name in names * 2:
            events.append(ev(len(events) + 1, "create", actor=1, name=name,
                             category="IV_Sync:Mutex", scope="Local"))
        text = serialize_trace(events)
        parsed = parse_trace(text)
        assert parsed == reference_parse(text) == events
        assert _objects_and_values(parsed, "name")[1] == count
        assert trace.NAME.shared.cache_info().currsize == maxsize

    def test_one_object_per_distinct_value(self):
        """A count, not a timing: on a trace that repeats its values, each
        shared field holds as many objects as it has distinct values."""
        events = _repeating_events()
        parsed = parse_trace(serialize_trace(events))
        assert parsed == events
        for field in sorted(_SHARED_FIELDS):
            objects, values = _objects_and_values(parsed, field)
            assert objects == values and values < len(parsed) / 10, field

    def test_a_shared_rule_runs_once_per_distinct_value(self):
        """Across two parses of a repeating trace, each shared kind's cache
        is asked once per field it checks, and its rule runs once per
        distinct value: the cache's misses."""
        events = _repeating_events()
        asked = {kind: [] for kind in _SHARED_KINDS}
        for event in events:
            spec = OP_SCHEMA[event.op]
            for name, kind in spec.required + spec.optional:
                if kind in asked and (value := getattr(event, name)) is not None:
                    asked[kind].append(value)
        assert all(asked.values())
        text = serialize_trace(events)
        for kind in _SHARED_KINDS:
            kind.shared.cache_clear()
        assert parse_trace(text) + parse_trace(text) == events * 2
        for kind, values in asked.items():
            info = kind.shared.cache_info()
            assert info.misses == len(set(values)) < len(values), values[:3]
            assert info.hits + info.misses == 2 * len(values), values[:3]


class TestSchema:
    def test_covers_every_payload_field(self):
        payload = {f.name for f in fields(TraceEvent)} - {"seq", "op", "expect"}
        covered = set().union(*(spec.fields for spec in OP_SCHEMA.values()))
        assert covered == payload

    def test_annotation_states_the_field_type(self):
        # an event holds each field in one form, the one its schema checks
        hints = typing.get_type_hints(TraceEvent)
        for spec in OP_SCHEMA.values():
            for name, kind in spec.required + spec.optional:
                (hint,) = [h for h in typing.get_args(hints[name]) if h is not type(None)]
                assert (typing.get_origin(hint) or hint) is kind.type, name


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


class TestReadme:
    def test_example_trace_replays_clean(self):
        block = re.search(r"```jsonl\n(.*?)```", _readme(), re.S).group(1)
        report = replay(parse_trace(block), dual=True)
        assert report.ok and report.assertions_passed == 2

    def test_op_list_matches_schema(self):
        listed = re.search(r"^Ops: (.*?)\.\s", _readme(), re.M | re.S).group(1)
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


def every_op_events() -> list[TraceEvent]:
    """One event of every op, and every shape of result: pid 1 is the
    host's, pids 2 and 3 are vm1's, pid 4 is vm2's."""
    return [
        ev(1, "load_long_list", names=[r"\srv\host"]),
        ev(2, "vm_create", ip="10.0.0.2"),
        ev(3, "vm_create", ip="10.0.0.3"),
        ev(4, "spawn", vm=0),
        ev(5, "spawn", vm=1),
        ev(6, "spawn", vm=1),
        ev(7, "spawn", vm=2),
        ev(8, "create", actor=1, name=r"\srv\host", category="I_Port"),
        ev(9, "open", actor=2, name=r"\srv\host", category="I_Port"),
        ev(10, "create", actor=2, name=r"\a\b", category="II_PseudoFile:NamedPipe",
           scope="Global"),
        ev(11, "close", actor=2, name=r"\a\b"),
        ev(12, "seal"),
        ev(13, "open", actor=4, name=r"\a\b", category="II_PseudoFile"),
        ev(14, "send", actor=2, target=3, subtype="Clipboard", payload="x"),
        ev(15, "send", actor=2, target=4),
        ev(16, "send", actor=1, target=2),
        ev(17, "register_window", actor=3, class_name="Shell_TrayWnd"),
        ev(18, "find_window", actor=2, class_name="Shell_TrayWnd"),
        ev(19, "find_window", actor=4, class_name="Shell_TrayWnd"),
        ev(20, "remote_thread", actor=2, target=3),
        ev(21, "remote_thread", actor=2, target=4),
        ev(22, "remote_thread", actor=1, target=2),
        ev(23, "set_hook", actor=2, hook_scope="SystemWide"),
        ev(24, "set_hook", actor=2, hook_scope="OwnVm"),
        ev(25, "set_hook", actor=1, hook_scope="SystemWide"),
        ev(26, "set_hook", actor=1, hook_scope="OwnVm"),
        ev(27, "bind", actor=2, ip="0.0.0.0", port=80),
        ev(28, "bind", actor=4, ip="0.0.0.0", port=80),
        ev(29, "bind", actor=3, ip="0.0.0.0", port=80),
        ev(30, "bind", actor=1, ip="192.168.1.1", port=80),
        ev(31, "create", actor=1, name=r"\srv\host", category="I_Port"),
    ]


# the result of each of ``every_op_events()``, keys in the order replay gives them
EVERY_OP_OUTCOMES = [
    {"seq": 1, "op": "load_long_list", "loaded": 1},
    {"seq": 2, "op": "vm_create", "vm": 1},
    {"seq": 3, "op": "vm_create", "vm": 2},
    {"seq": 4, "op": "spawn", "pid": 1},
    {"seq": 5, "op": "spawn", "pid": 2},
    {"seq": 6, "op": "spawn", "pid": 3},
    {"seq": 7, "op": "spawn", "pid": 4},
    {"seq": 8, "op": "create", "effective_name": r"\srv\host",
     "route": "HostPassthrough", "principle": "HostObject"},
    {"seq": 9, "op": "open", "effective_name": r"\srv\host",
     "route": "HostPassthrough", "principle": "HostObject"},
    {"seq": 10, "op": "create", "effective_name": r"\vm1\a\b",
     "route": "VmGlobal", "principle": "GlobalObject"},
    {"seq": 11, "op": "close"},
    {"seq": 12, "op": "seal"},
    {"seq": 13, "op": "open", "error": "NotFound", "effective_name": r"\vm2\a\b",
     "route": "VmPrivate", "principle": "Isolation"},
    {"seq": 14, "op": "send", "delivery": "Delivered", "decision": "Allow"},
    {"seq": 15, "op": "send", "delivery": "Blocked", "decision": "Deny"},
    {"seq": 16, "op": "send", "delivery": "Blocked", "decision": "Deny"},
    {"seq": 17, "op": "register_window"},
    {"seq": 18, "op": "find_window", "found": True, "decision": "Allow"},
    {"seq": 19, "op": "find_window", "found": False, "decision": "Deny"},
    {"seq": 20, "op": "remote_thread", "decision": "Allow", "reason": "SameVm"},
    {"seq": 21, "op": "remote_thread", "decision": "Deny", "reason": "CrossVm"},
    {"seq": 22, "op": "remote_thread", "decision": "Deny", "reason": "CrossVm"},
    {"seq": 23, "op": "set_hook", "decision": "Allow", "effective_vm": 1,
     "narrowed": True},
    {"seq": 24, "op": "set_hook", "decision": "Allow", "effective_vm": 1,
     "narrowed": False},
    {"seq": 25, "op": "set_hook", "decision": "Allow", "effective_vm": 0,
     "narrowed": True},
    {"seq": 26, "op": "set_hook", "decision": "Allow", "effective_vm": 0,
     "narrowed": False},
    {"seq": 27, "op": "bind", "effective_ip": "10.0.0.2", "effective_port": 80},
    {"seq": 28, "op": "bind", "effective_ip": "10.0.0.3", "effective_port": 80},
    {"seq": 29, "op": "bind", "error": "AddressInUse"},
    {"seq": 30, "op": "bind", "effective_ip": "192.168.1.1", "effective_port": 80},
    {"seq": 31, "op": "create", "error": "AlreadyExists", "effective_name": r"\srv\host",
     "route": "HostPassthrough", "principle": "HostObject"},
]


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

    def test_emptied_handle_stacks_are_dropped(self):
        """A close that empties the handle stack of an (actor, name) pair
        drops the pair, and the name replays as before when used again."""
        def round_trip(seq):
            events = []
            for name in (r"\app\x", r"\app\y"):
                for op in ("create", "open"):
                    events.append(ev(seq, op, actor=1, name=name, category="I_Port",
                                     expect={"effective_name": rf"\vm1{name}"}))
                    seq += 1
                events += [ev(seq, "close", actor=1, name=name),
                           ev(seq + 1, "close", actor=1, name=name)]
                seq += 2
            return events

        replayer = Replayer()
        report = replayer.run(preamble() + round_trip(4) + round_trip(12))
        assert report.ok and report.assertions_passed == 8
        assert replayer._handles == {}
        report = replayer.run(round_trip(20))
        assert report.ok and report.assertions_passed == 4
        assert all("error" not in result for result in replayer.outcomes)
        assert replayer._handles == {}
        with pytest.raises(ReplayError):
            replayer.run([ev(28, "close", actor=1, name=r"\app\x")])

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

    def test_unknown_op_aborts(self):
        # replay does not validate the events it is given
        with pytest.raises(ReplayError) as exc:
            replay([TraceEvent(1, "fork")])
        assert str(exc.value) == "seq 1: unknown op 'fork'"

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
            ev(1, "load_long_list", names=[r"\srv\h"]),
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

    @pytest.mark.parametrize("dual", [False, True])
    def test_outcome_of_every_op(self, dual):
        """Every op's outcome keys, pinned (see ``every_op_events``)."""
        events = every_op_events()
        replayer = Replayer(dual=dual)
        report = replayer.run(events)
        assert replayer.outcomes == EVERY_OP_OUTCOMES
        assert {e.op for e in events} == set(OP_SCHEMA)
        # two blocked sends and two denied remote threads; hooks deny nothing
        assert report.counters.denials == 4
        assert report.ok and not report.divergences


class TestOutcomes:
    """``Replayer.outcomes`` is a read-only sequence over the replayer's rows:
    each item a fresh dict of one event's result, in event order."""

    @pytest.fixture(params=[False, True], ids=["single", "dual"])
    def outcomes(self, request):
        replayer = Replayer(dual=request.param)
        replayer.run(every_op_events())
        return replayer.outcomes

    def test_every_shape_keeps_its_key_order(self, outcomes):
        assert [list(o) for o in outcomes] == [list(o) for o in EVERY_OP_OUTCOMES]
        assert [list(outcomes[i]) for i in range(len(outcomes))] == [
            list(o) for o in EVERY_OP_OUTCOMES]

    def test_every_row_is_seven_slots(self):
        """One row per event: its shape's keys, seq, op, then its values
        padded with None to the fixed width."""
        replayer = Replayer()
        replayer.run(every_op_events())
        rows = replayer._rows
        assert len(rows) == 7 * len(EVERY_OP_OUTCOMES)
        for i, expected in enumerate(EVERY_OP_OUTCOMES):
            row = rows[7 * i:7 * i + 7]
            assert row[0] == tuple(expected)
            assert row[1:] == [*expected.values(), *[None] * (6 - len(expected))]

    def test_negative_indexes_wrap(self, outcomes):
        n = len(EVERY_OP_OUTCOMES)
        assert outcomes[-1] == EVERY_OP_OUTCOMES[-1]
        assert outcomes[-2] == EVERY_OP_OUTCOMES[-2]
        assert outcomes[-n] == EVERY_OP_OUTCOMES[0]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                outcomes[index]

    def test_slices_len_and_iteration(self, outcomes):
        assert len(outcomes) == len(EVERY_OP_OUTCOMES)
        assert list(outcomes) == EVERY_OP_OUTCOMES
        assert list(reversed(outcomes)) == EVERY_OP_OUTCOMES[::-1]
        for piece in (slice(2, 5), slice(-3, None), slice(None, None, -4),
                      slice(40, None), slice(None)):
            assert outcomes[piece] == EVERY_OP_OUTCOMES[piece]
        assert outcomes.index(EVERY_OP_OUTCOMES[12]) == 12
        assert EVERY_OP_OUTCOMES[12] in outcomes

    def test_a_returned_dict_is_fresh(self, outcomes):
        first = outcomes[12]
        first["route"] = "changed"
        del first["seq"]
        for result in outcomes:
            result.clear()
        outcomes[-1].clear()
        assert outcomes[12] is not outcomes[12]
        assert list(outcomes) == EVERY_OP_OUTCOMES

    def test_equal_to_a_list_of_equal_dicts_only(self, outcomes):
        assert outcomes == EVERY_OP_OUTCOMES and EVERY_OP_OUTCOMES == outcomes
        assert outcomes != EVERY_OP_OUTCOMES[:-1]
        assert outcomes != [*EVERY_OP_OUTCOMES[:-1], {"seq": 31, "op": "create"}]
        other = Replayer()
        other.run(every_op_events())
        assert outcomes == other.outcomes
        assert outcomes != tuple(EVERY_OP_OUTCOMES)

    def test_read_only(self, outcomes):
        with pytest.raises(TypeError):
            outcomes[0] = {}
        with pytest.raises(TypeError):
            del outcomes[0]
        replayer = Replayer()
        with pytest.raises(AttributeError):
            replayer.outcomes = []
        assert replayer.outcomes == [] and len(replayer.outcomes) == 0


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

    def test_broken_counter_conservation_fails_the_run(self):
        """``run`` checks the engine's conservation identity when it ends: a
        resolve that no step counted is an AssertionError, not a report."""
        replayer = Replayer()
        replayer.engine.counters.resolves_total += 1
        with pytest.raises(AssertionError, match=re.escape(
                "counter conservation violated: EngineCounters(resolves_total=31,")):
            replayer.run(fixture_rpcss())
        assert Replayer().run(fixture_rpcss()).counters.resolves_total == 30

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


def stress_replay(events, max_workers: int = 8) -> EngineSnapshot:
    """Replay with actor events fanned out across worker threads.

    Global events (``load_long_list``, ``vm_create``, ``spawn``, ``seal``)
    act as barriers executed serially; between barriers, each actor's events
    run in order on that actor's worker while different actors interleave
    freely. Outcomes are racy by design; expect clauses are not checked.
    The one error a race adds is tolerated: ``InvalidHandle`` from a close
    whose open lost a race. Any other ``ReplayError`` propagates. Returns the
    final engine snapshot for invariant checking.
    """
    replayer = Replayer(dual=False)
    barriers = {"load_long_list", "vm_create", "spawn", "seal"}
    segment: dict[int, list[TraceEvent]] = {}

    def flush():
        if not segment:
            return
        groups = list(segment.values())
        segment.clear()
        with concurrent.futures.ThreadPoolExecutor(max_workers=max_workers) as pool:
            def run_group(group):
                for ev in group:
                    try:
                        replayer._execute(ev)
                    except ReplayError as exc:
                        if not isinstance(exc.__cause__, InvalidHandle):
                            raise
            list(pool.map(run_group, groups))

    for event in events:
        if event.op in barriers or event.actor is None:
            flush()
            replayer._execute(event)
        else:
            segment.setdefault(event.actor, []).append(event)
    flush()
    return replayer.engine.snapshot()


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

    def test_constrained_trace_with_only_host_names_drops_global_creates(self):
        """With every pooled name a host name, a constrained trace turns each
        global create it draws into a local one, and never diverges."""
        params = TraceParams(event_count=120, seal_position=40, host_fraction=1.0,
                             global_fraction=0.5)
        for seed in range(5):
            assert any(e.scope == "Global" for e in generate_random_trace(seed, params))
            events = generate_random_trace(seed, params, constrained=True)
            assert {e.scope for e in events if e.op == "create" and e.actor != 1} == {"Local"}
            assert replay(events, dual=True).divergences == []

    def test_detector_on_handcrafted_trace(self):
        events = [
            ev(1, "load_long_list", names=[r"\h\a", r"\h\b", r"\h\c"]),
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
        assert diverging_names(events) == {r"\h\b"}

    def test_detector_sees_names_listed_by_a_pattern(self):
        events = [
            ev(1, "load_long_list", names=[r"\h\pipe*"]),
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
        assert diverging_names(events) == diverging

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
            ev(1, "load_long_list", names=[r"\h\a", r"\h\Global\a"]),
            ev(2, "vm_create", ip="10.0.0.2"),
            ev(3, "vm_create", ip="10.0.0.3"),
            ev(4, "spawn", vm=1),
            ev(5, "spawn", vm=2),
        ] + tail
        validate_events(events)
        diverging = {d["name"] for d in replay(events, dual=True).divergences}
        assert diverging == expected
        assert diverging_names(events) == diverging

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
