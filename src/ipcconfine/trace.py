r"""Trace format, validation, deterministic replay, and bundled fixtures.

Wire format is JSONL: one event object per line, UTF-8. Every event carries a
strictly increasing ``seq`` and an ``op``; remaining fields depend on the op,
as ``OP_SCHEMA`` lists them with their exact types:

    {"seq": 1, "op": "load_long_list", "names": ["\\RPC Control\\ntsvcs"]}
    {"seq": 2, "op": "vm_create", "ip": "10.0.0.2"}
    {"seq": 3, "op": "spawn", "vm": 1}
    {"seq": 4, "op": "create", "actor": 1, "name": "\\RPC Control\\epmapper",
     "category": "I_Port", "scope": "Local",
     "expect": {"route": "VmPrivate"}}

VM ids and pids are assigned deterministically in event order (1, 2, 3, ...),
so traces reference them literally. An optional ``expect`` clause asserts on
the outcome: ``route`` / ``effective_name`` (create, open), ``decision``
(send, remote_thread, find_window, set_hook), or ``error`` (any op).

Original names whose first component matches ``vm<digits>`` collide with the
rename image space and are rejected by validation.

``OP_SCHEMA`` drives one check. At import, one function per op is generated
from it and compiled: it checks an event's fields against their types and
rules, builds the event, and words every error. ``parse_trace`` decodes
each non-blank line once and runs it through its op's function in the same
pass, and ``validate_events`` each event built in Python, so the two accept
the same events and give the same errors.

A parsed event is a :class:`TraceEvent`, a slotted, mutable record: it has no
per-instance ``__dict__``, and it is neither frozen nor hashable. Each field
holds a value equal to its JSON line's, ``names`` as a list. The fields
replay reads (``name``, ``category``, ``scope``, ``hook_scope``,
``class_name`` and ``ip``) hold an equal value, shared: one string object
per distinct value, from its kind's cache (see :class:`FieldType`), not one
per line. Nothing in parsing, validation or replay assigns to an event
after it is built.

Replay keeps each event's result as one fixed-width row of one flat list,
not as a dict per event (see :class:`Replayer`); ``Replayer.outcomes``
reads the rows as a sequence of fresh dicts, one per event, in event order.
"""

from __future__ import annotations

import json
import json.scanner
import operator
import random
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial

from .engine import (
    ConfinementEngine,
    EngineCounters,
    EngineSnapshot,
    ReferenceEngine,
    ResolveOutcome,
    Route,
)
from .errors import (
    ConfinementError,
    InvalidHandle,
    InvalidName,
    InvalidParams,
    KernelError,
    ParseError,
    ReplayError,
    ValidationError,
)
from .kernel import Handle, HookScope, SimKernel
from .model import (
    IpcCategory,
    Scope,
    VmId,
    VmRegistry,
    check_object_name,
)

__all__ = [
    "TraceEvent",
    "ReplayReport",
    "Replayer",
    "parse_trace",
    "serialize_trace",
    "validate_events",
    "replay",
    "fixture_rpcss",
    "fixture_three_iis",
    "TraceParams",
    "generate_random_trace",
    "RPCSS_LONG_LIST",
    "RPCSS_ISOLATION",
    "RPCSS_GLOBAL",
    "RPCSS_HOST_OBJECTS",
]


@dataclass(slots=True)
class TraceEvent:
    """One trace event: ``seq``, ``op`` and the op's payload fields.

    A slotted, mutable record: building one makes one slot store per field
    and no per-instance ``__dict__``. Each field holds a value equal to its
    JSON value, so ``names`` is a list, and a field whose
    :class:`FieldType` is ``shared`` holds an equal value, shared: one
    object per distinct value. Events are therefore not hashable, and
    nothing stops an assignment to a field; parsing, validation and replay
    never assign to one.
    """

    seq: int
    op: str
    actor: int | None = None
    vm: int | None = None
    ip: str | None = None
    port: int | None = None
    name: str | None = None
    names: list[str] | None = None
    category: str | None = None
    scope: str | None = None
    target: int | None = None
    subtype: str | None = None
    payload: str | None = None
    class_name: str | None = None
    hook_scope: str | None = None
    expect: dict | None = None

    def to_dict(self) -> dict:
        return {name: value for name in _EVENT_FIELDS
                if (value := getattr(self, name)) is not None}


_EVENT_FIELDS = tuple(f.name for f in fields(TraceEvent))
_KNOWN_FIELDS = frozenset(_EVENT_FIELDS)
_COMMON_FIELDS = frozenset({"seq", "op", "expect"})


class FieldType:
    """A payload field's exact type, the rule its value must meet, and
    whether events share its value.

    The type is matched exactly, so ``True`` is not an ``int``; it is the
    type of the JSON value. ``rule`` takes a value of that type and returns
    an error message, or None. A kind made with ``shared=True`` keeps one
    bounded cache, ``shared``: ``value -> (rule(value), value)``, so each
    distinct value is checked once, and the ``TraceEvent`` field holds the
    one object the cache keeps for an equal value. A trace repeats a few
    hundred names, categories and scopes on tens of thousands of lines, and
    the JSON scanner makes a new string for each. The cache is bounded,
    where ``sys.intern`` is not: from CPython 3.12 interned strings are
    immortal, so a long-lived process would keep every name it ever parsed.
    Past the bound, equal values may be two objects, never unequal ones.
    Any other kind's ``shared`` is None, and its field holds the JSON value
    as it is. Only the function generated for each op that takes the field
    applies them (see ``_compile_builders``).
    """

    __slots__ = ("type", "rule", "shared")

    def __init__(self, type_: type, rule=None, shared: bool = False):
        self.type = type_
        self.rule = rule
        self.shared = lru_cache(maxsize=4096)(
            lambda value: (None if rule is None else rule(value), value)) if shared else None


class OpSpec:
    """One trace op: the Replayer method that runs it and its payload fields,
    each mapped to its :class:`FieldType`.

    The op's generated function (see ``_compile_builders``) checks these
    fields and builds the event, for a parsed line and a Python-built event
    alike, and words every error.
    """

    __slots__ = ("handler", "required", "optional", "fields")

    def __init__(self, handler: str, required: dict, optional: dict | None = None):
        self.handler = handler
        self.required = tuple(required.items())
        self.optional = tuple((optional or {}).items())
        self.fields = frozenset(required) | frozenset(optional or ())


# One parse per distinct category string, 0.16 us per call cached against
# 2.09 uncached; validation warms it for replay.
_category = lru_cache(maxsize=64)(IpcCategory.parse)


_SCOPES = {None: Scope.LOCAL, **{s.value: s for s in Scope}}
_VM_GLOBAL = Route.VM_GLOBAL
_HOOK_SCOPES = {h.value: h for h in HookScope}


def _text_error(text: str) -> str | None:
    """The wire-format rule of every trace string: it must encode as UTF-8.
    JSON's ``\\ud800`` escape decodes to a lone surrogate, which does not."""
    if not text.isascii():
        try:
            text.encode()
        except UnicodeEncodeError:
            return "must be UTF-8 text, holds a lone surrogate"
    return None


def _name_error(name: str, allow_pattern: bool = False) -> str | None:
    if isinstance(name, str) and (error := _text_error(name)) is not None:
        return error
    try:
        check_object_name(name, allow_pattern=allow_pattern)
    except InvalidName as exc:
        return str(exc)
    return None


def _names_error(names: list) -> str | None:
    for name in names:
        error = _name_error(name, allow_pattern=True)
        if error is not None:
            return error
    return None


def _category_error(text: str) -> str | None:
    if (error := _text_error(text)) is not None:
        return error
    try:
        category = _category(text)
    except ValueError as exc:
        return str(exc)
    if not category.name_addressed:
        return f"not a name-addressed category: {text}"
    return None


def _one_of(values):
    return lambda value: None if value in values else f"must be one of {sorted(values)}, got {value!r}"


PID = FieldType(int, lambda v: None if v >= 1 else "must be a positive pid")
VM = FieldType(int, lambda v: None if v >= 0 else "must be a non-negative integer")
PORT = FieldType(int)
TEXT = FieldType(str, _text_error, shared=True)
# text that events do not share: a send's subtype and payload, unique per event
MESSAGE = FieldType(str, _text_error)
NAME = FieldType(str, _name_error, shared=True)
# not shared: a list is not hashable, nor are all the JSON values it holds
NAMES = FieldType(list, _names_error)
CATEGORY = FieldType(str, _category_error, shared=True)
SCOPE = FieldType(str, _one_of({s.value for s in Scope}), shared=True)
HOOK_SCOPE = FieldType(str, _one_of(set(_HOOK_SCOPES)), shared=True)

# The trace schema: every op, its handler and its payload fields. Parsing,
# validation and replay dispatch all read this table. ``seq``, ``op`` and
# ``expect`` are common to every op.
OP_SCHEMA = {
    "load_long_list": OpSpec("_load_long_list", {"names": NAMES}),
    "vm_create": OpSpec("_vm_create", {"ip": TEXT}),
    "spawn": OpSpec("_spawn", {"vm": VM}),
    "create": OpSpec("_create_or_open", {"actor": PID, "name": NAME, "category": CATEGORY},
                     {"scope": SCOPE}),
    "open": OpSpec("_create_or_open", {"actor": PID, "name": NAME, "category": CATEGORY}),
    "close": OpSpec("_close", {"actor": PID, "name": NAME}),
    # a send's subtype and payload are checked text; replay reads neither,
    # as the kernel decides a message and stores none
    "send": OpSpec("_send", {"actor": PID, "target": PID},
                   {"subtype": MESSAGE, "payload": MESSAGE}),
    "register_window": OpSpec("_register_window", {"actor": PID, "class_name": TEXT}),
    "find_window": OpSpec("_find_window", {"actor": PID, "class_name": TEXT}),
    "remote_thread": OpSpec("_remote_thread", {"actor": PID, "target": PID}),
    "set_hook": OpSpec("_set_hook", {"actor": PID, "hook_scope": HOOK_SCOPE}),
    "bind": OpSpec("_bind", {"actor": PID, "ip": TEXT, "port": PORT}),
    "seal": OpSpec("_seal", {}),
}

# expect key -> the string values it accepts (None: any string); null is
# accepted for every key
_EXPECT = {
    "route": frozenset(r.value for r in Route),
    "decision": frozenset({"Allow", "Deny"}),
    "effective_name": None,
    "error": None,
}


def _compile_builders(schema: dict) -> dict:
    """One check-and-build function per op, generated from ``schema`` and
    compiled from one source: the only code that applies a field's type and
    rule.

    ``builders[op](seq, line)`` takes a dict of an event's fields, from a
    parsed line or a Python-built event, and returns the event, or the
    message of the first error in this order: each required field in turn
    null (naming every null one), of another type or against its rule; the
    fields the op does not take that are not null, and any key that is no
    field at all; then each optional field that is not null in turn. No
    rule is restated here: the function calls each field's own. ``_event``
    checks ``seq``, the op and ``expect``.

    A line holds no key the op does not take when its length is the count
    of the keys it does: ``seq``, ``op``, every required field (each is
    there, as it passed its type), and each optional field and ``expect``
    that is in the line. Only a line of another length goes to
    ``_not_taken``, which words the error or finds only null fields.
    """
    namespace = {"TraceEvent": TraceEvent}
    source = []
    for op, spec in schema.items():
        namespace.update({f"mistyped_{op}": partial(_mistyped, op, spec),
                          f"not_taken_{op}": partial(_not_taken, op, spec.fields | _COMMON_FIELDS)})
        source.append(f"def build_{op}(seq, line):")
        for name, kind in spec.required:
            source.append(f"    {name} = line.get({name!r})")
            source += _field_source(op, name, kind, "    ", namespace)
        # seq, op, the required fields, and each optional field and expect in the line
        count = f"{2 + len(spec.required)}" + "".join(
            f" + ({name!r} in line)" for name in (*dict(spec.optional), "expect"))
        source += [f"    if len(line) != {count} and (error := not_taken_{op}(line)):",
                   "        return error"]
        for name, kind in spec.optional:
            source += [f"    {name} = line.get({name!r})", f"    if {name} is not None:"]
            source += _field_source(op, name, kind, "        ", namespace)
        given = {"seq": "seq", "op": repr(op), "expect": "line.get('expect')",
                 **{f: f for f in spec.fields}}
        args = ", ".join(given.get(f, "None") for f in _EVENT_FIELDS)
        source += [f"    return TraceEvent({args})", ""]
    exec(compile("\n".join(source), "<trace builders>", "exec"), namespace)
    return {op: namespace[f"build_{op}"] for op in schema}


def _field_source(op: str, name: str, kind: FieldType, pad: str, namespace: dict) -> list[str]:
    """The lines of a builder that test one field's type and rule; a shared
    field's one call to its kind's cache gives the rule's error and the
    value's shared object."""
    namespace[kind.type.__name__] = kind.type
    lines = [f"{pad}if type({name}) is not {kind.type.__name__}:",
             f"{pad}    return mistyped_{op}({name!r}, line)"]
    if kind.shared is not None:
        namespace[f"rule_{op}_{name}"] = kind.shared
        lines += [f"{pad}error, {name} = rule_{op}_{name}({name})",
                  f"{pad}if error is not None:"]
    elif kind.rule is not None:
        namespace[f"rule_{op}_{name}"] = kind.rule
        lines.append(f"{pad}if (error := rule_{op}_{name}({name})) is not None:")
    else:
        return lines
    return lines + [f"{pad}    return {name + ': '!r} + error"]


def _mistyped(op: str, spec: OpSpec, name: str, line: dict) -> str:
    """The error of a field a builder found null (a required one) or of another type."""
    value = line.get(name)
    if value is None:
        return f"{op} requires {sorted(f for f, _ in spec.required if line.get(f) is None)}"
    kind = dict(spec.required + spec.optional)[name]
    return f"{name} must be of type {kind.type.__name__}, got {type(value).__name__}"


def _not_taken(op: str, keys: frozenset, line: dict) -> str | None:
    """The error of a line's keys beyond ``keys`` that are not null, or None
    if there are none; a builder calls it only for a line whose length is
    not the count of the keys it takes. A key that is no event field counts
    even when null: the build then fails, and ``parse_trace``'s check of the
    line reports it as the ParseError it is."""
    extra = sorted(key for key, value in line.items()
                   if key not in keys and (value is not None or key not in _KNOWN_FIELDS))
    return f"{op} does not take {extra}" if extra else None


_BUILDERS = _compile_builders(OP_SCHEMA)


def serialize_trace(events) -> str:
    return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in events)


# The C scanner behind ``json.loads``, bound once: ``_scan_once(line, 0)``
# decodes the value that starts ``line`` and returns it with its end index.
# A scan that consumes the whole line is ``json.loads`` of that line.
_scan_once = json.scanner.make_scanner(json.JSONDecoder())


def parse_trace(text: str) -> list[TraceEvent]:
    """Parse and validate a JSONL trace, in one pass over its lines.

    Each non-blank line is decoded once: by one scanner call, or, for a
    line the scanner refuses, by one ``json.loads`` of that line alone,
    which accepts a line padded with JSON whitespace and words a bad one.
    Each decoded line is built at once (see ``_event``), as
    ``validate_events`` checks events built in Python; an event holds the
    values its line decodes to. The first line that is bad JSON, or not a
    JSON object of event fields with ``seq`` and ``op`` (``_line_error``),
    is a ParseError, and it beats a ValidationError on any earlier line. A
    line that builds passes ``_line_error``, so only the line whose build
    fails and the lines after it are checked, and those only decoded.
    """
    events = []
    append = events.append
    error = None   # the first ValidationError, raised if no ParseError follows
    last_seq = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.isspace():
            continue
        try:
            value, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = 0
        if end != len(line):
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(lineno, f"bad JSON: {exc.msg}") from None
            except (ValueError, RecursionError) as exc:  # an integer too long, nesting too deep
                raise ParseError(lineno, f"bad JSON: {exc}") from None
        if error is None and type(value) is dict:
            event = _event(value, last_seq)
            if type(event) is TraceEvent:
                last_seq = event.seq
                append(event)
                continue
            error = event
        message = _line_error(value)
        if message is not None:
            raise ParseError(lineno, message)
    if error is not None:
        raise error
    return events


def validate_events(events) -> None:
    """Check events built in Python, each by its op's generated function;
    the first invalid one is a ValidationError."""
    last_seq = 0
    for event in events:
        built = _event({f: getattr(event, f) for f in _EVENT_FIELDS}, last_seq)
        if type(built) is not TraceEvent:
            raise built
        last_seq = built.seq


def _event(line: dict, last_seq: int) -> TraceEvent | ValidationError:
    """The event of a dict of event fields, from a decoded line or a
    Python-built event, checked and built by its op's function in
    ``_BUILDERS``; or, not raised, the ValidationError of its first fault:
    a ``seq`` not above ``last_seq``, an unknown op, its fields, then its
    ``expect``."""
    seq = line.get("seq")
    if type(seq) is not int or seq <= last_seq:
        return ValidationError(seq if type(seq) is int else -1,
                               f"seq must be a strictly increasing positive integer (after {last_seq})")
    op = line.get("op")
    build = _BUILDERS.get(op) if type(op) is str else None
    if build is None:
        return ValidationError(seq, f"unknown op {op!r}")
    event = build(seq, line)
    if type(event) is str:
        return ValidationError(seq, event)
    if event.expect is not None and (error := _expect_error(event.expect)) is not None:
        return ValidationError(seq, error)
    return event


def _line_error(data) -> str | None:
    """Why a decoded line is not a JSON object of event fields with ``seq``
    and ``op``, or None; a missing ``seq`` or ``op`` is the error of the
    ``TraceEvent`` call without it."""
    if not isinstance(data, dict):
        return "event must be a JSON object"
    if not _KNOWN_FIELDS.issuperset(data):
        return f"unknown fields: {sorted(set(data) - _KNOWN_FIELDS)}"
    if "seq" not in data or "op" not in data:
        try:
            TraceEvent(**data)
        except TypeError as exc:
            return str(exc)
    return None


def _expect_error(expect) -> str | None:
    """What is wrong with an ``expect`` clause, or None."""
    if not isinstance(expect, dict):
        return "expect must be an object"
    for key, value in expect.items():
        if key not in _EXPECT:
            unknown = sorted(map(str, set(expect) - set(_EXPECT)))
            return f"unknown expect keys {unknown}"
        if value is None:
            continue
        if type(value) is not str:
            return f"expect.{key} must be a string or null"
        allowed = _EXPECT[key]
        if allowed is None:
            if (error := _text_error(value)) is not None:
                return f"expect.{key}: {error}"
        elif value not in allowed:
            return f"bad expect.{key} {value!r}"
    return None


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayReport:
    events_run: int = 0
    assertions_passed: int = 0
    assertions_failed: list = field(default_factory=list)
    counters: EngineCounters = field(default_factory=EngineCounters)
    divergences: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.assertions_failed and not self.divergences

    def to_dict(self) -> dict:
        return {
            "events_run": self.events_run,
            "assertions_passed": self.assertions_passed,
            "assertions_failed": self.assertions_failed,
            "counters": self.counters.to_dict(),
            "divergences": self.divergences,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


# The result keys of each shape of row, one constant per shape. A row is
# ``_ROW`` slots of ``Replayer._rows``: its keys, ``seq``, ``op``, and up to
# four values, padded with None.
_ROW = 7
_LOADED = ("seq", "op", "loaded")
_VM_CREATED = ("seq", "op", "vm")
_SPAWNED = ("seq", "op", "pid")
_RESOLVED = ("seq", "op", "effective_name", "route", "principle")
_REFUSED = ("seq", "op", "error", "effective_name", "route", "principle")
_BARE = ("seq", "op")
_SENT = ("seq", "op", "delivery", "decision")
_FOUND = ("seq", "op", "found", "decision")
_THREAD = ("seq", "op", "decision", "reason")
_HOOKED = ("seq", "op", "decision", "effective_vm", "narrowed")
_BOUND = ("seq", "op", "effective_ip", "effective_port")
_ERROR = ("seq", "op", "error")


class Outcomes(Sequence):
    """A read-only view of a replayer's rows: item ``i`` is a fresh dict of
    event ``i``'s result, its keys in the order of the row's shape. Equal to
    a list of equal dicts."""

    __slots__ = ("_rows",)

    def __init__(self, rows: list):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows) // _ROW

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = operator.index(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("outcome index out of range")
        start = index * _ROW
        rows = self._rows
        return dict(zip(rows[start], rows[start + 1:start + _ROW]))

    def __iter__(self):
        rows = self._rows
        for start in range(0, len(rows), _ROW):
            yield dict(zip(rows[start], rows[start + 1:start + _ROW]))

    def __eq__(self, other):
        if isinstance(other, (list, Outcomes)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Outcomes({list(self)!r})"


class Replayer:
    """Executes a validated event list against a fresh engine + kernel.

    Each event's result is one row of ``_ROW`` slots in the flat list
    ``_rows``: the keys of its shape, ``seq``, ``op`` and up to four values,
    padded with None. Each handler returns its row as one tuple, which
    ``run`` copies into the list, so the list holds no container per event.
    ``outcomes`` is a read-only sequence over the rows that gives one fresh
    dict per event, in event order.

    In dual mode each create or open of a VM caller whose engine route is
    not ``VmGlobal`` is compared, whole, with the full-scan oracle's
    outcome, and any divergence is recorded. The engine decides such an
    outcome by step (d), (e), (f) or (g), and the oracle by (f) or (g).
    Host callers (step (a)) and ``VmGlobal`` outcomes (steps (b) and (c))
    do not depend on the host-object list, so the oracle, which holds
    nothing else, is not asked. The oracle makes one scan per distinct
    (name, VM): its answer depends on nothing but the two and its long
    list, which is loaded once, after the engine's load and before the
    first resolve can succeed, so each answer is kept and compared again
    on every later event that asks the same. Replay is deterministic:
    identical input yields identical reports.
    """

    def __init__(self, dual: bool = False):
        self.registry = VmRegistry()
        self.engine = ConfinementEngine()
        self.kernel = SimKernel(self.registry, self.engine)
        self.reference = ReferenceEngine() if dual else None
        self._rows: list = []
        self.seal_snapshot: EngineSnapshot | None = None
        # (actor pid, original name) -> non-empty stack of open handles
        self._handles: dict[tuple[int, str], list] = {}
        self._divergences: list[dict] = []
        # (name, vm id) -> the oracle's outcome, asked once per key
        self._oracle_outcomes: dict[tuple[str, int], ResolveOutcome] = {}

    @property
    def outcomes(self) -> Outcomes:
        """Each event's result, as a fresh dict, in event order."""
        return Outcomes(self._rows)

    def run(self, events) -> ReplayReport:
        report = ReplayReport()
        extend = self._rows.extend
        execute = self._execute
        for event in events:
            row = execute(event)
            extend(row)
            report.events_run += 1
            if event.expect is not None:
                diffs = self._check_expect(event.expect, dict(zip(row[0], row[1:])))
                if diffs:
                    report.assertions_failed.append({"seq": event.seq, "diffs": diffs})
                else:
                    report.assertions_passed += 1
        report.counters = self.engine.counters.copy()
        report.divergences = list(self._divergences)
        if not report.counters.conservation_holds():
            raise AssertionError(f"counter conservation violated: {report.counters}")
        return report

    def _execute(self, event: TraceEvent) -> tuple:
        """The event's row, from its handler, or the row of an error that
        replay records."""
        handler = _HANDLERS.get(event.op)
        if handler is None:
            raise ReplayError(event.seq, f"unknown op {event.op!r}")
        try:
            return handler(self, event)
        except ConfinementError as exc:
            # a KernelError is a normal, assertable outcome of an op contract
            # (bind's ``AddressInUse``; the kernel returns a failed create's
            # or open's class, which ``_create_or_open`` records with the
            # outcome); any other error is a precondition violation and
            # aborts the run unless the event expects it
            if not isinstance(exc, KernelError) and (event.expect or {}).get("error") is None:
                raise ReplayError(event.seq, f"{exc.code}: {exc}") from exc
            return (_ERROR, event.seq, event.op, exc.code, None, None, None)

    # -- one handler per op, named in OP_SCHEMA; each returns the event's row --

    def _load_long_list(self, event: TraceEvent) -> tuple:
        loaded = self.engine.load_long_list(event.names)
        if self.reference is not None:
            self.reference.load_long_list(event.names)
        return (_LOADED, event.seq, event.op, loaded, None, None, None)

    def _vm_create(self, event: TraceEvent) -> tuple:
        vm = self.registry.vm_create(event.ip).id
        return (_VM_CREATED, event.seq, event.op, vm, None, None, None)

    def _spawn(self, event: TraceEvent) -> tuple:
        pid = self.registry.process_spawn(VmId(event.vm)).pid
        return (_SPAWNED, event.seq, event.op, pid, None, None, None)

    def _create_or_open(self, event: TraceEvent) -> tuple:
        """Run a create or an open through the kernel and return its row:
        the failure's error code, if it failed, then the outcome's fields.
        In dual mode the outcome is compared with the oracle's (see the
        class docstring)."""
        caller = self.registry.process(event.actor)
        name = event.name
        if event.op == "create":
            handle, outcome = self.kernel.create_object(
                caller, name, _category(event.category), _SCOPES[event.scope])
        else:
            handle, outcome = self.kernel.open_object(caller, name, _category(event.category))
        # the outcome's fields, in ``to_dict`` order
        effective_name, route = outcome
        if type(handle) is Handle:
            key = (event.actor, name)
            stack = self._handles.get(key)
            if stack is None:
                self._handles[key] = [handle]
            else:
                stack.append(handle)
            row = (_RESOLVED, event.seq, event.op, effective_name, route._value_,
                   route.principle._value_, None)
        else:
            row = (_REFUSED, event.seq, event.op, handle.code, effective_name, route._value_,
                   route.principle._value_)
        reference = self.reference
        if reference is not None and route is not _VM_GLOBAL and caller.vm.id:
            key = (name, caller.vm.id)
            ref = self._oracle_outcomes.get(key)
            if ref is None:
                ref = self._oracle_outcomes[key] = reference.resolve(name, caller.vm)
            if ref != outcome:
                self._divergences.append({
                    "seq": event.seq,
                    "name": name,
                    "engine": outcome.to_dict(),
                    "reference": ref.to_dict(),
                })
        return row

    def _close(self, event: TraceEvent) -> tuple:
        key = (event.actor, event.name)
        stack = self._handles.get(key)
        if stack is None:
            raise InvalidHandle(f"pid {event.actor} has no open handle for {event.name}")
        handle = stack.pop()
        if not stack:
            del self._handles[key]
        self.kernel.close(handle)
        return (_BARE, event.seq, event.op, None, None, None, None)

    def _send(self, event: TraceEvent) -> tuple:
        sender = self.registry.process(event.actor)
        target = self.registry.process(event.target)
        if self.kernel.send_message(sender, target):
            return (_SENT, event.seq, event.op, "Delivered", "Allow", None, None)
        return (_SENT, event.seq, event.op, "Blocked", "Deny", None, None)

    def _register_window(self, event: TraceEvent) -> tuple:
        self.kernel.register_window(self.registry.process(event.actor), event.class_name)
        return (_BARE, event.seq, event.op, None, None, None, None)

    def _find_window(self, event: TraceEvent) -> tuple:
        caller = self.registry.process(event.actor)
        if self.kernel.find_window(caller, event.class_name) is not None:
            return (_FOUND, event.seq, event.op, True, "Allow", None, None)
        return (_FOUND, event.seq, event.op, False, "Deny", None, None)

    def _remote_thread(self, event: TraceEvent) -> tuple:
        caller = self.registry.process(event.actor)
        target = self.registry.process(event.target)
        if self.kernel.create_remote_thread(caller, target):
            return (_THREAD, event.seq, event.op, "Allow", "SameVm", None, None)
        return (_THREAD, event.seq, event.op, "Deny", "CrossVm", None, None)

    def _set_hook(self, event: TraceEvent) -> tuple:
        caller = self.registry.process(event.actor)
        grant = self.kernel.set_hook(caller, _HOOK_SCOPES[event.hook_scope])
        return (_HOOKED, event.seq, event.op, "Allow", grant.effective_vm.id, grant.narrowed, None)

    def _bind(self, event: TraceEvent) -> tuple:
        caller = self.registry.process(event.actor)
        ip, port = self.kernel.bind_socket(caller, event.ip, event.port).effective
        return (_BOUND, event.seq, event.op, ip, port, None, None)

    def _seal(self, event: TraceEvent) -> tuple:
        # the oracle has no flag, so it is not sealed
        self.engine.seal_host_objects()
        self.seal_snapshot = self.engine.snapshot()
        return (_BARE, event.seq, event.op, None, None, None, None)

    def _check_expect(self, expect: dict, result: dict) -> list[dict]:
        diffs = []
        for key in ("route", "decision", "effective_name"):
            if key in expect:
                actual = result.get(key)
                if actual != expect[key]:
                    diffs.append({"field": key, "expected": expect[key], "actual": actual})
        expected_error = expect.get("error")
        actual_error = result.get("error")
        if actual_error != expected_error:
            diffs.append({"field": "error", "expected": expected_error,
                          "actual": actual_error})
        return diffs


# op -> its handler, a plain function called with the replayer
_HANDLERS = {op: getattr(Replayer, spec.handler) for op, spec in OP_SCHEMA.items()}


def replay(events, dual: bool = False) -> ReplayReport:
    """Replay a validated event list; see :class:`Replayer`."""
    return Replayer(dual=dual).run(events)


# ---------------------------------------------------------------------------
# bundled fixtures
# ---------------------------------------------------------------------------

_PORT = "I_Port"
_PIPE = "II_PseudoFile:NamedPipe"
_SECTION = "III_SharedMemory:Section"
_MUTEX = "IV_Sync:Mutex"
_EVENT = "IV_Sync:Event"

# RPCSS service inventory: object name -> category, grouped by the
# confinement principle that governs it.
RPCSS_ISOLATION = (
    (r"\RPC Control\epmapper", _PORT),
    (r"\RPC Control\OLE30778CF8A8F24282B5F73ADC0B14", _PORT),
    (r"\Device\NamedPipe\epmapper", _PIPE),
    (r"\Device\NamedPipe\Winsock2\CatalogChangeListener-30c-0", _PIPE),
)

RPCSS_GLOBAL = (
    (r"\BaseNamedObjects\Global\RotHintTable", _SECTION),
)

# Concrete host objects plus the control-pipe instance that matches the
# wildcard long-list entry.
RPCSS_HOST_OBJECTS = (
    (r"\RPC Control\DNSResolver", _PORT),
    (r"\RPC Control\ntsvcs", _PORT),
    (r"\Device\NamedPipe\net\NtControlPipe1", _PIPE),
    (r"\Device\NamedPipe\svcsctl", _PIPE),
    (r"\Device\NamedPipe\ntsvcs", _PIPE),
    (r"\Device\NamedPipe\EVENTLOG", _PIPE),
    (r"\BaseNamedObjects\DBWinMutex", _MUTEX),
    (r"\BaseNamedObjects\RasPbFile", _MUTEX),
    (r"\BaseNamedObjects\_R_00000000da_SMem_", _SECTION),
    (r"\BaseNamedObjects\DBWIN_BUFFER", _SECTION),
    (r"\BaseNamedObjects\ScmCreatedEvent", _EVENT),
    (r"\SECURITY\LSA_AUTHENTICATION_INITIALIZED", _EVENT),
)

RPCSS_LONG_LIST = tuple(
    name for name, _ in RPCSS_HOST_OBJECTS
    if name != r"\Device\NamedPipe\net\NtControlPipe1"
) + (r"\Device\NamedPipe\net\NtControlPipe*",)


def _emit(events: list, op: str, **fields) -> None:
    """Append an ``op`` event to ``events``, numbered after the ones before it."""
    events.append(TraceEvent(len(events) + 1, op, **fields))


def fixture_rpcss() -> list[TraceEvent]:
    """The RPCSS inventory scenario.

    A host service process creates the host objects named on the long list;
    a virtualized RPCSS process in vm1 then creates its private and global
    objects and opens every host object, and the table is sealed. Every
    event carries the route its principle dictates.
    """
    events = []
    emit = partial(_emit, events)

    emit("load_long_list", names=list(RPCSS_LONG_LIST))
    emit("vm_create", ip="10.0.0.2")
    emit("spawn", vm=0)   # pid 1: host services
    emit("spawn", vm=1)   # pid 2: virtualized RPCSS

    for name, category in RPCSS_HOST_OBJECTS:
        emit("create", actor=1, name=name, category=category,
             expect={"route": "HostPassthrough", "effective_name": name})

    for name, category in RPCSS_ISOLATION:
        emit("create", actor=2, name=name, category=category,
             expect={"route": "VmPrivate", "effective_name": "\\vm1" + name})

    for name, category in RPCSS_GLOBAL:
        emit("create", actor=2, name=name, category=category, scope="Global",
             expect={"route": "VmGlobal", "effective_name": "\\vm1" + name})
        emit("open", actor=2, name=name, category=category,
             expect={"route": "VmGlobal", "effective_name": "\\vm1" + name})

    for name, category in RPCSS_HOST_OBJECTS:
        emit("open", actor=2, name=name, category=category,
             expect={"route": "HostPassthrough", "effective_name": name})

    emit("seal")
    validate_events(events)
    return events


def fixture_three_iis() -> list[TraceEvent]:
    """Three virtualized web-server instances on one simulated OS.

    Each VM binds port 80 on its own alias IP and builds an identically
    named service namespace; cross-VM opens and messages must fail.
    """
    events = []
    emit = partial(_emit, events)

    ips = ("10.0.0.2", "10.0.0.3", "10.0.0.4")
    service_objects = (
        (r"\RPC Control\epmapper", _PORT),
        (r"\Device\NamedPipe\iisadmin", _PIPE),
        (r"\BaseNamedObjects\IisWebContent", _SECTION),
    )

    emit("load_long_list", names=[])
    for ip in ips:
        emit("vm_create", ip=ip)
    for vm in (1, 2, 3):
        emit("spawn", vm=vm)   # pid == vm number

    for pid in (1, 2, 3):
        emit("bind", actor=pid, ip="0.0.0.0", port=80)
        for name, category in service_objects:
            emit("create", actor=pid, name=name, category=category,
                 expect={"route": "VmPrivate",
                         "effective_name": f"\\vm{pid}" + name})
        emit("create", actor=pid, name=rf"\Device\NamedPipe\site-{pid}",
             category=_PIPE,
             expect={"route": "VmPrivate",
                     "effective_name": f"\\vm{pid}\\Device\\NamedPipe\\site-{pid}"})

    # the shared service names each resolve to the opener's own copy ...
    for pid in (1, 2, 3):
        emit("open", actor=pid, name=r"\Device\NamedPipe\iisadmin",
             category=_PIPE,
             expect={"route": "VmPrivate",
                     "effective_name": f"\\vm{pid}\\Device\\NamedPipe\\iisadmin"})
    # ... while another instance's unique names are unreachable
    for pid in (1, 2, 3):
        for other in (1, 2, 3):
            if other != pid:
                emit("open", actor=pid, name=rf"\Device\NamedPipe\site-{other}",
                     category=_PIPE, expect={"error": "NotFound"})

    # messages stay inside a VM
    emit("send", actor=1, target=1, expect={"decision": "Allow"})
    emit("send", actor=1, target=2, expect={"decision": "Deny"})
    emit("send", actor=2, target=3, expect={"decision": "Deny"})

    validate_events(events)
    return events


# ---------------------------------------------------------------------------
# random traces
# ---------------------------------------------------------------------------

PATTERN_INSTANCES = 2


@dataclass(frozen=True)
class TraceParams:
    vm_count: int = 2
    process_count: int = 4
    name_pool_size: int = 40
    host_fraction: float = 0.3
    global_fraction: float = 0.1
    event_count: int = 200
    seal_position: int = 100
    # wildcard long-list entries, each matched by PATTERN_INSTANCES host objects
    pattern_count: int = 0

    def check(self):
        if self.vm_count < 1 or self.process_count < 1 or self.name_pool_size < 1:
            raise InvalidParams("vm_count, process_count, name_pool_size must be positive")
        if self.pattern_count < 0:
            raise InvalidParams("pattern_count must be non-negative")
        if not 0.0 <= self.host_fraction <= 1.0 or not 0.0 <= self.global_fraction <= 1.0:
            raise InvalidParams("fractions must lie in [0, 1]")
        if self.event_count < 0 or not 0 <= self.seal_position <= self.event_count:
            raise InvalidParams("need 0 <= seal_position <= event_count")


def generate_random_trace(seed: int, params: TraceParams = TraceParams(),
                          constrained: bool = False) -> list[TraceEvent]:
    """Deterministic random workload over a shared name pool.

    ``constrained`` keeps the trace inside the regime where the optimized
    engine provably matches the reference oracle: global-scoped creates
    avoid host names, and after the seal only host names already touched
    before it may be used.

    ``params.pattern_count`` wildcard entries ``\\srv\\pipe-<k>-*`` join the
    long list, and the names ``\\srv\\pipe-<k>-<i>`` that match them join
    the host names at the end of the pool; with none, the trace and its
    random draws are as without the parameter.
    """
    params.check()
    rng = random.Random(seed)
    host_count = round(params.name_pool_size * params.host_fraction)
    host_names = [rf"\srv\host-{i:04d}" for i in range(host_count)]
    private_names = [rf"\app\obj-{i:04d}" for i in range(params.name_pool_size - host_count)]
    patterns = [rf"\srv\pipe-{k:04d}-*" for k in range(params.pattern_count)]
    pattern_names = [p[:-1] + str(i) for p in patterns for i in range(1, PATTERN_INSTANCES + 1)]
    pool = host_names + private_names + pattern_names
    categories = (_PORT, _PIPE, _SECTION, _MUTEX)
    category_of = {name: categories[i % len(categories)] for i, name in enumerate(pool)}
    host_set = set(host_names + pattern_names)
    if constrained and not private_names and params.seal_position == 0:
        raise InvalidParams("constrained mode needs private names or pre-seal events")

    events = []
    emit = partial(_emit, events)

    emit("load_long_list", names=host_names + patterns)
    for i in range(params.vm_count):
        emit("vm_create", ip=f"10.0.0.{2 + i}")
    emit("spawn", vm=0)   # pid 1: host service process
    vm_pids = []
    for i in range(params.process_count):
        emit("spawn", vm=(i % params.vm_count) + 1)
        vm_pids.append(2 + i)
    for name in host_names + pattern_names:
        emit("create", actor=1, name=name, category=category_of[name])

    touched_host: set[str] = set()
    sealed = False
    for index in range(params.event_count):
        if index == params.seal_position:
            emit("seal")
            sealed = True
        actor = rng.choice(vm_pids)
        is_create = rng.random() < 0.5
        global_create = is_create and rng.random() < params.global_fraction
        if constrained and global_create and not private_names:
            global_create = False

        candidates = pool
        if constrained:
            if global_create:
                candidates = private_names
            elif sealed:
                candidates = sorted(touched_host) + private_names
        name = rng.choice(candidates)

        if not sealed and name in host_set and not (is_create and global_create):
            touched_host.add(name)

        if is_create:
            emit("create", actor=actor, name=name, category=category_of[name],
                 scope="Global" if global_create else "Local")
        else:
            emit("open", actor=actor, name=name, category=category_of[name])
    if params.seal_position == params.event_count:
        emit("seal")

    validate_events(events)
    return events

