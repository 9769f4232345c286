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

A parsed event is a :class:`TraceEvent`, a slotted, mutable record: it has no
per-instance ``__dict__``, and it is neither frozen nor hashable. Nothing in
parsing, validation or replay assigns to an event after it is built.
"""

from __future__ import annotations

import concurrent.futures
import json
import json.scanner
import logging
import random
from dataclasses import dataclass, field, fields
from functools import lru_cache
from operator import attrgetter

from .engine import (
    ConfinementEngine,
    EngineCounters,
    EngineSnapshot,
    ReferenceEngine,
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
from .kernel import Delivery, HookScope, SimKernel
from .model import (
    TAG_START,
    Intent,
    IpcCategory,
    ProcessRef,
    Scope,
    VmId,
    VmRegistry,
    check_object_name,
    check_unreserved,
)

logger = logging.getLogger(__name__)

__all__ = [
    "TraceEvent",
    "ReplayReport",
    "Replayer",
    "parse_trace",
    "serialize_trace",
    "validate_events",
    "replay",
    "stress_replay",
    "fixture_rpcss",
    "fixture_three_iis",
    "TraceParams",
    "generate_random_trace",
    "first_post_seal_host_touches",
    "RPCSS_LONG_LIST",
    "RPCSS_ISOLATION",
    "RPCSS_GLOBAL",
    "RPCSS_HOST_OBJECTS",
]


@dataclass(slots=True)
class TraceEvent:
    """One trace event: ``seq``, ``op`` and the op's payload fields.

    A slotted, mutable record: building one makes one slot store per field
    and no per-instance ``__dict__``. Events are therefore not hashable, and
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
    names: tuple[str, ...] | None = None
    category: str | None = None
    scope: str | None = None
    target: int | None = None
    subtype: str | None = None
    payload: str | None = None
    class_name: str | None = None
    hook_scope: str | None = None
    expect: dict | None = None

    def to_dict(self) -> dict:
        out = {}
        for name in _EVENT_FIELDS:
            value = getattr(self, name)
            if value is None:
                continue
            if name == "names":
                value = list(value)
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        if type(data.get("names")) is list:
            data = {**data, "names": tuple(data["names"])}
        try:
            return cls(**data)
        except TypeError:
            # the constructor takes field names only; the field check runs
            # when it fails, not before each event
            if not _KNOWN_FIELDS.issuperset(data):
                raise ValueError(f"unknown fields: {sorted(set(data) - _KNOWN_FIELDS)}") from None
            raise


_EVENT_FIELDS = tuple(f.name for f in fields(TraceEvent))
_KNOWN_FIELDS = frozenset(_EVENT_FIELDS)
_PAYLOAD_FIELDS = tuple(f for f in _EVENT_FIELDS if f not in ("seq", "op", "expect"))


class FieldType:
    """A payload field's exact type and the rule its value must meet.

    The type is matched exactly, so ``True`` is not an ``int``. ``rule``
    takes a value of that type and returns an error message, or None.
    ``label`` names the type in error messages, in trace (JSON) terms.
    """

    __slots__ = ("type", "rule", "label")

    def __init__(self, type_: type, rule=None, label: str | None = None):
        self.type = type_
        self.rule = rule
        self.label = label or type_.__name__

    def check(self, seq: int, field_name: str, value) -> None:
        if type(value) is not self.type:
            raise ValidationError(seq, f"{field_name} must be of type {self.label}, "
                                       f"got {type(value).__name__}")
        if self.rule is not None:
            error = self.rule(value)
            if error is not None:
                raise ValidationError(seq, f"{field_name}: {error}")


class OpSpec:
    """One trace op: the Replayer method that runs it and its payload fields,
    each mapped to its :class:`FieldType`."""

    __slots__ = ("handler", "required", "optional", "fields", "_absent", "_get_absent")

    def __init__(self, handler: str, required: dict, optional: dict | None = None):
        self.handler = handler
        self.required = tuple(required.items())
        self.optional = tuple((optional or {}).items())
        self.fields = frozenset(required) | frozenset(optional or ())
        # the payload fields this op must leave unset; every op leaves at
        # least two, so the getter returns a tuple
        self._absent = tuple(f for f in _PAYLOAD_FIELDS if f not in self.fields)
        self._get_absent = attrgetter(*self._absent)

    def validate(self, event: "TraceEvent") -> None:
        seq = event.seq
        for name, kind in self.required:
            value = getattr(event, name)
            if value is None:
                missing = sorted(f for f, _ in self.required if getattr(event, f) is None)
                raise ValidationError(seq, f"{event.op} requires {missing}")
            kind.check(seq, name, value)
        if self._get_absent(event).count(None) != len(self._absent):
            extra = sorted(f for f in self._absent if getattr(event, f) is not None)
            raise ValidationError(seq, f"{event.op} does not take {extra}")
        for name, kind in self.optional:
            value = getattr(event, name)
            if value is not None:
                kind.check(seq, name, value)


# One parse per distinct category string; validation warms it for replay.
_category = lru_cache(maxsize=64)(IpcCategory.parse)

_SCOPES = {None: Scope.LOCAL, **{s.value: s for s in Scope}}
_HOOK_SCOPES = {h.value: h for h in HookScope}


def _name_error(name: str, allow_pattern: bool = False) -> str | None:
    try:
        check_object_name(name, allow_pattern=allow_pattern)
        if name.startswith(TAG_START):
            check_unreserved(name)
    except InvalidName as exc:
        return str(exc)
    return None


def _names_error(names: tuple) -> str | None:
    for name in names:
        error = _name_error(name, allow_pattern=True)
        if error is not None:
            return error
    return None


def _category_error(text: str) -> str | None:
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
TEXT = FieldType(str)
# A trace repeats a few hundred names thousands of times: each distinct name
# is decided once. ``NAMES`` holds raw JSON values, not all hashable.
NAME = FieldType(str, lru_cache(maxsize=4096)(_name_error))
NAMES = FieldType(tuple, _names_error, "list")  # held as a tuple once parsed
CATEGORY = FieldType(str, _category_error)
SCOPE = FieldType(str, _one_of({s.value for s in Scope}))
HOOK_SCOPE = FieldType(str, _one_of(set(_HOOK_SCOPES)))

# The trace schema: every op, its handler and its payload fields. Parsing,
# validation and replay dispatch all read this table. ``seq``, ``op`` and
# ``expect`` are common to every op.
OP_SCHEMA = {
    "load_long_list": OpSpec("_load_long_list", {"names": NAMES}),
    "vm_create": OpSpec("_vm_create", {"ip": TEXT}),
    "spawn": OpSpec("_spawn", {"vm": VM}),
    "create": OpSpec("_create", {"actor": PID, "name": NAME, "category": CATEGORY},
                     {"scope": SCOPE}),
    "open": OpSpec("_open", {"actor": PID, "name": NAME, "category": CATEGORY}),
    "close": OpSpec("_close", {"actor": PID, "name": NAME}),
    "send": OpSpec("_send", {"actor": PID, "target": PID},
                   {"subtype": TEXT, "payload": TEXT}),
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


def serialize_trace(events) -> str:
    return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in events)


# The C scanner behind ``json.loads``, bound once: ``_scan_once(line, 0)``
# decodes the value that starts the line and returns it with its end index.
_scan_once = json.scanner.make_scanner(json.JSONDecoder())

# Whole-text decode. The non-blank lines are joined into one JSON array,
# with the string "\u2028" (written as that escape, so an ASCII text stays
# ASCII) as an item between each two lines. ``str.splitlines`` splits at a
# raw U+2028, so no line holds one, and a text without the escape decodes
# to no string that holds one: every such string in the array is a
# separator. A value that runs past its line's end takes the separator
# after it into its own nesting, so when every odd item of the array is a
# separator, each even item was decoded from one line alone.
_BREAK = "\u2028"
_BREAK_ESCAPE = "\\u2028"
_SEPARATOR = ',"' + _BREAK_ESCAPE + '",'


def parse_trace(text: str) -> list[TraceEvent]:
    """Parse and validate a JSONL trace.

    The text is decoded by one scanner call when that gives one event per
    non-blank line (see ``_decode_whole``). Otherwise each line is decoded
    by one scanner call when the value spans the whole line; anything else
    (surrounding whitespace, a BOM, trailing data, bad JSON) is decoded by
    ``json.loads``, so results and errors are its own.
    """
    events = _decode_whole(text)
    if events is None:
        events = _decode_lines(text)
    validate_events(events)
    return events


def _decode_whole(text: str) -> list[TraceEvent] | None:
    """The events of every non-blank line from one scanner call, or None if
    any line is not one JSON object that makes an event."""
    if _BREAK_ESCAPE in text:
        return None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    doc = "[" + _SEPARATOR.join(lines) + "]"
    try:
        items, end = _scan_once(doc, 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    if (end != len(doc) or len(items) != 2 * len(lines) - 1
            or items[1::2].count(_BREAK) != len(lines) - 1):
        return None
    values = items[::2]
    if not all(type(data) is dict for data in values):
        return None
    from_dict = TraceEvent.from_dict
    try:
        return [from_dict(data) for data in values]
    except (TypeError, ValueError):
        return None


def _decode_lines(text: str) -> list[TraceEvent]:
    """The events of every non-blank line, one line at a time; the first
    line that is not one JSON object that makes an event is a ParseError."""
    events = []
    scan = _scan_once
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data, end = scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            data = _loads(lineno, line)
        if not isinstance(data, dict):
            raise ParseError(lineno, "event must be a JSON object")
        try:
            events.append(TraceEvent.from_dict(data))
        except (TypeError, ValueError) as exc:
            raise ParseError(lineno, str(exc)) from None
    return events


def _loads(lineno: int, line: str):
    """Decode one line with ``json.loads``; a failure is a ParseError."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(lineno, f"bad JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # e.g. an integer too long to convert, or nesting too deep
        raise ParseError(lineno, f"bad JSON: {exc}") from None


def validate_events(events) -> None:
    last_seq = 0
    for event in events:
        seq = event.seq
        if type(seq) is not int or seq <= last_seq:
            raise ValidationError(seq if type(seq) is int else -1,
                                  f"seq must be a strictly increasing positive integer (after {last_seq})")
        last_seq = seq
        op = event.op
        spec = OP_SCHEMA.get(op) if type(op) is str else None
        if spec is None:
            raise ValidationError(seq, f"unknown op {op!r}")
        spec.validate(event)
        if event.expect is not None:
            _validate_expect(seq, event.expect)


def _validate_expect(seq: int, expect) -> None:
    if not isinstance(expect, dict):
        raise ValidationError(seq, "expect must be an object")
    for key, value in expect.items():
        if key not in _EXPECT:
            unknown = sorted(map(str, set(expect) - set(_EXPECT)))
            raise ValidationError(seq, f"unknown expect keys {unknown}")
        if value is None:
            continue
        if type(value) is not str:
            raise ValidationError(seq, f"expect.{key} must be a string or null")
        allowed = _EXPECT[key]
        if allowed is not None and value not in allowed:
            raise ValidationError(seq, f"bad expect.{key} {value!r}")


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


class Replayer:
    """Executes a validated event list against a fresh engine + kernel.

    In dual mode the reference oracle is driven in lockstep over every
    name resolution and any outcome divergence is recorded. Replay is
    deterministic: identical input yields identical reports.
    """

    def __init__(self, dual: bool = False):
        self.dual = dual
        self.registry = VmRegistry()
        self.engine = ConfinementEngine()
        self.kernel = SimKernel(self.registry, self.engine)
        self.reference = ReferenceEngine() if dual else None
        self.outcomes: list[dict] = []
        self.seal_snapshot: EngineSnapshot | None = None
        # (actor pid, original name) -> stack of open handles
        self._handles: dict[tuple[int, str], list] = {}
        self._divergences: list[dict] = []
        # plain functions, not bound methods: a bound method held here would
        # put the replayer, with its kernel, engines and outcomes, in a
        # reference cycle that only the cyclic GC frees
        self._handlers = {op: getattr(Replayer, spec.handler) for op, spec in OP_SCHEMA.items()}

    def run(self, events) -> ReplayReport:
        report = ReplayReport()
        for event in events:
            result = self._execute(event)
            self.outcomes.append(result)
            report.events_run += 1
            if event.expect is not None:
                diffs = self._check_expect(event.expect, result)
                if diffs:
                    report.assertions_failed.append({"seq": event.seq, "diffs": diffs})
                else:
                    report.assertions_passed += 1
        report.counters = self.engine.counters.copy()
        report.divergences = list(self._divergences)
        if not report.counters.conservation_holds():
            raise AssertionError(f"counter conservation violated: {report.counters}")
        return report

    def _execute(self, event: TraceEvent) -> dict:
        result = {"seq": event.seq, "op": event.op}
        handler = self._handlers.get(event.op)
        if handler is None:  # pragma: no cover - validation rejects unknown ops
            raise ReplayError(event.seq, f"unknown op {event.op!r}")
        try:
            handler(self, event, result)
        except ConfinementError as exc:
            result["error"] = exc.code
            # a KernelError is a normal, assertable outcome of an op contract
            # (create and open record theirs in ``_failed``); any other error
            # is a precondition violation and aborts the run unless the event
            # expects it
            if isinstance(exc, KernelError):
                if exc.outcome is not None:
                    _put_outcome(result, exc.outcome)
            elif (event.expect or {}).get("error") is None:
                raise ReplayError(event.seq, f"{exc.code}: {exc}") from exc
        return result

    # -- one handler per op, named in OP_SCHEMA -------------------------------

    def _load_long_list(self, event: TraceEvent, result: dict) -> None:
        result["loaded"] = self.engine.load_long_list(event.names)
        if self.reference is not None:
            self.reference.load_long_list(event.names)

    def _vm_create(self, event: TraceEvent, result: dict) -> None:
        result["vm"] = self.registry.vm_create(event.ip).id

    def _spawn(self, event: TraceEvent, result: dict) -> None:
        result["pid"] = self.registry.process_spawn(VmId(event.vm)).pid

    # A create or open derives its arguments once, for the kernel and, in
    # dual mode, for the oracle. A KernelError from the kernel is caught once,
    # here, and recorded by ``_failed``; the handler then returns normally.

    def _create(self, event: TraceEvent, result: dict) -> None:
        caller = self.registry.process(event.actor)
        category, scope = _category(event.category), _SCOPES[event.scope]
        try:
            handle = self.kernel.create_object(caller, event.name, category, scope)
        except KernelError as exc:
            self._failed(event, result, exc, caller, category, Intent.CREATE, scope)
            return
        self._opened(event, result, handle)
        self._compare_reference(event, handle.outcome, caller, category, Intent.CREATE, scope)

    def _open(self, event: TraceEvent, result: dict) -> None:
        caller = self.registry.process(event.actor)
        category = _category(event.category)
        try:
            handle = self.kernel.open_object(caller, event.name, category)
        except KernelError as exc:
            self._failed(event, result, exc, caller, category, Intent.OPEN, Scope.LOCAL)
            return
        self._opened(event, result, handle)
        self._compare_reference(event, handle.outcome, caller, category, Intent.OPEN, Scope.LOCAL)

    def _opened(self, event: TraceEvent, result: dict, handle) -> None:
        key = (event.actor, event.name)
        stack = self._handles.get(key)
        if stack is None:
            self._handles[key] = [handle]
        else:
            stack.append(handle)
        _put_outcome(result, handle.outcome)

    def _failed(self, event: TraceEvent, result: dict, exc: KernelError, caller: ProcessRef,
                category: IpcCategory, intent: Intent, scope: Scope) -> None:
        """Record a create or open that ended in a KernelError, as ``_execute``
        records one from any other op: the error code, then the outcome's
        fields; the outcome is compared with the oracle's as well."""
        result["error"] = exc.code
        outcome = exc.outcome
        if outcome is not None:
            _put_outcome(result, outcome)
        self._compare_reference(event, outcome, caller, category, intent, scope)

    def _close(self, event: TraceEvent, result: dict) -> None:
        stack = self._handles.get((event.actor, event.name)) or []
        if not stack:
            raise InvalidHandle(f"pid {event.actor} has no open handle for {event.name}")
        self.kernel.close(stack.pop())

    def _send(self, event: TraceEvent, result: dict) -> None:
        sender = self.registry.process(event.actor)
        target = self.registry.process(event.target)
        payload = (event.payload or "").encode()
        outcome = self.kernel.send_message(sender, target,
                                           event.subtype or "WindowsMessage", payload)
        result["delivery"] = outcome.value
        result["decision"] = "Allow" if outcome is Delivery.DELIVERED else "Deny"

    def _register_window(self, event: TraceEvent, result: dict) -> None:
        self.kernel.register_window(self.registry.process(event.actor), event.class_name)

    def _find_window(self, event: TraceEvent, result: dict) -> None:
        caller = self.registry.process(event.actor)
        found = self.kernel.find_window(caller, event.class_name)
        result["found"] = found is not None
        result["decision"] = "Allow" if found is not None else "Deny"

    def _remote_thread(self, event: TraceEvent, result: dict) -> None:
        caller = self.registry.process(event.actor)
        target = self.registry.process(event.target)
        verdict = self.kernel.create_remote_thread(caller, target)
        result["decision"] = verdict.decision.value
        result["reason"] = verdict.reason

    def _set_hook(self, event: TraceEvent, result: dict) -> None:
        caller = self.registry.process(event.actor)
        grant = self.kernel.set_hook(caller, _HOOK_SCOPES[event.hook_scope])
        result["decision"] = "Allow"
        result["effective_vm"] = grant.effective_vm.id
        result["narrowed"] = grant.narrowed

    def _bind(self, event: TraceEvent, result: dict) -> None:
        caller = self.registry.process(event.actor)
        binding = self.kernel.bind_socket(caller, event.ip, event.port)
        result["effective_ip"], result["effective_port"] = binding.effective

    def _seal(self, event: TraceEvent, result: dict) -> None:
        self.engine.seal_host_objects()
        if self.reference is not None:
            self.reference.seal_host_objects()
        self.seal_snapshot = self.engine.snapshot()

    def _compare_reference(self, event: TraceEvent, outcome, caller: ProcessRef,
                           category: IpcCategory, intent: Intent, scope: Scope) -> None:
        if self.reference is None or outcome is None:
            return
        ref = self.reference.resolve(caller, event.name, category, intent, scope)
        if ref != outcome:
            self._divergences.append({
                "seq": event.seq,
                "name": event.name,
                "engine": outcome.to_dict(),
                "reference": ref.to_dict(),
            })

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


def _put_outcome(result: dict, outcome) -> None:
    """Write an outcome's fields into an event result, in ``to_dict`` order."""
    name, route, principle = outcome
    result["effective_name"] = name
    result["route"] = route._value_
    result["principle"] = principle._value_


def replay(events, dual: bool = False) -> ReplayReport:
    """Replay a validated event list; see :class:`Replayer`."""
    return Replayer(dual=dual).run(events)


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


def fixture_rpcss() -> list[TraceEvent]:
    """The RPCSS inventory scenario.

    A host service process creates the host objects named on the long list;
    a virtualized RPCSS process in vm1 then creates its private and global
    objects and opens every host object, and the table is sealed. Every
    event carries the route its principle dictates.
    """
    events = []
    seq = 0

    def emit(op, **kwargs):
        nonlocal seq
        seq += 1
        events.append(TraceEvent(seq=seq, op=op, **kwargs))

    emit("load_long_list", names=RPCSS_LONG_LIST)
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
    seq = 0

    def emit(op, **kwargs):
        nonlocal seq
        seq += 1
        events.append(TraceEvent(seq=seq, op=op, **kwargs))

    ips = ("10.0.0.2", "10.0.0.3", "10.0.0.4")
    service_objects = (
        (r"\RPC Control\epmapper", _PORT),
        (r"\Device\NamedPipe\iisadmin", _PIPE),
        (r"\BaseNamedObjects\IisWebContent", _SECTION),
    )

    emit("load_long_list", names=())
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
    patterns = tuple(rf"\srv\pipe-{k:04d}-*" for k in range(params.pattern_count))
    pattern_names = [p[:-1] + str(i) for p in patterns for i in range(1, PATTERN_INSTANCES + 1)]
    pool = host_names + private_names + pattern_names
    categories = (_PORT, _PIPE, _SECTION, _MUTEX)
    category_of = {name: categories[i % len(categories)] for i, name in enumerate(pool)}
    host_set = set(host_names + pattern_names)
    if constrained and not private_names and params.seal_position == 0:
        raise InvalidParams("constrained mode needs private names or pre-seal events")

    events = []
    seq = 0

    def emit(op, **kwargs):
        nonlocal seq
        seq += 1
        events.append(TraceEvent(seq=seq, op=op, **kwargs))

    emit("load_long_list", names=tuple(host_names) + patterns)
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


def first_post_seal_host_touches(events) -> set[str]:
    """Names the engine confines by step (e): listed host objects it
    renames after the seal.

    This is exactly where the engine and the full-scan oracle disagree. The
    two keep identical global-object tables, so on every other step they
    decide alike; a name the engine's long list holds is renamed
    (``VmPrivate``) only by step (e), while the oracle, with no flag, passes
    it through. The events are replayed once in single mode, so a trace the
    replay rejects raises as :func:`replay` would.
    """
    replayer = Replayer()
    replayer.run(events)
    listed = replayer.engine._host.long_contains
    return {event.name for event, result in zip(events, replayer.outcomes)
            if result.get("route") == Route.VM_PRIVATE.value and listed(event.name)}
