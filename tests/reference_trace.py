"""The reference check of trace events: a field-by-field walk of
``OP_SCHEMA``, independent of the functions that ``trace`` generates from it.

``test_trace.py`` compares ``parse_trace`` and ``validate_events`` with
``reference_parse`` and ``reference_validate``, as the engine is compared
with ``ReferenceEngine``: the same events, or an error of the same type, on
the same line or seq, with the same message. The walk reads each op's fields
and each field's type and rule from the schema; the order of the checks
and the wording of every error are stated here.
"""

import json

from ipcconfine.errors import ParseError, ValidationError
from ipcconfine.trace import OP_SCHEMA, TraceEvent, _expect_error

KNOWN_FIELDS = frozenset(TraceEvent.__dataclass_fields__)
PAYLOAD_FIELDS = tuple(f for f in TraceEvent.__dataclass_fields__
                       if f not in ("seq", "op", "expect"))


def event_from_line(data: dict) -> TraceEvent:
    """The event a decoded line makes before any field is checked, each
    field holding its JSON value. An unknown field is a ValueError, a
    missing ``seq`` or ``op`` the TypeError of the ``TraceEvent`` call."""
    if not KNOWN_FIELDS.issuperset(data):
        raise ValueError(f"unknown fields: {sorted(set(data) - KNOWN_FIELDS)}")
    return TraceEvent(**data)


def reference_parse(text: str) -> list[TraceEvent]:
    """Decode every non-blank line with ``json.loads`` and make its event,
    then walk the events with ``reference_validate``."""
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.isspace():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"bad JSON: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            raise ParseError(lineno, f"bad JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ParseError(lineno, "event must be a JSON object")
        try:
            events.append(event_from_line(data))
        except (TypeError, ValueError) as exc:
            raise ParseError(lineno, str(exc)) from None
    reference_validate(events)
    return events


def _check(seq, name: str, kind, value) -> None:
    if type(value) is not kind.type:
        raise ValidationError(seq, f"{name} must be of type {kind.type.__name__}, "
                                   f"got {type(value).__name__}")
    if kind.rule is not None:
        error = kind.rule(value)
        if error is not None:
            raise ValidationError(seq, f"{name}: {error}")


def reference_validate(events) -> None:
    """Walk each event: ``seq``, the op, each required field, the fields the
    op does not take, each optional field, then ``expect``."""
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
        for name, kind in spec.required:
            value = getattr(event, name)
            if value is None:
                missing = sorted(f for f, _ in spec.required if getattr(event, f) is None)
                raise ValidationError(seq, f"{op} requires {missing}")
            _check(seq, name, kind, value)
        extra = sorted(f for f in PAYLOAD_FIELDS
                       if f not in spec.fields and getattr(event, f) is not None)
        if extra:
            raise ValidationError(seq, f"{op} does not take {extra}")
        for name, kind in spec.optional:
            value = getattr(event, name)
            if value is not None:
                _check(seq, name, kind, value)
        if event.expect is not None:
            error = _expect_error(event.expect)
            if error is not None:
                raise ValidationError(seq, error)
