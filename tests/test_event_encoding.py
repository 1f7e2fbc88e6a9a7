"""Event encoding equivalence (`repro.obs.events.TraceEvent.to_dict`).

`to_dict` serialises from a per-class field plan built once per event
class. These tests pin its output, byte for byte through `to_json`, to
the plain `dataclasses.fields` formulation kept here as the oracle, for
every registered event class and for subclasses the registry never saw.
"""

from __future__ import annotations

import dataclasses
import json
from typing import ClassVar, List

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    PROVENANCE_FIELDS,
    DayStartEvent,
    TraceEvent,
    event_from_dict,
)


def oracle_json(event: TraceEvent) -> str:
    """The per-event `dataclasses.fields` walk `to_dict` replaced."""
    out = {"kind": event.kind}
    omit = event.OMIT_EMPTY_FIELDS
    for f in dataclasses.fields(event):
        value = getattr(event, f.name)
        if not value and (f.name in PROVENANCE_FIELDS or f.name in omit):
            continue
        out[f.name] = value
    return json.dumps(out, separators=(",", ":"))


def _set(value):
    """A non-empty value of the same type as a field's default."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 3
    if isinstance(value, float):
        return value + 1.25
    if isinstance(value, str):
        return value + "n7,n8"
    raise TypeError(type(value))


def _empty(value):
    return type(value)()


def variants(cls) -> List[TraceEvent]:
    """Default, with provenance ids, and each omit-when-empty field both
    set and empty (on top of every other field set)."""
    out = [cls(), cls(t=12.5, eid=41, span_id=7, cause_id=40)]
    defaults = {f.name: getattr(cls(), f.name) for f in dataclasses.fields(cls)}
    full = {name: _set(v) for name, v in defaults.items()}
    out.append(cls(**full))
    for name in cls.OMIT_EMPTY_FIELDS:
        out.append(cls(**{**full, name: _set(defaults[name])}))
        out.append(cls(**{**full, name: _empty(defaults[name])}))
    return out


@pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
def test_every_event_class_encodes_like_the_oracle(kind):
    cls = EVENT_TYPES[kind]
    for event in variants(cls):
        assert event.to_json() == oracle_json(event)
        assert event_from_dict(event.to_dict()).to_json() == event.to_json()


def test_omit_empty_fields_are_exercised():
    # Guards the variants above: some registered class declares a field
    # omitted when empty, so the set/empty cases actually run.
    assert any(cls.OMIT_EMPTY_FIELDS for cls in EVENT_TYPES.values())


def test_subclass_of_a_subclass_gets_its_own_plan():
    # No `kind`: these classes stay out of EVENT_TYPES and inherit the
    # parent's kind, so only the plan tells their encodings apart.
    @dataclasses.dataclass
    class Parent(DayStartEvent):
        extra: int = 0

    @dataclasses.dataclass
    class Child(Parent):
        note: str = ""
        OMIT_EMPTY_FIELDS: ClassVar[tuple] = ("note",)

    # Encode the ancestors first, so any plan they cache exists before
    # the child's first encoding.
    ordered = [DayStartEvent(day_index=2), Parent(day_index=2, extra=5)]
    ordered += [Child(day_index=2, extra=5, note="why"), Child(day_index=2)]
    for event in ordered:
        assert event.to_json() == oracle_json(event)
    assert '"note":"why"' in ordered[2].to_json()
    assert "note" not in ordered[3].to_json()
    assert '"extra":5' in ordered[1].to_json()
    assert "extra" not in ordered[0].to_json()



@pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
def test_shared_encoder_matches_json_dumps(kind):
    # to_json reuses one module-level encoder; its lines must be the
    # ones json.dumps builds a fresh encoder for, including non-ASCII
    # text and non-finite floats.
    cls = EVENT_TYPES[kind]
    events = variants(cls)
    defaults = {f.name: getattr(cls(), f.name) for f in dataclasses.fields(cls)}
    events.append(
        cls(
            **{
                name: "nœud-µ\n\"q\"" if isinstance(v, str) else v
                for name, v in defaults.items()
            }
        )
    )
    events.append(cls(t=float("inf")))
    events.append(cls(t=float("nan")))
    for event in events:
        assert event.to_json() == json.dumps(event.to_dict(), separators=(",", ":"))
