"""Worker-side trace capture and parent-side replay for pooled campaigns.

A campaign cell running inside a ``ProcessPoolExecutor`` worker has its
own process-local :data:`~repro.obs.bus.BUS` — events it emits never
reach the parent's sinks on their own. Capture-and-ship fans them in,
so a traced campaign's one trace file is its whole record:

- :func:`run_captured` wraps a cell's execution in the worker. It
  enables the worker-local observability singletons for exactly the
  duration of the cell (worker processes are *reused* across cells, so
  per-cell setup/teardown is mandatory) at the parent's telemetry tier,
  buffers every bus event in a bounded :class:`CaptureSink`, and
  returns a picklable :class:`CellCapture` next to the cell result.
- :func:`replay_capture` re-emits a shipped capture on the parent bus
  with fresh parent event ids, remapping the worker-local provenance
  ids (``eid``/``cause_id``/``span_id``) through the same table so
  causal chains survive the process hop, and parenting the worker's
  top-level spans (and span-less events) under the parent's
  ``campaign_cell`` span. The result is one unified trace whose
  validator (:func:`~repro.obs.provenance.validate_trace`) cannot tell
  fan-out cells from inline ones.

The capture buffer keeps the *first* :data:`DEFAULT_CAPTURE_MAXLEN`
events (head-keep) rather than the last: the head contains the
``trace_meta``/``run_start`` header that resets the trace validator's
run clock, plus the span starts later events reference. Dropped-tail
counts are reported on the capture so truncation is visible, and
:func:`replay_capture` skips ``span_end`` events whose start fell past
the cap so the trace never contains an unmatched span end.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.alerts import ALERTS, default_rules
from repro.obs.bus import BUS
from repro.obs.events import TraceEvent, event_from_dict
from repro.obs.metrics import REGISTRY
from repro.obs.sinks import EventSink
from repro.obs.spans import SPANS
from repro.obs.telemetry import TELEMETRY

#: Per-cell event cap. A 3-day cell at dt 60 s emits one battery frame
#: per step (~4.3k) plus its control events; 64k covers it with wide
#: headroom while bounding a runaway cell to ~25 MB of pickled events.
DEFAULT_CAPTURE_MAXLEN = 65536


def sanitize_forked_worker() -> None:
    """Drop observability state inherited across a ``fork``.

    POSIX process pools fork workers from the parent mid-campaign, so a
    worker starts with the parent's attached sinks — including a JSONL
    sink whose file descriptor is *shared* with the parent and whose
    buffered, not-yet-flushed lines were copied into the child. Left
    alone, the worker would interleave its events directly into the
    parent's trace file and re-flush the copied buffer (duplicating
    lines). Point the inherited descriptor at ``/dev/null`` (fork copies
    the fd table, so the parent's own descriptor is untouched), detach
    every sink, and reset the singletons; the worker then runs
    observability-silent until :func:`run_captured` builds the per-cell
    state it actually wants. Used as the pool's worker ``initializer``.
    """
    for sink in BUS.sinks:
        fh = getattr(sink, "_fh", None)
        if fh is None:
            continue
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, fh.fileno())
            finally:
                os.close(devnull)
        except (OSError, ValueError):
            pass
    BUS.clear_sinks()
    REGISTRY.reset()
    REGISTRY.enabled = False
    ALERTS.reset()
    ALERTS.enabled = False
    SPANS.reset()


class CaptureSink(EventSink):
    """Bounded head-keep event buffer (see module docstring for why)."""

    def __init__(self, maxlen: int = DEFAULT_CAPTURE_MAXLEN) -> None:
        self.maxlen = maxlen
        self.events: List[TraceEvent] = []
        self.n_seen = 0
        self.n_dropped = 0

    def emit(self, event: TraceEvent) -> None:
        self.n_seen += 1
        if len(self.events) < self.maxlen:
            self.events.append(event)
        else:
            self.n_dropped += 1


@dataclass
class CellCapture:
    """Everything a worker cell ships back besides its result.

    ``events`` are serialised dictionaries (``TraceEvent.to_dict`` plus
    the provenance ids) — dicts pickle leaner than dataclass instances
    and decouple the pool protocol from the event class registry.
    """

    events: List[Dict[str, Any]] = field(default_factory=list)
    n_seen: int = 0
    n_dropped: int = 0
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def truncated(self) -> bool:
        return self.n_dropped > 0


def run_captured(
    fn: Callable[[], Any],
    telemetry: str,
) -> Tuple[Any, Optional[str], CellCapture]:
    """Run ``fn`` in this (worker) process with full capture around it.

    ``telemetry`` is the parent's tier *spec string* (see
    :mod:`repro.obs.telemetry`), so the parent's ``--telemetry`` choice
    governs worker cells too.

    Returns ``(result, error, capture)`` where exactly one of
    ``result``/``error`` is meaningful: exceptions are caught and
    stringified so the partial capture still travels back for the
    parent to replay before retrying. The worker-local singletons
    (BUS sinks, REGISTRY, ALERTS, TELEMETRY) are set up before and
    restored after *every* cell, because pool workers are reused.
    """
    sink = CaptureSink()

    prev_registry_enabled = REGISTRY.enabled
    prev_alerts_enabled = ALERTS.enabled
    prev_alerts_bus = ALERTS.bus
    prev_telemetry = TELEMETRY.policy.spec()

    BUS.add_sink(sink)
    TELEMETRY.set_policy(telemetry)
    REGISTRY.reset()
    REGISTRY.enabled = True
    if not ALERTS.rules:
        for rule in default_rules():
            ALERTS.add_rule(rule)
    ALERTS.reset()
    ALERTS.bus = BUS
    ALERTS.enabled = True

    result: Any = None
    error: Optional[str] = None
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - shipped back as data
        error = f"{type(exc).__name__}: {exc}"
    finally:
        BUS.remove_sink(sink)
        metrics = REGISTRY.snapshot()
        REGISTRY.reset()
        REGISTRY.enabled = prev_registry_enabled
        ALERTS.reset()
        ALERTS.enabled = prev_alerts_enabled
        ALERTS.bus = prev_alerts_bus
        TELEMETRY.set_policy(prev_telemetry)

    capture = CellCapture(
        events=[_serialize(e) for e in sink.events],
        n_seen=sink.n_seen,
        n_dropped=sink.n_dropped,
        metrics=metrics,
    )
    return result, error, capture


def _serialize(event: TraceEvent) -> Dict[str, Any]:
    """``to_dict`` plus the provenance ids it deliberately omits."""
    data = event.to_dict()
    data["eid"] = event.eid
    data["span_id"] = event.span_id
    data["cause_id"] = event.cause_id
    return data


def replay_capture(
    capture: CellCapture,
    cell_span_id: int = 0,
    bus=None,
) -> int:
    """Re-emit a worker capture on the parent bus; returns events emitted.

    Every event gets a fresh parent ``eid``; worker-local
    ``cause_id``/``span_id`` references are remapped through the
    worker-eid -> parent-eid table built as the replay walks the buffer
    in emission order (references always point backwards, so the table
    is complete when needed). References that fall outside the capture
    (or past a truncated tail) degrade gracefully: causes drop to 0,
    span memberships and top-level span parents re-anchor on
    ``cell_span_id`` — the parent's ``campaign_cell`` span — and
    ``span_end`` events whose start was truncated away are skipped
    entirely so the merged trace stays validator-clean.
    """
    if bus is None:
        bus = BUS
    idmap: Dict[int, int] = {}
    emitted = 0
    for data in capture.events:
        event = event_from_dict(dict(data))
        old_eid = event.eid
        old_span = event.span_id
        old_cause = event.cause_id
        if event.kind == "span_end" and old_span not in idmap:
            continue
        new_eid = bus.next_eid()
        if old_eid:
            idmap[old_eid] = new_eid
        event.eid = new_eid
        event.cause_id = idmap.get(old_cause, 0) if old_cause else 0
        if event.kind == "span_start":
            # The span's id is its own (new) eid; re-parent top-level
            # worker spans under the parent's campaign_cell span.
            event.span_id = new_eid
            parent = getattr(event, "parent_id", 0)
            event.parent_id = idmap.get(parent, cell_span_id)
        elif event.kind == "span_end":
            event.span_id = idmap[old_span]
        else:
            event.span_id = idmap.get(old_span, cell_span_id)
        bus.emit(event)
        emitted += 1
    return emitted
