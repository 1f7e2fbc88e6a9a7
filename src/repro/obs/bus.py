"""The process-local trace bus.

One module-level :data:`BUS` instance fans emitted events out to its
attached sinks. Instrumented code follows one discipline everywhere::

    from repro.obs import BUS
    ...
    if BUS.enabled:
        BUS.emit(VMMigratedEvent(t=BUS.now, vm=..., source=..., dest=...))

``enabled`` is a plain attribute recomputed whenever the sink set
changes, so the disabled path costs a single attribute load and branch —
no event object is ever allocated. Attaching only :class:`~repro.obs.
sinks.NullSink` instances keeps the bus disabled (that is the null
sink's contract).

``now`` is the simulation clock: the engine stamps it at the start of
every step, so deep call sites (cluster placement, power routing) can
timestamp events without threading ``t`` through every signature.

Worker processes of a parallel campaign start with their own fresh,
disabled bus, so a campaign that starts with the bus enabled runs every
cell in this process (:func:`~repro.campaign.run_campaign`).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, List, Optional

from repro.obs.events import TraceEvent
from repro.obs.metrics import REGISTRY
from repro.obs.sinks import (
    DEFAULT_MEMORY_SINK_MAXLEN,
    EventSink,
    JsonlSink,
    MemorySink,
    NullSink,
)

#: Ambient provenance context (see :mod:`repro.obs.spans` for the public
#: ``caused_by``/``in_span`` managers). Defined here, next to the emit
#: path that reads them, so ``spans`` can import ``bus`` without a cycle.
CURRENT_CAUSE: ContextVar[int] = ContextVar("repro_obs_cause", default=0)
CURRENT_SPAN: ContextVar[int] = ContextVar("repro_obs_span", default=0)


class TraceBus:
    """Dispatches events to sinks; disabled when no real sink listens."""

    __slots__ = ("enabled", "now", "n_emitted", "_sinks", "_next_eid")

    def __init__(self) -> None:
        self.enabled: bool = False
        self.now: float = 0.0
        self.n_emitted: int = 0
        self._sinks: List[EventSink] = []
        self._next_eid: int = 1

    # ------------------------------------------------------------------
    # Sink management
    # ------------------------------------------------------------------
    def add_sink(self, sink: EventSink) -> EventSink:
        """Attach a sink; returns it for chaining."""
        self._sinks.append(sink)
        self._recompute_enabled()
        return sink

    def remove_sink(self, sink: EventSink) -> None:
        """Detach a sink (no error if absent); does not close it."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass
        self._recompute_enabled()

    def clear_sinks(self) -> None:
        """Detach every sink and reset the clock/counters."""
        self._sinks.clear()
        self.now = 0.0
        self.n_emitted = 0
        self._next_eid = 1
        self._recompute_enabled()

    @property
    def sinks(self) -> List[EventSink]:
        return list(self._sinks)

    def _recompute_enabled(self) -> None:
        self.enabled = any(not isinstance(s, NullSink) for s in self._sinks)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def next_eid(self) -> int:
        """Claim the next event id (used to pre-assign span ids)."""
        eid = self._next_eid
        self._next_eid += 1
        return eid

    def emit(self, event: TraceEvent) -> None:
        """Deliver one event to every attached sink.

        Call sites must guard with ``if bus.enabled`` — that guard is the
        whole overhead story of the disabled path.

        Emission stamps provenance in place before fan-out — a unique
        ``eid``, plus ``cause_id``/``span_id`` from the ambient context
        when the emit site did not set them — so live sinks and the
        JSONL file see byte-identical provenance.
        """
        self.n_emitted += 1
        if not event.eid:
            event.eid = self._next_eid
            self._next_eid += 1
        if not event.cause_id:
            cause = CURRENT_CAUSE.get()
            if cause:
                event.cause_id = cause
        if not event.span_id:
            span = CURRENT_SPAN.get()
            if span:
                event.span_id = span
        if REGISTRY.enabled:
            REGISTRY.counter("obs/events_total").inc()
            REGISTRY.counter("obs/events/" + event.kind).inc()
        for sink in self._sinks:
            sink.emit(event)

    # ------------------------------------------------------------------
    # Scoped helpers
    # ------------------------------------------------------------------
    @contextmanager
    def capture(
        self, maxlen: Optional[int] = DEFAULT_MEMORY_SINK_MAXLEN
    ) -> Iterator[MemorySink]:
        """Attach a memory ring for the duration of a ``with`` block.

        Bounded by default (``maxlen=None`` opts into unbounded)."""
        sink = MemorySink(maxlen=maxlen)
        self.add_sink(sink)
        try:
            yield sink
        finally:
            self.remove_sink(sink)

    @contextmanager
    def trace_to(self, path: str) -> Iterator[JsonlSink]:
        """Write events to a JSONL file for the duration of a block."""
        sink = JsonlSink(path)
        self.add_sink(sink)
        try:
            yield sink
        finally:
            self.remove_sink(sink)
            sink.close()


#: The process-wide bus every instrumented module emits to.
BUS = TraceBus()
