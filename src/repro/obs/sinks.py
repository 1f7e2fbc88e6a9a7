"""Event sinks: where emitted trace events go.

Three implementations cover the spectrum the telemetry layer needs:

- :class:`NullSink` discards everything. Attaching only null sinks keeps
  the bus *disabled*, so instrumented code never allocates an event —
  this is what makes tracing near-free when off.
- :class:`MemorySink` keeps the last ``maxlen`` events in a ring buffer,
  for tests and the ``repro stats`` command.
- :class:`JsonlSink` appends one JSON object per event to a file — the
  durable format ``repro trace`` reads back.
"""

from __future__ import annotations

from collections import deque
from typing import IO, Deque, List, Optional

from repro.obs.events import TraceEvent
from repro.obs.metrics import REGISTRY

#: Default :class:`MemorySink` ring size. At the BAAT scenario's
#: telemetry rate (one battery frame per simulated minute plus control
#: events) this holds weeks of simulated events — ample for any
#: in-memory analysis while keeping a long instrumented run from growing
#: without bound. Pass ``maxlen=None`` explicitly to opt back into an
#: unbounded buffer.
DEFAULT_MEMORY_SINK_MAXLEN = 262_144


class EventSink:
    """Interface: receives every event emitted on an enabled bus."""

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources (idempotent)."""


class NullSink(EventSink):
    """Discards events; does not enable the bus when attached."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - never
        # called: a bus with only null sinks stays disabled, and enabled
        # buses skip the loop body for null sinks' no-op emit anyway.
        pass


class MemorySink(EventSink):
    """Ring buffer of the most recent events.

    Bounded by default (:data:`DEFAULT_MEMORY_SINK_MAXLEN`); pass
    ``maxlen=None`` for an unbounded buffer.
    """

    def __init__(self, maxlen: Optional[int] = DEFAULT_MEMORY_SINK_MAXLEN):
        self._buffer: Deque[TraceEvent] = deque(maxlen=maxlen)

    def emit(self, event: TraceEvent) -> None:
        self._buffer.append(event)

    @property
    def events(self) -> List[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._buffer)

    @property
    def maxlen(self) -> Optional[int]:
        """The ring bound (``None`` = unbounded)."""
        return self._buffer.maxlen

    def clear(self) -> None:
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlSink(EventSink):
    """Writes events as JSON Lines to a file path or open text stream.

    A path target is one plain file that the sink owns and closes; a
    stream target is borrowed and left open on :meth:`close`.
    """

    def __init__(self, target, flush_every: int = 256):
        self._flush_every = max(1, flush_every)
        self.n_written = 0
        self.bytes_written = 0  # total line bytes, newlines included
        if isinstance(target, (str, bytes)):
            path = target.decode() if isinstance(target, bytes) else str(target)
            self._fh: IO[str] = open(path, "w", encoding="utf-8")
            self._owns_fh = True
            self.path: Optional[str] = path
        else:
            self._fh = target
            self._owns_fh = False
            self.path = getattr(target, "name", None)

    def emit(self, event: TraceEvent) -> None:
        line = event.to_json()
        self._fh.write(line)
        self._fh.write("\n")
        self.n_written += 1
        line_bytes = len(line) + 1
        self.bytes_written += line_bytes
        if REGISTRY.enabled:
            REGISTRY.counter("obs/sink_bytes").inc(line_bytes)
        if self.n_written % self._flush_every == 0:
            self._fh.flush()

    def close(self) -> None:
        if self._fh.closed:
            return
        self._fh.flush()
        if self._owns_fh:
            self._fh.close()
