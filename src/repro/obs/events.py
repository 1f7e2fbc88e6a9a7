"""Typed structured trace events.

Every notable decision the simulator makes — a VM placement, a migration,
a DVFS cap, a DoD-goal update, a campaign cell starting — is described by
one :class:`TraceEvent` subclass. Events are plain flat dataclasses so
they serialise losslessly to JSON dictionaries (:meth:`TraceEvent.
to_dict`) and back (:func:`event_from_dict`), which is what the JSONL
sink writes and ``repro trace`` reads.

The ``t`` field is the simulation clock (seconds from run start) for
engine/control events, and elapsed wall-clock seconds since campaign
start for the ``cell_*`` events (a campaign has no single simulation
clock).

Subclassing :class:`TraceEvent` with a ``kind`` automatically registers
the type for round-tripping.
"""

from __future__ import annotations

import gzip
import json
import os
import zlib
from dataclasses import dataclass, fields
from typing import IO, Any, ClassVar, Dict, Iterator, List, Optional, Type

from repro.errors import ConfigurationError

#: kind -> event class, populated by ``__init_subclass__``.
EVENT_TYPES: Dict[str, Type["TraceEvent"]] = {}

#: Base fields that exist purely for causal provenance. They default to
#: 0 ("absent") and are omitted from the serialised form when 0, so
#: traces written before — or without — the provenance layer keep their
#: exact shape and round-trip losslessly.
PROVENANCE_FIELDS = ("eid", "span_id", "cause_id")


@dataclass
class TraceEvent:
    """Base event: a timestamp plus a ``kind`` discriminator.

    Every event also carries three optional provenance ids (all 0 when
    unused): ``eid`` — a unique id the bus assigns at emit time;
    ``span_id`` — the enclosing :class:`SpanStartEvent`'s ``eid``;
    ``cause_id`` — the ``eid`` of the event that triggered this one.
    The bus stamps ``span_id``/``cause_id`` from the ambient
    :mod:`repro.obs.spans` context, so emit sites need no plumbing.
    """

    t: float = 0.0
    eid: int = 0
    span_id: int = 0
    cause_id: int = 0

    kind: ClassVar[str] = "event"

    #: Subclasses may list fields here to omit from the serialised form
    #: when falsy (like the provenance ids), for fields that are only
    #: meaningful on some emissions — e.g. a frame's node roster, which
    #: only the first frame of a run carries.
    OMIT_EMPTY_FIELDS: ClassVar[tuple] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        kind = cls.__dict__.get("kind")
        if kind:
            EVENT_TYPES[kind] = cls

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready dictionary (``kind`` first for readability).

        Provenance ids are omitted while 0 so un-instrumented events
        keep the pre-provenance wire shape.
        """
        out: Dict[str, Any] = {"kind": self.kind}
        omit = self.OMIT_EMPTY_FIELDS
        for f in fields(self):
            value = getattr(self, f.name)
            if not value and (f.name in PROVENANCE_FIELDS or f.name in omit):
                continue
            out[f.name] = value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


# ----------------------------------------------------------------------
# Engine / run lifecycle
# ----------------------------------------------------------------------
@dataclass
class RunStartEvent(TraceEvent):
    """Emitted once when a simulation begins stepping."""

    policy: str = ""
    n_nodes: int = 0
    steps_total: int = 0

    kind: ClassVar[str] = "run_start"


@dataclass
class DayStartEvent(TraceEvent):
    """A simulated day boundary (metric windows reset, plans refresh)."""

    day_index: int = 0

    kind: ClassVar[str] = "day_start"


@dataclass
class SocCrossingEvent(TraceEvent):
    """A node's battery crossed the low-SoC line (``direction`` is
    ``"down"`` entering the low region, ``"up"`` leaving it)."""

    node: str = ""
    soc: float = 0.0
    threshold: float = 0.0
    direction: str = "down"

    kind: ClassVar[str] = "soc_crossing"


@dataclass
class BrownoutEvent(TraceEvent):
    """A server lost power mid-window (unserved deficit)."""

    node: str = ""
    shortfall_w: float = 0.0

    kind: ClassVar[str] = "brownout"


@dataclass
class BatteryConfigEvent(TraceEvent):
    """One battery's aging-relevant parameters, emitted once per run.

    Carries exactly what :class:`~repro.metrics.snapshot.AgingMetrics`
    needs (``CAP_nom`` and the reference rate), so a trace is
    self-contained for offline metric attribution.
    """

    node: str = ""
    lifetime_ah_throughput: float = 0.0
    reference_current: float = 0.0
    capacity_ah: float = 0.0
    cutoff_soc: float = 0.0

    kind: ClassVar[str] = "battery_config"


@dataclass
class BatterySampleEvent(TraceEvent):
    """One battery sensor poll (Table 2): the exact sample the node's
    :class:`~repro.metrics.tracker.MetricsTracker` folded.

    Emitted at the tracker's own observation point so an offline replay
    of a trace reconstructs the per-battery aging metrics bit-for-bit
    (JSON floats round-trip losslessly through ``repr``).
    """

    node: str = ""
    soc: float = 0.0
    current_a: float = 0.0
    dt: float = 0.0

    kind: ClassVar[str] = "battery_sample"


@dataclass
class TraceMetaEvent(TraceEvent):
    """Trace header emitted once per run, before ``run_start``.

    Declares the wire-schema version and the telemetry policy the run
    was recorded under so replay tools (``repro health``/``trace``/
    ``validate``) know what they are reading — mixed-version or
    mixed-tier traces fail loudly instead of misparsing.
    """

    schema: int = 0
    telemetry: str = ""
    stepper: str = ""
    n_nodes: int = 0

    kind: ClassVar[str] = "trace_meta"


@dataclass
class BatteryFrameEvent(TraceEvent):
    """One step of battery telemetry for the whole fleet, columnar.

    Replaces ``n`` per-node :class:`BatterySampleEvent` lines with a
    single event carrying comma-joined integer columns: SoC and current
    are quantized (SoC x 1e8, current x 1e6 A) and delta-encoded
    against the previous frame, so steady-state columns compress to a
    few bytes per node.  The node roster (``nodes``) is carried only on
    the first frame of a run (``seq == 0``) and omitted afterwards.

    Frames are *lossy at the quantum* (5e-9 SoC / 5e-7 A worst-case
    round error — far inside the 1e-6 health-replay contract); per-node
    sample events remain the lossless format.
    """

    n: int = 0
    dt: float = 0.0
    seq: int = 0
    nodes: str = ""
    soc: str = ""
    cur: str = ""

    kind: ClassVar[str] = "battery_frame"
    OMIT_EMPTY_FIELDS: ClassVar[tuple] = ("nodes",)


@dataclass
class FleetSummaryEvent(TraceEvent):
    """Per-step fleet aggregate for the ``summary`` telemetry tier.

    Carries the distributional SoC picture plus step charge/discharge
    totals and the top-K aging outliers (``"node:score"`` pairs by the
    Eq.-6 composite), so fleet-level alerting still has a signal when
    per-node telemetry is turned off.
    """

    n: int = 0
    dt: float = 0.0
    soc_mean: float = 0.0
    soc_min: float = 0.0
    soc_max: float = 0.0
    soc_p10: float = 0.0
    discharge_ah: float = 0.0
    charge_ah: float = 0.0
    top: str = ""

    kind: ClassVar[str] = "fleet_summary"


@dataclass
class AlertEvent(TraceEvent):
    """A declarative alert rule fired (or cleared) for a key.

    ``rule`` names the :class:`~repro.obs.alerts.AlertRule`; ``node`` is
    the rule's key (a node name, or a synthetic key like ``"campaign"``).
    ``cleared`` marks the hysteresis release of a previously active
    alert.
    """

    rule: str = ""
    node: str = ""
    severity: str = "warning"
    value: float = 0.0
    threshold: float = 0.0
    cleared: bool = False
    message: str = ""

    kind: ClassVar[str] = "alert"


# ----------------------------------------------------------------------
# Placement / migration (cluster level)
# ----------------------------------------------------------------------
@dataclass
class VMPlacedEvent(TraceEvent):
    """A VM was placed on a node at deployment time."""

    vm: str = ""
    node: str = ""

    kind: ClassVar[str] = "vm_placed"


@dataclass
class VMMigratedEvent(TraceEvent):
    """A VM live-migrated between nodes."""

    vm: str = ""
    source: str = ""
    dest: str = ""

    kind: ClassVar[str] = "vm_migrated"


# ----------------------------------------------------------------------
# Slowdown monitor / policy control (intent level)
# ----------------------------------------------------------------------
@dataclass
class SlowdownActionEvent(TraceEvent):
    """The Fig.-9 monitor acted on a stressed node.

    ``action`` is one of ``migrated``/``throttled``/``capped``/``parked``;
    ``cap_w`` is the discharge cap left on the node afterwards;
    ``trigger`` names which check tripped (``ddt``/``dr``/``ration``).
    """

    node: str = ""
    action: str = ""
    soc: float = 0.0
    draw_w: float = 0.0
    cap_w: float = 0.0
    trigger: str = ""

    kind: ClassVar[str] = "slowdown_action"


@dataclass
class DvfsCapEvent(TraceEvent):
    """A server stepped down the DVFS ladder (frequency capped)."""

    node: str = ""
    freq_index: int = 0
    freq: float = 1.0

    kind: ClassVar[str] = "dvfs_cap"


@dataclass
class DvfsUncapEvent(TraceEvent):
    """A recovered server stepped back up the DVFS ladder."""

    node: str = ""
    freq_index: int = 0
    freq: float = 1.0

    kind: ClassVar[str] = "dvfs_uncap"


@dataclass
class EvacuationEvent(TraceEvent):
    """VMs were moved off a node about to park."""

    node: str = ""
    moved: int = 0

    kind: ClassVar[str] = "evacuation"


@dataclass
class ParkEvent(TraceEvent):
    """A server was put to policy sleep (``reason``: ``slowdown`` or
    ``consolidation``)."""

    node: str = ""
    reason: str = ""

    kind: ClassVar[str] = "park"


@dataclass
class WakeEvent(TraceEvent):
    """A parked server was brought back as supply recovered."""

    node: str = ""
    reason: str = ""

    kind: ClassVar[str] = "wake"


@dataclass
class ConsolidationEvent(TraceEvent):
    """One BAAT consolidation pass (cluster-wide plan)."""

    supportable: int = 0
    n_active: int = 0
    n_victims: int = 0

    kind: ClassVar[str] = "consolidation"


@dataclass
class DoDGoalEvent(TraceEvent):
    """Planned aging recomputed a node's Eq.-7 DoD goal."""

    node: str = ""
    goal: float = 0.0
    threshold: float = 0.0
    floor: float = 0.0

    kind: ClassVar[str] = "dod_goal"


# ----------------------------------------------------------------------
# Spans (causal intervals)
# ----------------------------------------------------------------------
@dataclass
class SpanStartEvent(TraceEvent):
    """A long-lived causal interval opened (see :mod:`repro.obs.spans`).

    The span's id *is* this event's ``eid`` (``span_id`` is set to the
    same value so the start line is self-describing). ``parent_id``
    links to an enclosing span's start ``eid`` (0 at top level), and
    ``scope`` names the clock domain: ``"run"`` spans use the simulation
    clock, ``"campaign"`` spans wall-clock seconds since campaign start.
    """

    span: str = ""
    node: str = ""
    parent_id: int = 0
    scope: str = "run"

    kind: ClassVar[str] = "span_start"


@dataclass
class SpanEndEvent(TraceEvent):
    """A span closed; ``span_id`` names the matching :class:`SpanStartEvent`."""

    span: str = ""
    node: str = ""
    scope: str = "run"
    duration_s: float = 0.0

    kind: ClassVar[str] = "span_end"


# ----------------------------------------------------------------------
# Campaign runner
# ----------------------------------------------------------------------
@dataclass
class CellStartEvent(TraceEvent):
    """A campaign cell began executing (not served from cache)."""

    label: str = ""

    kind: ClassVar[str] = "cell_start"


@dataclass
class CellCacheHitEvent(TraceEvent):
    """A campaign cell was served from the on-disk result cache."""

    label: str = ""

    kind: ClassVar[str] = "cell_cache_hit"


@dataclass
class CellRetryEvent(TraceEvent):
    """A campaign cell attempt failed and is being retried."""

    label: str = ""
    attempt: int = 0
    error: str = ""

    kind: ClassVar[str] = "cell_retry"


@dataclass
class CellFinishEvent(TraceEvent):
    """A campaign cell finished (successfully or not)."""

    label: str = ""
    ok: bool = True
    attempts: int = 0
    wall_s: float = 0.0

    kind: ClassVar[str] = "cell_finish"


@dataclass
class CellHealthEvent(TraceEvent):
    """Per-cell aging rollup: the cell's fleet health in one event.

    Emitted once per executed cell of a traced campaign — computed from
    a live :class:`~repro.obs.health.FleetHealthModel` for inline cells
    and from the worker-shipped health summary for pooled cells — so a
    campaign-level monitor can aggregate aging across thousands of cells
    without re-folding every battery sample.
    """

    label: str = ""
    n_batteries: int = 0
    n_samples: int = 0
    score_mean: float = 0.0
    score_max: float = 0.0
    worst: str = ""
    nat_max: float = 0.0
    ddt_max: float = 0.0
    dr_max: float = 0.0
    alerts: int = 0

    kind: ClassVar[str] = "cell_health"


@dataclass
class CampaignStartEvent(TraceEvent):
    """A campaign began: the denominator every progress view needs."""

    n_cells: int = 0
    n_workers: int = 0

    kind: ClassVar[str] = "campaign_start"


@dataclass
class CampaignFinishEvent(TraceEvent):
    """A campaign completed; totals mirror the returned report."""

    n_cells: int = 0
    ok: int = 0
    failed: int = 0
    cached: int = 0
    executed: int = 0
    wall_s: float = 0.0

    kind: ClassVar[str] = "campaign_finish"


# ----------------------------------------------------------------------
# Perf observatory
# ----------------------------------------------------------------------
@dataclass
class PerfRegressionEvent(TraceEvent):
    """A benchmark metric fell outside its rolling perf-history baseline.

    Emitted by ``repro perf check`` (:mod:`repro.perf.regression`) for
    each confirmed regression: ``metric`` is the flattened series name
    (``engine/n48/fleet_steps_per_s``), ``baseline``/``sigma`` the
    robust median ± MAD window it was judged against, ``deviation`` how
    many sigmas *worse* the new ``value`` is, ``direction`` which way is
    better for this metric, and ``sha`` the commit that measured it.
    """

    metric: str = ""
    value: float = 0.0
    baseline: float = 0.0
    sigma: float = 0.0
    deviation: float = 0.0
    direction: str = ""
    sha: str = ""

    kind: ClassVar[str] = "perf_regression"


# ----------------------------------------------------------------------
# Round-tripping
# ----------------------------------------------------------------------
def event_from_dict(data: Dict[str, Any]) -> TraceEvent:
    """Rebuild a typed event from its :meth:`TraceEvent.to_dict` form.

    Unknown kinds raise :class:`~repro.errors.ConfigurationError`;
    unknown *fields* of a known kind are dropped, so newer traces stay
    readable by older code.
    """
    kind = data.get("kind")
    cls = EVENT_TYPES.get(kind or "")
    if cls is None:
        raise ConfigurationError(f"unknown trace event kind {kind!r}")
    known = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in known})


def read_events(path: str, strict: bool = True) -> List[TraceEvent]:
    """Read a whole JSONL trace (all rotated segments) into typed events.

    Test helper only: this materializes the entire trace in memory.
    Replay consumers (CLI subcommands, health/provenance models,
    exporters) must stream via :func:`iter_events` instead so multi-GB
    rotated traces never build a full in-memory list.
    """
    return list(iter_events(path, strict=strict))


def segment_path(base: str, index: int) -> str:
    """Path of rotation segment ``index`` for a trace at ``base``.

    Segment 0 is the base path itself; later segments insert the index
    before any ``.gz`` suffix (``trace.jsonl.1``, ``trace.jsonl.1.gz``)
    so sort order matches write order without any renaming on rollover.
    """
    if index == 0:
        return base
    if base.endswith(".gz"):
        return f"{base[:-3]}.{index}.gz"
    return f"{base}.{index}"


def trace_segments(path: str) -> List[str]:
    """All on-disk segments of a possibly rotated/gzipped trace, in order.

    Accepts the path the trace was requested at: if ``path`` itself is
    missing but ``path + ".gz"`` exists (the sink compressed it), the
    gzipped family is used. Raises :class:`FileNotFoundError` when no
    first segment exists.
    """
    base = path
    if not os.path.exists(base):
        if not base.endswith(".gz") and os.path.exists(base + ".gz"):
            base = base + ".gz"
        else:
            raise FileNotFoundError(path)
    segments = [base]
    index = 1
    while True:
        candidate = segment_path(base, index)
        if os.path.exists(candidate):
            segments.append(candidate)
        elif not candidate.endswith(".gz") and os.path.exists(candidate + ".gz"):
            segments.append(candidate + ".gz")
        else:
            break
        index += 1
    return segments


def open_trace_segment(path: str) -> IO[str]:
    """Open one trace segment for text reading, gunzipping if needed."""
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def iter_trace_lines(path: str) -> Iterator[str]:
    """Stream raw JSONL lines across every rotated/gzipped segment."""
    for segment in trace_segments(path):
        with open_trace_segment(segment) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield line


class TraceTailer:
    """Follow-mode reader for a trace that is still being written.

    Unlike :func:`iter_events` (a one-shot replay of a finished trace),
    a tailer is *incremental*: every :meth:`drain` call returns the
    typed events that became readable since the last call and returns
    immediately — the ``repro top`` dashboard polls it on its render
    interval. It follows the same segment families the sink writes:

    - **Plain segments** keep a persistent file handle; partially
      written trailing lines (no ``\\n`` yet) are carried over and
      completed on a later drain, so no event is ever split or dropped.
    - **Gzipped segments** cannot be incrementally appended-read (the
      stream's end marker is missing until close), so each drain
      re-reads the segment from the top, salvages the decodable prefix
      of the unterminated stream, and skips the complete lines already
      returned.
    - **Rotation** is detected by the next segment appearing on disk
      (the sink closes a segment *before* opening its successor, so
      once ``trace.jsonl.N+1`` exists, segment ``N`` is final): the
      tailer finishes the current segment and advances, through as many
      segments as needed per drain.

    A missing first segment is not an error — the tailer waits for the
    writer to create it (``drain`` returns nothing until then), which is
    what lets ``repro top`` be started before the campaign.
    """

    def __init__(self, path: str, strict: bool = False):
        self.path = path
        self.strict = strict
        self.n_events = 0
        self.n_segments_done = 0
        self._base: Optional[str] = None  # resolved segment-family base
        self._seg: Optional[str] = None  # current segment's actual path
        self._index = 0
        self._fh: Optional[IO[str]] = None  # persistent handle (plain only)
        self._carry = ""  # partial trailing line (plain only)
        self._lines_done = 0  # complete lines consumed (gzip only)

    # ------------------------------------------------------------------
    def _resolve(self) -> bool:
        """Find the first segment once the writer has created it."""
        if self._base is not None:
            return True
        base = self.path
        if not os.path.exists(base):
            if base.endswith(".gz") or not os.path.exists(base + ".gz"):
                return False
            base = base + ".gz"
        self._base = base
        self._seg = base
        return True

    def _next_segment(self) -> Optional[str]:
        assert self._base is not None
        candidate = segment_path(self._base, self._index + 1)
        if os.path.exists(candidate):
            return candidate
        if not candidate.endswith(".gz") and os.path.exists(candidate + ".gz"):
            return candidate + ".gz"
        return None

    # ------------------------------------------------------------------
    def _read_plain(self) -> List[str]:
        assert self._seg is not None
        if self._fh is None:
            try:
                self._fh = open(self._seg, "r", encoding="utf-8")
            except OSError:
                return []
        data = self._fh.read()
        if not data:
            return []
        buf = self._carry + data
        lines = buf.split("\n")
        self._carry = lines.pop()  # "" when data ended on a newline
        return lines

    def _read_gzip(self) -> List[str]:
        assert self._seg is not None
        # Raw zlib decompression, not gzip.open: the file-object readers
        # raise EOFError on an unterminated member and discard whatever
        # they had already decoded, whereas the sink's per-event
        # Z_SYNC_FLUSH leaves a byte-aligned prefix that decompressobj
        # recovers as-is — which is the whole point of tailing a segment
        # the writer still has open.
        try:
            with open(self._seg, "rb") as fh:
                raw = fh.read()
        except OSError:
            return []
        decomp = zlib.decompressobj(wbits=31)  # gzip-wrapped stream
        pieces: List[bytes] = []
        try:
            pieces.append(decomp.decompress(raw))
            pieces.append(decomp.flush())
        except zlib.error:
            # Corrupt/partial tail past the sync point: keep the prefix.
            pass
        # Any byte-level truncation lands after the last newline (inside
        # the partial line we drop below), so lossy decoding cannot harm
        # a complete line.
        text = b"".join(pieces).decode("utf-8", errors="replace")
        complete = text.split("\n")[:-1]  # drop the piece after the last \n
        fresh = complete[self._lines_done :]
        self._lines_done = len(complete)
        return fresh

    def _finish_segment(self) -> List[str]:
        """Final lines of a rotated-away (closed, complete) segment."""
        tail: List[str] = []
        if self._seg is not None and self._seg.endswith(".gz"):
            tail = self._read_gzip()
        else:
            tail = self._read_plain()
            # A closed segment ends with a newline; a non-empty carry
            # here means the writer died mid-line — surface it anyway.
            if self._carry.strip():
                tail.append(self._carry)
            self._carry = ""
            if self._fh is not None:
                self._fh.close()
                self._fh = None
        self._lines_done = 0
        self.n_segments_done += 1
        return tail

    def _parse(self, lines: List[str], out: List[TraceEvent]) -> None:
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = event_from_dict(json.loads(line))
            except ValueError:
                if self.strict:
                    raise
                continue
            except ConfigurationError:
                if self.strict:
                    raise
                continue
            self.n_events += 1
            out.append(event)

    # ------------------------------------------------------------------
    def drain(self) -> List[TraceEvent]:
        """Every event that became readable since the last drain."""
        out: List[TraceEvent] = []
        if not self._resolve():
            return out
        while True:
            # Check for a successor *before* reading: if one exists, the
            # current segment is already final, so one read gets all of
            # it and we can advance without a re-read race.
            successor = self._next_segment()
            if successor is not None:
                self._parse(self._finish_segment(), out)
                self._seg = successor
                self._index += 1
                continue
            if self._seg is not None and self._seg.endswith(".gz"):
                self._parse(self._read_gzip(), out)
            else:
                self._parse(self._read_plain(), out)
            return out

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def iter_events(path: str, strict: bool = True) -> Iterator[TraceEvent]:
    """Stream typed events from a JSONL trace.

    Rotated segments (``trace.jsonl.1``, ...) and gzipped segments
    (``.gz``) are read transparently, so every replay consumer —
    ``repro trace``/``health``/``explain``, :class:`~repro.obs.health.
    FleetHealthModel` — handles rotated traces for free. With
    ``strict=False``, lines with unknown kinds are skipped instead of
    raising (useful for forward-compatible tooling).
    """
    for line in iter_trace_lines(path):
        data = json.loads(line)
        try:
            yield event_from_dict(data)
        except ConfigurationError:
            if strict:
                raise
