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

import json
from dataclasses import dataclass, fields
from typing import (
    Any,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Tuple,
    Type,
)

from repro.errors import ConfigurationError

#: kind -> event class, populated by ``__init_subclass__``.
EVENT_TYPES: Dict[str, Type["TraceEvent"]] = {}

#: Base fields that exist purely for causal provenance. They default to
#: 0 ("absent") and are omitted from the serialised form when 0, so
#: traces written before — or without — the provenance layer keep their
#: exact shape and round-trip losslessly.
PROVENANCE_FIELDS = ("eid", "span_id", "cause_id")

#: event class -> its ``(field name, omit when falsy)`` pairs in field
#: order, built on the class's first ``to_dict``. Keyed by the exact
#: class, so a subclass never reuses its parent's plan.
_ENCODE_PLANS: Dict[type, Tuple[Tuple[str, bool], ...]] = {}


def _encode_plan(cls: type) -> Tuple[Tuple[str, bool], ...]:
    """Build and cache ``cls``'s serialisation plan (see :data:`_ENCODE_PLANS`)."""
    omit = set(PROVENANCE_FIELDS) | set(cls.OMIT_EMPTY_FIELDS)
    plan = tuple((f.name, f.name in omit) for f in fields(cls))
    _ENCODE_PLANS[cls] = plan
    return plan


#: One compact encoder for every event line: ``json.dumps`` with
#: ``separators`` builds a new encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


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
        cls = type(self)
        plan = _ENCODE_PLANS.get(cls) or _encode_plan(cls)
        out: Dict[str, Any] = {"kind": self.kind}
        for name, omit_empty in plan:
            value = getattr(self, name)
            if omit_empty and not value:
                continue
            out[name] = value
        return out

    def to_json(self) -> str:
        return _ENCODER.encode(self.to_dict())


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

    The only battery telemetry on the wire: the sensor polls (Table 2)
    the nodes' :class:`~repro.metrics.tracker.MetricsTracker` folded,
    as comma-joined integer columns. SoC and current are quantized
    (SoC x 1e8, current x 1e6 A) and delta-encoded against the previous
    frame, so steady-state columns compress to a few bytes per node.
    The node roster (``nodes``) is carried only on the first frame of a
    run (``seq == 0``) and omitted afterwards.

    Frames are *lossy at the quantum* (5e-9 SoC / 5e-7 A worst-case
    round error), far inside the 1e-6 health-replay contract.
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
class CampaignStartEvent(TraceEvent):
    """A campaign began: how many cells, on how many workers."""

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
    (``sweep-paper/cells_per_s``), ``baseline``/``sigma`` the
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
    """Read a whole JSONL trace into typed events.

    Test helper only: this materializes the entire trace in memory.
    Replay consumers (CLI subcommands, health/provenance models,
    exporters) must stream via :func:`iter_events` instead so multi-GB
    traces never build a full in-memory list.
    """
    return list(iter_events(path, strict=strict))


def decode_trace_lines(
    lines: Iterable[str], strict: bool = True
) -> Iterator[Tuple[int, Any]]:
    """The one line decoder every trace reader shares.

    Yields ``(line_no, value)`` for each non-blank line, numbered from
    1: ``value`` is the decoded JSON, or the :class:`ValueError` of a
    line that does not decode, so each caller decides whether that
    raises (:func:`iter_events`) or counts as a violation
    (:func:`~repro.obs.provenance.validate_trace`). With
    ``strict=False``, a final line that has
    no trailing newline and does not decode is a torn write — the
    writer died mid-line — and is dropped.
    """
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            value: Any = json.loads(text)
        except ValueError as exc:
            if not strict and not raw.endswith("\n"):
                return
            value = exc
        yield line_no, value


def iter_events(path: str, strict: bool = True) -> Iterator[TraceEvent]:
    """Stream typed events from a JSONL trace.

    Every replay consumer — ``repro trace``/``health``/``explain``,
    :class:`~repro.obs.health.FleetHealthModel` — reads through here. A
    line that is not JSON raises :class:`ValueError`. With
    ``strict=False``, lines with unknown kinds are skipped instead of
    raising (useful for forward-compatible tooling), and so is a torn
    final line, so the trace of a writer killed mid-line still replays.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for _, data in decode_trace_lines(fh, strict):
            if isinstance(data, ValueError):
                raise data
            try:
                event = event_from_dict(data)
            except ConfigurationError:
                if strict:
                    raise
                continue
            yield event
