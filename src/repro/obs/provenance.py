"""Causal provenance: rebuild the decision DAG from the event stream.

:class:`ProvenanceIndex` is an :class:`~repro.obs.sinks.EventSink` (like
:class:`~repro.obs.health.FleetHealthModel`) that works identically
live on the bus or replaying a JSONL trace (:meth:`ProvenanceIndex.
from_trace`). It indexes every event that can participate in a causal
chain — control actions, alerts, SoC crossings, spans — by the ``eid``
the bus stamped, and resolves chains by walking ``cause_id`` links with
``span_id``/``parent_id`` fallbacks::

    DVFS cap on node batt03 ← alert dr_reserve_exhaustion ← span
    deep_discharge opened ← SoC crossing down 38.0 %

which is exactly the paper's Fig.-9 decision tree read backwards: the
monitor acted *because* a rule tripped *because* the battery entered a
deep-discharge excursion.

The module also hosts :func:`validate_trace`, the schema/monotonicity/
span-matching checker behind ``repro trace validate``. Validation works
on the raw JSON lines (not typed events) so it can flag unknown fields
and type drift that :func:`~repro.obs.events.event_from_dict`
deliberately tolerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Tuple, Type

from repro.obs.events import (
    EVENT_TYPES,
    TraceEvent,
    iter_events,
    decode_trace_lines,
)
from repro.obs.metrics import MetricRegistry
from repro.obs.sinks import EventSink
from repro.obs.telemetry import SCHEMA_VERSION

#: Kinds kept in the eid index. High-volume telemetry (battery frames,
#: day starts) is counted but not stored, so a month-scale trace indexes
#: in O(control decisions), not O(sensor polls).
INDEXED_KINDS = frozenset(
    {
        "run_start",
        "soc_crossing",
        "brownout",
        "alert",
        "vm_placed",
        "vm_migrated",
        "slowdown_action",
        "dvfs_cap",
        "dvfs_uncap",
        "evacuation",
        "park",
        "wake",
        "consolidation",
        "dod_goal",
        "span_start",
        "span_end",
        "cell_start",
        "cell_cache_hit",
        "cell_retry",
        "cell_finish",
        "campaign_start",
        "campaign_finish",
    }
)

#: Kinds that represent a control decision acting on the cluster.
ACTION_KINDS = (
    "slowdown_action",
    "vm_migrated",
    "dvfs_cap",
    "dvfs_uncap",
    "evacuation",
    "park",
    "wake",
    "consolidation",
    "dod_goal",
)

#: The subset ``repro explain`` walks by default (the Fig.-9 outcomes).
DEFAULT_EXPLAIN_KINDS = (
    "slowdown_action",
    "vm_migrated",
    "dvfs_cap",
    "park",
    "wake",
    "evacuation",
)

#: ``cell_*`` events run on the campaign wall clock, not the sim clock.
CAMPAIGN_EVENT_KINDS = frozenset(
    {
        "cell_start",
        "cell_cache_hit",
        "cell_retry",
        "cell_finish",
        "campaign_start",
        "campaign_finish",
    }
)


@dataclass
class SpanRecord:
    """One span interval reconstructed from start/end events."""

    span_id: int
    name: str
    node: str
    scope: str
    t_start: float
    parent_id: int = 0
    cause_id: int = 0
    t_end: Optional[float] = None
    duration_s: Optional[float] = None
    end_eid: int = 0

    @property
    def open(self) -> bool:
        return self.t_end is None


@dataclass
class RunInfo:
    """One simulation run seen in the stream (for display scoping)."""

    start_eid: int
    policy: str
    t_start: float
    n_nodes: int = 0
    n_actions: int = 0


class ProvenanceIndex(EventSink):
    """Rebuilds the causal DAG from events, live or from a trace."""

    def __init__(self) -> None:
        self.n_events = 0
        self.event_counts: Dict[str, int] = {}
        self.events: Dict[int, TraceEvent] = {}
        self.spans: Dict[int, SpanRecord] = {}
        self.actions: List[int] = []
        self.runs: List[RunInfo] = []
        #: ``span/<name>`` duration histograms, same shape the live
        #: registry exports to OpenMetrics.
        self.registry = MetricRegistry()
        self.registry.enabled = True

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, path: str, strict: bool = False) -> "ProvenanceIndex":
        """Replay a JSONL trace."""
        index = cls()
        for event in iter_events(path, strict=strict):
            index.emit(event)
        return index

    def emit(self, event: TraceEvent) -> None:
        self.n_events += 1
        kind = event.kind
        self.event_counts[kind] = self.event_counts.get(kind, 0) + 1
        if kind not in INDEXED_KINDS or not event.eid:
            return
        self.events[event.eid] = event
        if kind == "run_start":
            self.runs.append(
                RunInfo(
                    start_eid=event.eid,
                    policy=getattr(event, "policy", ""),
                    t_start=event.t,
                    n_nodes=getattr(event, "n_nodes", 0),
                )
            )
        elif kind == "span_start":
            self.spans[event.eid] = SpanRecord(
                span_id=event.eid,
                name=getattr(event, "span", ""),
                node=getattr(event, "node", ""),
                scope=getattr(event, "scope", "run"),
                t_start=event.t,
                parent_id=getattr(event, "parent_id", 0),
                cause_id=event.cause_id,
            )
        elif kind == "span_end":
            record = self.spans.get(event.span_id)
            if record is not None and record.open:
                record.t_end = event.t
                record.duration_s = getattr(
                    event, "duration_s", event.t - record.t_start
                )
                record.end_eid = event.eid
                self.registry.histogram(f"span/{record.name}").observe(
                    record.duration_s
                )
        elif kind in ACTION_KINDS:
            self.actions.append(event.eid)
            if self.runs:
                self.runs[-1].n_actions += 1

    # ------------------------------------------------------------------
    # Chain walking
    # ------------------------------------------------------------------
    def _next_link(self, event: TraceEvent) -> int:
        """The eid one step up the causal chain (0 at a root)."""
        if event.cause_id:
            return event.cause_id
        parent = getattr(event, "parent_id", 0)
        if parent:
            return parent
        if event.span_id and event.span_id != event.eid:
            return event.span_id
        return 0

    def chain(self, eid: int) -> List[TraceEvent]:
        """The causal chain from ``eid`` back to its root, inclusive.

        Walks ``cause_id`` first, then a span-start's ``parent_id``,
        then the enclosing span — with a cycle guard, since ids come
        from (possibly hand-edited) trace files.
        """
        out: List[TraceEvent] = []
        seen: set = set()
        current = self.events.get(eid)
        while current is not None and current.eid not in seen:
            seen.add(current.eid)
            out.append(current)
            current = self.events.get(self._next_link(current))
        return out

    def trigger_of(self, chain: List[TraceEvent]) -> str:
        """Classify a chain by what tripped it (for aggregate stats).

        Preference order: the first alert rule in the chain (the Fig.-9
        DDT/DR checks are alert rules), then the monitor's own recorded
        trigger, then the first enclosing span, then the root kind.
        """
        if not chain:
            return "unattributed"
        for event in chain:
            if event.kind == "alert":
                return f"alert:{getattr(event, 'rule', '?')}"
        trigger = getattr(chain[0], "trigger", "")
        if trigger:
            return f"monitor:{trigger}"
        for event in chain[1:]:
            if event.kind == "span_start":
                return f"span:{getattr(event, 'span', '?')}"
            if event.kind == "consolidation":
                return "consolidation"
            if event.kind == "dod_goal":
                return "dod_goal"
        if len(chain) > 1:
            return chain[-1].kind
        return "unattributed"

    def _matches_node(self, event: TraceEvent, node: str) -> bool:
        for attr in ("node", "source", "dest"):
            if getattr(event, attr, None) == node:
                return True
        return False

    def action_chains(
        self,
        kinds: Optional[Iterable[str]] = None,
        node: Optional[str] = None,
    ) -> List[List[TraceEvent]]:
        """Chains for every recorded action, filtered by kind/node."""
        wanted = set(kinds) if kinds is not None else set(DEFAULT_EXPLAIN_KINDS)
        out = []
        for eid in self.actions:
            event = self.events[eid]
            if event.kind not in wanted:
                continue
            if node and not self._matches_node(event, node):
                continue
            out.append(self.chain(eid))
        return out

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def action_summary(self) -> Dict[str, Dict[str, int]]:
        """``{action kind: {trigger label: count}}`` over all actions."""
        summary: Dict[str, Dict[str, int]] = {}
        for eid in self.actions:
            event = self.events[eid]
            label = self.trigger_of(self.chain(eid))
            per_kind = summary.setdefault(event.kind, {})
            per_kind[label] = per_kind.get(label, 0) + 1
        return summary

    def span_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name interval stats (closed durations + open count)."""
        stats: Dict[str, Dict[str, float]] = {}
        for name, hist in sorted(self.registry.snapshot()["histograms"].items()):
            if name.startswith("span/"):
                stats[name[len("span/") :]] = dict(hist, open=0)
        for record in self.spans.values():
            if record.open:
                entry = stats.setdefault(
                    record.name,
                    {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0},
                )
                entry["open"] = entry.get("open", 0) + 1
        return stats

    def open_spans(self) -> List[SpanRecord]:
        return [r for r in self.spans.values() if r.open]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    @staticmethod
    def _fmt_t(event: TraceEvent) -> str:
        scope = getattr(event, "scope", "run")
        if event.kind in CAMPAIGN_EVENT_KINDS or scope == "campaign":
            return f"[+{event.t:.1f}s]"
        day = int(event.t // 86400.0)
        tod = event.t - day * 86400.0
        return f"[d{day} {int(tod) // 3600:02d}:{int(tod) % 3600 // 60:02d}]"

    @staticmethod
    def _pct(x: float) -> str:
        return f"{100.0 * x:.1f} %"

    def describe_event(self, event: TraceEvent) -> str:
        """One human-readable line for a chain element."""
        k = event.kind
        g = lambda a, d=None: getattr(event, a, d)  # noqa: E731
        if k == "soc_crossing":
            body = (
                f"SoC crossing {g('direction')} {self._pct(g('soc', 0.0))} "
                f"on {g('node')} (line {self._pct(g('threshold', 0.0))})"
            )
        elif k == "alert":
            state = "cleared" if g("cleared") else g("severity", "warning")
            body = (
                f"alert {g('rule')} [{state}] on {g('node')} "
                f"(value {g('value', 0.0):.4g}, threshold {g('threshold', 0.0):.4g})"
            )
        elif k == "span_start":
            body = f"span {g('span')} opened on {g('node') or 'cluster'}"
        elif k == "span_end":
            body = (
                f"span {g('span')} closed on {g('node') or 'cluster'} "
                f"after {g('duration_s', 0.0):.0f} s"
            )
        elif k == "slowdown_action":
            trigger = g("trigger", "")
            suffix = f" [trigger {trigger}]" if trigger else ""
            body = (
                f"slowdown {g('action')} on {g('node')} "
                f"(SoC {self._pct(g('soc', 0.0))}, draw {g('draw_w', 0.0):.0f} W)"
                f"{suffix}"
            )
        elif k == "dvfs_cap":
            body = (
                f"DVFS cap on {g('node')} -> step {g('freq_index')} "
                f"({self._pct(g('freq', 1.0))} freq)"
            )
        elif k == "dvfs_uncap":
            body = (
                f"DVFS uncap on {g('node')} -> step {g('freq_index')} "
                f"({self._pct(g('freq', 1.0))} freq)"
            )
        elif k == "vm_migrated":
            body = f"migration {g('vm')}: {g('source')} -> {g('dest')}"
        elif k == "vm_placed":
            body = f"placement {g('vm')} -> {g('node')}"
        elif k == "park":
            body = f"park {g('node')} ({g('reason')})"
        elif k == "wake":
            body = f"wake {g('node')} ({g('reason')})"
        elif k == "evacuation":
            body = f"evacuation of {g('node')} ({g('moved')} VM(s))"
        elif k == "consolidation":
            body = (
                f"consolidation: {g('supportable')} supportable, "
                f"{g('n_active')} active, {g('n_victims')} victim(s)"
            )
        elif k == "dod_goal":
            body = (
                f"DoD goal on {g('node')}: {g('goal', 0.0):.3f} "
                f"(threshold {self._pct(g('threshold', 0.0))})"
            )
        elif k == "brownout":
            body = f"brownout on {g('node')} ({g('shortfall_w', 0.0):.0f} W short)"
        elif k == "run_start":
            body = f"run start (policy {g('policy')}, {g('n_nodes')} nodes)"
        elif k.startswith("cell_"):
            body = f"{k} {g('label', '')}"
        else:
            body = k
        return f"{self._fmt_t(event)} {body} (#{event.eid})"

    def render_chain(self, chain: List[TraceEvent]) -> List[str]:
        """Chain as indented ``←`` lines, action first."""
        lines = []
        for depth, event in enumerate(chain):
            prefix = "  " * depth + ("← " if depth else "")
            lines.append(prefix + self.describe_event(event))
        return lines


# ----------------------------------------------------------------------
# Trace validation (`repro trace validate`)
# ----------------------------------------------------------------------
@dataclass
class TraceViolation:
    """One broken invariant at a specific trace line."""

    path: str
    line_no: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line_no}: {self.message}"


@dataclass
class TraceValidation:
    """Outcome of :func:`validate_trace`."""

    path: str
    n_lines: int = 0
    n_valid: int = 0
    n_runs: int = 0
    kind_counts: Dict[str, int] = field(default_factory=dict)
    violations: List[TraceViolation] = field(default_factory=list)
    open_spans: List[Tuple[int, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"{self.path}: {self.n_valid}/{self.n_lines} valid event line(s), "
            f"{self.n_runs} run(s), {len(self.open_spans)} span(s) left open "
            f"-> {status}"
        )


def _field_type_ok(value: Any, default: Any) -> bool:
    """Does ``value`` fit the field whose default is ``default``?

    ``bool`` is checked before ``int`` (bool subclasses int); ints are
    accepted where floats are expected (JSON does not keep ``2.0``
    apart from ``2`` after arithmetic upstream).
    """
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, str):
        return isinstance(value, str)
    return True


def _class_field_defaults(cls: Type[TraceEvent]) -> Dict[str, Any]:
    return {f.name: f.default for f in fields(cls)}


def validate_trace(path: str, max_violations: int = 100) -> TraceValidation:
    """Check a JSONL trace's structural invariants line by line.

    - every line parses as a JSON object whose ``kind`` is registered in
      :data:`~repro.obs.events.EVENT_TYPES`, with no unknown fields and
      values matching the dataclass field types;
    - ``t`` is monotonically non-decreasing within each clock domain:
      per simulation run (reset at each ``run_start``) for engine
      events, and across the file for campaign-clock events (``cell_*``,
      campaign-scope spans, campaign alerts);
    - every ``span_end`` names a ``span_start`` seen earlier; spans
      still open at EOF are reported but are not violations (a trace
      may legitimately end mid-excursion).

    A torn final line (the writer died mid-line) is a violation here,
    though :func:`~repro.obs.events.iter_events` skips it when lenient.
    Collection stops after ``max_violations`` so a corrupt gigabyte
    file fails fast.
    """
    result = TraceValidation(path=path)
    field_cache: Dict[str, Dict[str, Any]] = {}
    open_spans: Dict[int, Tuple[str, str]] = {}
    last_t_run: Optional[float] = None
    last_t_campaign: Optional[float] = None
    last_run_kind = ""
    # battery_frame chain state, reset at every run boundary: the
    # roster size declared by the run's first frame, and the last seq
    # seen (frames delta-encode, so a gap breaks every later frame).
    frame_roster: Optional[int] = None
    last_frame_seq: Optional[int] = None
    truncated = False

    def violation(line_no: int, message: str) -> bool:
        result.violations.append(TraceViolation(path, line_no, message))
        return len(result.violations) >= max_violations

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, data in decode_trace_lines(fh):
            result.n_lines += 1
            if isinstance(data, ValueError):
                truncated = violation(line_no, f"bad JSON: {data}")
                if truncated:
                    break
                continue
            if not isinstance(data, dict):
                truncated = violation(line_no, "line is not an object")
                if truncated:
                    break
                continue
            kind = data.get("kind")
            cls = EVENT_TYPES.get(kind or "")
            if cls is None:
                truncated = violation(line_no, f"unknown event kind {kind!r}")
                if truncated:
                    break
                continue
            defaults = field_cache.get(kind)  # type: ignore[arg-type]
            if defaults is None:
                defaults = field_cache[kind] = _class_field_defaults(cls)
            bad = False
            for name, value in data.items():
                if name == "kind":
                    continue
                if name not in defaults:
                    truncated = violation(
                        line_no,
                        f"unknown field {name!r} on kind {kind!r}",
                    )
                    bad = True
                    break
                if not _field_type_ok(value, defaults[name]):
                    truncated = violation(
                        line_no,
                        f"field {name!r} on kind {kind!r} has "
                        f"{type(value).__name__} value {value!r}",
                    )
                    bad = True
                    break
            if truncated:
                break
            if bad:
                continue
            result.n_valid += 1
            result.kind_counts[kind] = result.kind_counts.get(kind, 0) + 1

            if kind == "trace_meta":
                schema = data.get("schema", 0)
                if schema != SCHEMA_VERSION:
                    truncated = violation(
                        line_no,
                        f"trace schema {schema} is not the supported "
                        f"version {SCHEMA_VERSION}",
                    )
                    if truncated:
                        break
            elif kind == "battery_frame":
                n = data.get("n", 0)
                nodes_text = data.get("nodes", "")
                seq = data.get("seq", 0)
                frame_problems = []
                if nodes_text:
                    frame_roster = len(nodes_text.split(","))
                    if seq != 0:
                        frame_problems.append(
                            f"roster carried on mid-run frame seq={seq}"
                        )
                if frame_roster is None:
                    frame_problems.append(
                        "frame before any roster-carrying frame"
                    )
                elif n != frame_roster:
                    frame_problems.append(
                        f"n={n} does not match roster of {frame_roster}"
                    )
                if last_frame_seq is not None and seq != last_frame_seq + 1:
                    frame_problems.append(
                        f"seq {seq} after {last_frame_seq} "
                        f"(delta chain broken)"
                    )
                last_frame_seq = seq
                for column in ("soc", "cur"):
                    text = data.get(column, "")
                    count = len(text.split(",")) if text else 0
                    if count != n:
                        frame_problems.append(
                            f"{column} column has {count} entries, "
                            f"expected {n}"
                        )
                for problem in frame_problems:
                    truncated = violation(line_no, "battery_frame: " + problem)
                    if truncated:
                        break
                if truncated:
                    break

            t = data.get("t", 0.0)
            scope = data.get("scope", "run")
            campaign_clock = (
                kind in CAMPAIGN_EVENT_KINDS
                or (kind in ("span_start", "span_end") and scope == "campaign")
                or (kind == "alert" and data.get("node") == "campaign")
            )
            if kind == "run_start" or kind == "trace_meta":
                # Both open a fresh run scope: trace_meta is the
                # header stamped just before its run_start.
                last_t_run = t
                last_run_kind = kind
                frame_roster = None
                last_frame_seq = None
                if kind == "run_start":
                    result.n_runs += 1
            elif campaign_clock:
                if last_t_campaign is not None and t < last_t_campaign:
                    truncated = violation(
                        line_no,
                        f"campaign clock went backwards: {kind} at t={t} "
                        f"after t={last_t_campaign}",
                    )
                    if truncated:
                        break
                    continue
                last_t_campaign = t
            else:
                if last_t_run is not None and t < last_t_run:
                    truncated = violation(
                        line_no,
                        f"run clock went backwards: {kind} at t={t} "
                        f"after {last_run_kind} at t={last_t_run}",
                    )
                    if truncated:
                        break
                    continue
                if last_t_run is not None or kind != "alert":
                    last_t_run, last_run_kind = t, kind

            if kind == "span_start":
                span_id = data.get("span_id") or data.get("eid") or 0
                if not span_id:
                    truncated = violation(line_no, "span_start without a span_id")
                    if truncated:
                        break
                    continue
                if span_id in open_spans:
                    truncated = violation(line_no, f"span id {span_id} opened twice")
                    if truncated:
                        break
                    continue
                open_spans[span_id] = (
                    data.get("span", ""),
                    data.get("node", ""),
                )
            elif kind == "span_end":
                span_id = data.get("span_id", 0)
                if span_id not in open_spans:
                    truncated = violation(
                        line_no,
                        f"span_end for span id {span_id} "
                        f"({data.get('span', '?')}) without a matching "
                        f"span_start",
                    )
                    if truncated:
                        break
                    continue
                del open_spans[span_id]

    result.open_spans = [
        (span_id, name, node)
        for span_id, (name, node) in sorted(open_spans.items())
    ]
    return result


__all__ = [
    "ACTION_KINDS",
    "CAMPAIGN_EVENT_KINDS",
    "DEFAULT_EXPLAIN_KINDS",
    "INDEXED_KINDS",
    "ProvenanceIndex",
    "RunInfo",
    "SpanRecord",
    "TraceValidation",
    "TraceViolation",
    "validate_trace",
]
