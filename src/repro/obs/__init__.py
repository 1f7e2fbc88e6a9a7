"""Structured telemetry: event bus, metrics, alerts, health, exporters.

The observability substrate every control decision reports through:

- :data:`BUS` — the process-local :class:`~repro.obs.bus.TraceBus`;
  engine, policies, power path, and campaign runner emit typed
  :class:`~repro.obs.events.TraceEvent` objects to it when enabled.
- :data:`REGISTRY` — the process-local
  :class:`~repro.obs.metrics.MetricRegistry` holding counters, gauges,
  and histograms (notably the engine's step-phase timers).
- :data:`ALERTS` — the process-local
  :class:`~repro.obs.alerts.AlertEngine`; the slowdown monitor, planned
  aging, and campaign runner feed it threshold observations, and fired
  alerts go back onto :data:`BUS` as ``alert`` events.
- :class:`~repro.obs.health.FleetHealthModel` folds the stream (live or
  a replayed JSONL trace) into per-battery aging attribution.
- :data:`SPANS` — the process-local :class:`~repro.obs.spans.
  SpanManager`; control paths open/close causal intervals on it, and
  the ``caused_by``/``in_span`` context managers stamp provenance ids
  onto every event emitted inside them.
- :class:`~repro.obs.provenance.ProvenanceIndex` rebuilds the causal
  DAG (live or from a trace) behind ``repro explain``;
  :func:`~repro.obs.provenance.validate_trace` backs
  ``repro trace validate``.
- :mod:`repro.obs.export` serialises the registry (OpenMetrics / CSV).

All three process-local singletons are *disabled* by default, and every
instrumented call site guards on a single ``enabled`` attribute, so the
layer is near-free when off (verified by
``benchmarks/bench_obs_overhead.py``).

Typical use::

    from repro.obs import BUS, REGISTRY, enable_observability

    with BUS.trace_to("out.jsonl"):
        run_policy_on_trace(scenario, policy, trace)

or, for the CLI's ``--trace`` flag, :func:`enable_observability` /
:func:`disable_observability` manage a JSONL sink plus the registry and
alert engine in one call.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.alerts import (
    ALERTS,
    AlertEngine,
    AlertRule,
    default_rules,
    severity_rank,
)
from repro.obs.bus import BUS, TraceBus
from repro.obs.campaign_monitor import (
    CampaignMonitor,
    render_dashboard,
    write_summary,
)
from repro.obs.capture import (
    DEFAULT_CAPTURE_MAXLEN,
    CaptureConfig,
    CaptureSink,
    CellCapture,
    replay_capture,
    run_captured,
    summarize_health,
)
from repro.obs.events import (
    EVENT_TYPES,
    AlertEvent,
    BatteryConfigEvent,
    BatteryFrameEvent,
    BatterySampleEvent,
    BrownoutEvent,
    CampaignFinishEvent,
    CampaignStartEvent,
    CellCacheHitEvent,
    CellFinishEvent,
    CellHealthEvent,
    CellRetryEvent,
    CellStartEvent,
    ConsolidationEvent,
    DayStartEvent,
    DoDGoalEvent,
    DvfsCapEvent,
    DvfsUncapEvent,
    EvacuationEvent,
    FleetSummaryEvent,
    ParkEvent,
    PerfRegressionEvent,
    RunStartEvent,
    SlowdownActionEvent,
    SocCrossingEvent,
    SpanEndEvent,
    SpanStartEvent,
    TraceEvent,
    TraceMetaEvent,
    TraceTailer,
    VMMigratedEvent,
    VMPlacedEvent,
    WakeEvent,
    event_from_dict,
    iter_events,
    read_events,
    trace_segments,
)
from repro.obs.export import (
    PeriodicExportSink,
    parse_openmetrics,
    to_csv_snapshot,
    to_openmetrics,
    write_export,
)
from repro.obs.health import FleetHealthModel, FleetHealthReport
from repro.obs.metrics import (
    DEFAULT_SAMPLE_LIMIT,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    P2Quantile,
)
from repro.obs.provenance import (
    ProvenanceIndex,
    TraceValidation,
    validate_trace,
)
from repro.obs.sinks import (
    DEFAULT_MEMORY_SINK_MAXLEN,
    EventSink,
    JsonlSink,
    MemorySink,
    NullSink,
)
from repro.obs.spans import (
    SPANS,
    SpanManager,
    caused_by,
    current_cause,
    current_span,
    in_span,
)
from repro.obs.telemetry import (
    SCHEMA_VERSION,
    TELEMETRY,
    BatteryTelemetry,
    FrameDecoder,
    FrameEncoder,
    TelemetryPolicy,
    expand_frame,
    make_battery_sample,
    parse_telemetry,
)
from repro.obs.timers import STEP_PHASES, StepPhaseTimers, time_phase

__all__ = [
    "BUS",
    "REGISTRY",
    "ALERTS",
    "SPANS",
    "EVENT_TYPES",
    "STEP_PHASES",
    "DEFAULT_MEMORY_SINK_MAXLEN",
    "TraceBus",
    "TraceEvent",
    "MetricRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "EventSink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "StepPhaseTimers",
    "time_phase",
    "AlertEngine",
    "AlertRule",
    "default_rules",
    "severity_rank",
    "FleetHealthModel",
    "FleetHealthReport",
    "PeriodicExportSink",
    "to_openmetrics",
    "parse_openmetrics",
    "to_csv_snapshot",
    "write_export",
    "event_from_dict",
    "iter_events",
    "read_events",
    "trace_segments",
    "enable_observability",
    "disable_observability",
    "SpanManager",
    "caused_by",
    "in_span",
    "current_cause",
    "current_span",
    "ProvenanceIndex",
    "TraceValidation",
    "validate_trace",
    "RunStartEvent",
    "DayStartEvent",
    "SocCrossingEvent",
    "BrownoutEvent",
    "BatteryConfigEvent",
    "BatterySampleEvent",
    "BatteryFrameEvent",
    "FleetSummaryEvent",
    "TraceMetaEvent",
    "SCHEMA_VERSION",
    "TELEMETRY",
    "BatteryTelemetry",
    "TelemetryPolicy",
    "parse_telemetry",
    "FrameEncoder",
    "FrameDecoder",
    "expand_frame",
    "make_battery_sample",
    "AlertEvent",
    "VMPlacedEvent",
    "VMMigratedEvent",
    "SlowdownActionEvent",
    "DvfsCapEvent",
    "DvfsUncapEvent",
    "EvacuationEvent",
    "ParkEvent",
    "WakeEvent",
    "ConsolidationEvent",
    "DoDGoalEvent",
    "PerfRegressionEvent",
    "CellStartEvent",
    "CellCacheHitEvent",
    "CellRetryEvent",
    "CellFinishEvent",
    "CellHealthEvent",
    "CampaignStartEvent",
    "CampaignFinishEvent",
    "SpanStartEvent",
    "SpanEndEvent",
    "TraceTailer",
    "CampaignMonitor",
    "render_dashboard",
    "write_summary",
    "CaptureConfig",
    "CaptureSink",
    "CellCapture",
    "DEFAULT_CAPTURE_MAXLEN",
    "DEFAULT_SAMPLE_LIMIT",
    "P2Quantile",
    "run_captured",
    "replay_capture",
    "summarize_health",
]

_active_jsonl: Optional[JsonlSink] = None


def enable_observability(
    trace_path: Optional[str] = None,
    compress: Optional[bool] = None,
    rotate_bytes: Optional[int] = None,
    rotate_events: Optional[int] = None,
    telemetry=None,
) -> Optional[JsonlSink]:
    """Turn the full layer on: registry, alert engine, optional JSONL sink.

    Returns the attached sink (``None`` when no path was given). The CLI
    uses this behind ``--trace``; call :func:`disable_observability` to
    tear it back down. The process alert engine gets the standard
    :func:`~repro.obs.alerts.default_rules` on first enable (rules added
    beforehand are kept) and publishes onto :data:`BUS`.

    ``compress``/``rotate_bytes``/``rotate_events`` pass through to
    :class:`~repro.obs.sinks.JsonlSink` (the ``--trace-gzip`` /
    ``--trace-rotate-mb`` CLI flags). ``telemetry`` (a spec string or
    :class:`~repro.obs.telemetry.TelemetryPolicy`) selects the battery
    telemetry tier — the ``--telemetry`` flag; the default keeps the
    lossless per-node ``full-events`` stream.
    """
    global _active_jsonl
    if telemetry is not None:
        TELEMETRY.set_policy(telemetry)
    REGISTRY.enabled = True
    if not ALERTS.rules:
        for rule in default_rules():
            ALERTS.add_rule(rule)
    ALERTS.bus = BUS
    ALERTS.enabled = True
    if trace_path is not None:
        _active_jsonl = JsonlSink(
            trace_path,
            compress=compress,
            rotate_bytes=rotate_bytes,
            rotate_events=rotate_events,
        )
        BUS.add_sink(_active_jsonl)
    return _active_jsonl


def disable_observability() -> None:
    """Detach the managed JSONL sink (if any) and disable the layer."""
    global _active_jsonl
    if _active_jsonl is not None:
        BUS.remove_sink(_active_jsonl)
        _active_jsonl.close()
        _active_jsonl = None
    REGISTRY.enabled = False
    ALERTS.enabled = False
    ALERTS.reset()
    SPANS.reset()
    TELEMETRY.set_policy(TelemetryPolicy())
