"""Flatten bench payloads into named metric series.

Every producer the repo has — ``bench_engine.py`` (``BENCH_engine.json``),
``bench_obs_overhead.py`` (``BENCH_obs.json``), and the pytest bench
suite (``benchmarks/conftest.py --bench-json``) — writes a
differently-shaped document.
:func:`extract_metrics` detects which one it is looking at and flattens
it to ``metric-name -> float``, the only shape the history store and the
regression detector consume. Names are stable, ``/``-separated paths
(``engine/n48/fleet_steps_per_s``, ``obs/fleet/traced_ratio``), so one
metric is one longitudinal series regardless of which payload carried it.

Booleans (the ``ok_*`` gate flags) and non-numeric leaves are dropped:
pass/fail is the static gates' job; this layer records the measurements
themselves.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.errors import ConfigurationError

#: Keys copied from one ``sizes``/``fleet_only`` row of an engine bench.
_ENGINE_SIZE_KEYS = (
    "reference_s",
    "fleet_s",
    "reference_steps_per_s",
    "fleet_steps_per_s",
    "speedup",
)

#: Keys copied from one ``phase_curve`` row of an engine bench.
_ENGINE_CURVE_KEYS = (
    "control_s",
    "power_s",
    "control_us_per_step",
    "control_over_power",
)

#: Top-level scalars of an obs-overhead payload worth a series.
_OBS_SCALAR_KEYS = (
    "disabled_s",
    "null_s",
    "full_s",
    "alerting_s",
    "null_overhead_pct",
    "full_overhead_pct",
    "alerting_overhead_pct",
    "steps_per_s_disabled",
    "steps_per_s_alerting",
)

_OBS_FLEET_KEYS = (
    "untraced_s",
    "frame_traced_s",
    "traced_ratio",
    "frame_trace_bytes",
)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _put(out: Dict[str, float], name: str, value: Any) -> None:
    if _is_number(value):
        out[name] = float(value)


def flatten_engine_bench(data: Dict[str, Any]) -> Dict[str, float]:
    """``BENCH_engine.json``'s ``engine_bench`` block -> metric series."""
    out: Dict[str, float] = {}
    for row in data.get("sizes", []):
        prefix = f"engine/n{row.get('n_nodes', 0)}"
        for key in _ENGINE_SIZE_KEYS:
            _put(out, f"{prefix}/{key}", row.get(key))
    for row in data.get("fleet_only", []):
        prefix = f"engine/n{row.get('n_nodes', 0)}"
        for key in ("fleet_s", "fleet_steps_per_s"):
            _put(out, f"{prefix}/{key}", row.get(key))
    for row in data.get("phase_curve", []):
        prefix = f"engine/curve/n{row.get('n_nodes', 0)}"
        for key in _ENGINE_CURVE_KEYS:
            _put(out, f"{prefix}/{key}", row.get(key))
    for stepper, phases in data.get("phase_breakdown", {}).items():
        for phase, stats in phases.items():
            if isinstance(stats, dict):
                _put(
                    out,
                    f"engine/phase/{stepper}/{phase}_total_s",
                    stats.get("total"),
                )
    return out


def flatten_obs_overhead(data: Dict[str, Any]) -> Dict[str, float]:
    """``BENCH_obs.json``'s ``obs_overhead`` block -> metric series."""
    out: Dict[str, float] = {}
    for key in _OBS_SCALAR_KEYS:
        _put(out, f"obs/{key}", data.get(key))
    fleet = data.get("fleet") or {}
    for key in _OBS_FLEET_KEYS:
        _put(out, f"obs/fleet/{key}", fleet.get(key))
    return out


def _bench_id(nodeid: str) -> str:
    """A compact series name for one pytest bench nodeid."""
    short = nodeid
    if short.startswith("benchmarks/"):
        short = short[len("benchmarks/"):]
    if short.endswith(".py") or ".py::" in short:
        short = short.replace(".py::", ":").replace(".py", "")
    return short.replace("::", ":")


def flatten_bench_suite(data: Dict[str, Any]) -> Dict[str, float]:
    """A ``--bench-json`` suite report -> per-bench wall-time series.

    Only passed benches contribute (a failed bench's wall time measures
    the failure, not the code), and an embedded ``obs_overhead`` payload
    flattens through :func:`flatten_obs_overhead` into the same record.
    """
    out: Dict[str, float] = {}
    for nodeid, entry in (data.get("benches") or {}).items():
        if not isinstance(entry, dict):
            continue
        if entry.get("outcome", "passed") != "passed":
            continue
        _put(out, f"bench/{_bench_id(nodeid)}/wall_s", entry.get("wall_s"))
    if isinstance(data.get("obs_overhead"), dict):
        out.update(flatten_obs_overhead(data["obs_overhead"]))
    return out


def detect_source(data: Dict[str, Any]) -> str:
    """Which producer wrote this document?

    Detection keys mirror each writer's unique top-level structure;
    unknown documents raise :class:`~repro.errors.ConfigurationError`
    so a typo'd path fails loudly instead of recording nothing.
    """
    if not isinstance(data, dict):
        raise ConfigurationError("perf payload must be a JSON object")
    if "engine_bench" in data:
        return "engine_bench"
    if "benches" in data:
        return "bench_suite"
    if "obs_overhead" in data:
        return "obs_overhead"
    raise ConfigurationError(
        "unrecognised perf payload: expected a BENCH_engine.json, "
        "BENCH_obs.json, or --bench-json report shape, got top-level "
        f"keys {sorted(data)[:8]}"
    )


def extract_metrics(data: Dict[str, Any]) -> Tuple[str, Dict[str, float]]:
    """Detect the payload type and flatten it; ``(source, metrics)``."""
    source = detect_source(data)
    if source == "engine_bench":
        metrics = flatten_engine_bench(data["engine_bench"])
    elif source == "bench_suite":
        metrics = flatten_bench_suite(data)
    else:
        metrics = flatten_obs_overhead(data["obs_overhead"])
    if not metrics:
        raise ConfigurationError(
            f"perf payload of source {source!r} flattened to no metrics"
        )
    return source, metrics
