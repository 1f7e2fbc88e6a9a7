"""Metric export: the OpenMetrics/Prometheus text format.

The :class:`~repro.obs.metrics.MetricRegistry` is a process-local store;
:func:`to_openmetrics` renders it in the OpenMetrics text exposition
format (the `Prometheus scrape format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_), so a
simulated datacenter's telemetry drops straight into the dashboards a
production fleet would use. :func:`write_export` writes that text to a
file, and :func:`parse_openmetrics` reads it back (round-trip tested).

Histograms are bucket-free summaries, so they export as the
``_count``/``_sum`` pair OpenMetrics defines plus ``_min``/``_max``
gauges (a common pattern for summary-style metrics) and the streaming
p50/p95/p99 estimates as the standard ``{quantile="..."}``-labelled
summary samples.
"""

from __future__ import annotations

import re
from typing import Dict

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricRegistry

#: OpenMetrics metric names: letters, digits, underscores, colons; the
#: registry's dotted names (``engine.step.place``) map onto this.
_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")

#: Histogram quantile keys and their OpenMetrics ``quantile`` label.
_QUANTILE_KEYS = (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99"))
_QUANTILE_BY_LABEL = {q: key for key, q in _QUANTILE_KEYS}


def sanitize_metric_name(name: str) -> str:
    """Map a registry metric name onto the OpenMetrics charset."""
    out = _NAME_FIX.sub("_", name)
    if not out or not _NAME_OK.match(out):
        out = "_" + out
    return out


def to_openmetrics(registry: MetricRegistry, prefix: str = "repro") -> str:
    """Render a registry snapshot in OpenMetrics text format.

    Counters get the mandated ``_total`` sample suffix, gauges export
    verbatim, histograms as ``_count``/``_sum`` plus ``_min``/``_max``
    gauges. Ends with the required ``# EOF`` marker.
    """
    snap = registry.snapshot()
    lines = []
    for name, value in snap["counters"].items():
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {value!r}")
    for name, value in snap["gauges"].items():
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value!r}")
    for name, hist in snap["histograms"].items():
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {metric} summary")
        for key, q in _QUANTILE_KEYS:
            if key in hist:
                lines.append(f'{metric}{{quantile="{q}"}} {hist[key]!r}')
        lines.append(f"{metric}_count {hist['count']!r}")
        lines.append(f"{metric}_sum {hist['total']!r}")
        lines.append(f"# TYPE {metric}_min gauge")
        lines.append(f"{metric}_min {hist['min']!r}")
        lines.append(f"# TYPE {metric}_max gauge")
        lines.append(f"{metric}_max {hist['max']!r}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> Dict[str, Dict[str, float]]:
    """Parse :func:`to_openmetrics` output back into typed value maps.

    Returns ``{"counter": {...}, "gauge": {...}, "summary": {...}}``
    keyed by the *exported* metric name (prefix included, ``_total`` and
    summary suffixes stripped). Summaries map to their
    ``count``/``sum``/``min``/``max`` fields. Only the subset of the
    format :func:`to_openmetrics` emits is supported.
    """
    types: Dict[str, str] = {}
    out: Dict[str, Dict[str, float]] = {"counter": {}, "gauge": {}, "summary": {}}
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            metric, _, mtype = rest.partition(" ")
            types[metric] = mtype
            continue
        if line.startswith("#"):
            continue
        name, _, value_str = line.rpartition(" ")
        if not name:
            raise ConfigurationError(f"malformed OpenMetrics line: {line!r}")
        value = float(value_str)
        if "{" in name:
            # A quantile-labelled summary sample: metric{quantile="0.5"}.
            base, _, labels = name.partition("{")
            match = re.match(r'quantile="([^"]+)"\}$', labels)
            key = _QUANTILE_BY_LABEL.get(match.group(1)) if match else None
            if key is None or types.get(base) != "summary":
                raise ConfigurationError(
                    f"unsupported labelled OpenMetrics sample: {line!r}"
                )
            out["summary"].setdefault(base, {})[key] = value
            continue
        base, suffix = name, ""
        for candidate in ("_total", "_count", "_sum", "_min", "_max"):
            if name.endswith(candidate):
                base, suffix = name[: -len(candidate)], candidate
                break
        if types.get(base) == "counter" and suffix == "_total":
            out["counter"][base] = value
        elif types.get(base) == "summary" and suffix in ("_count", "_sum"):
            field = "count" if suffix == "_count" else "sum"
            out["summary"].setdefault(base, {})[field] = value
        elif types.get(base) == "summary" and suffix in ("_min", "_max"):
            out["summary"].setdefault(base, {})[suffix.lstrip("_")] = value
        elif types.get(name) == "gauge":
            out["gauge"][name] = value
        elif types.get(base) == "gauge" and suffix:
            # A summary's _min/_max arrive typed as gauges on base+suffix.
            out["gauge"][name] = value
        else:
            raise ConfigurationError(f"untyped OpenMetrics sample: {line!r}")
    # Fold stray summary _min/_max gauges back under their summary.
    for name in list(out["gauge"]):
        for candidate in ("_min", "_max"):
            if name.endswith(candidate) and name[: -len(candidate)] in out["summary"]:
                out["summary"][name[: -len(candidate)]][candidate.lstrip("_")] = (
                    out["gauge"].pop(name)
                )
    return out


def write_export(
    registry: MetricRegistry, path: str, prefix: str = "repro"
) -> str:
    """Write the registry to ``path`` as OpenMetrics; returns the text."""
    text = to_openmetrics(registry, prefix=prefix)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
