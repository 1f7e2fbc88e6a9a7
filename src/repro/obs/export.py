"""Metric export: the OpenMetrics/Prometheus text format.

The :class:`~repro.obs.metrics.MetricRegistry` is a process-local store;
:func:`to_openmetrics` renders it in the OpenMetrics text exposition
format (the `Prometheus scrape format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_), so a
simulated datacenter's telemetry drops straight into the dashboards a
production fleet would use. :func:`write_export` writes that text to a
file, and :func:`parse_openmetrics` reads it back (round-trip tested).

Histograms export as the OpenMetrics ``histogram`` type: cumulative
``_bucket{le="..."}`` samples at each nonzero bucket's upper bound (the
registry's fixed log-spaced layout), a ``le="+Inf"`` bucket equal to
``_count``, then ``_count``/``_sum``, plus ``_min``/``_max`` gauges.
Quantiles are left to the consumer, which reads them from the buckets
as the registry does.
"""

from __future__ import annotations

import re
from typing import Any, Dict

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricRegistry

#: OpenMetrics metric names: letters, digits, underscores, colons; the
#: registry's dotted names (``engine.step.place``) map onto this.
_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")

#: A histogram's cumulative bucket sample: ``metric_bucket{le="..."}``.
_BUCKET_SAMPLE = re.compile(r'^(.+)_bucket\{le="([^"]+)"\}$')


def sanitize_metric_name(name: str) -> str:
    """Map a registry metric name onto the OpenMetrics charset."""
    out = _NAME_FIX.sub("_", name)
    if not out or not _NAME_OK.match(out):
        out = "_" + out
    return out


def to_openmetrics(registry: MetricRegistry, prefix: str = "repro") -> str:
    """Render a registry snapshot in OpenMetrics text format.

    Counters get the mandated ``_total`` sample suffix, gauges export
    verbatim, histograms as cumulative ``_bucket{le=...}`` samples plus
    ``_count``/``_sum`` and ``_min``/``_max`` gauges. Ends with the
    required ``# EOF`` marker.
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
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for le, n in hist["buckets"].items():
            cumulative += n
            if le != "+Inf":
                lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{metric}_count {hist['count']}")
        lines.append(f"{metric}_sum {hist['total']!r}")
        lines.append(f"# TYPE {metric}_min gauge")
        lines.append(f"{metric}_min {hist['min']!r}")
        lines.append(f"# TYPE {metric}_max gauge")
        lines.append(f"{metric}_max {hist['max']!r}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse :func:`to_openmetrics` output back into typed value maps.

    Returns ``{"counter": {...}, "gauge": {...}, "histogram": {...}}``
    keyed by the *exported* metric name (prefix included, ``_total`` and
    histogram suffixes stripped). A histogram maps to its ``count``/
    ``sum``/``min``/``max`` fields and ``buckets``: the cumulative count
    at each ``le`` bound as a float (``inf`` for ``+Inf``), in file
    order. Only the subset of the format :func:`to_openmetrics` emits is
    supported.
    """
    types: Dict[str, str] = {}
    out: Dict[str, Dict[str, Any]] = {"counter": {}, "gauge": {}, "histogram": {}}

    def histogram(base: str) -> Dict[str, Any]:
        return out["histogram"].setdefault(base, {"buckets": {}})

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
            match = _BUCKET_SAMPLE.match(name)
            if match is None or types.get(match.group(1)) != "histogram":
                raise ConfigurationError(
                    f"unsupported labelled OpenMetrics sample: {line!r}"
                )
            histogram(match.group(1))["buckets"][float(match.group(2))] = value
            continue
        base, suffix = name, ""
        for candidate in ("_total", "_count", "_sum", "_min", "_max"):
            if name.endswith(candidate):
                base, suffix = name[: -len(candidate)], candidate
                break
        if types.get(base) == "counter" and suffix == "_total":
            out["counter"][base] = value
        elif types.get(base) == "histogram" and suffix:
            # _count/_sum, and the _min/_max gauges typed on base+suffix.
            histogram(base)[suffix.lstrip("_")] = value
        elif types.get(name) == "gauge":
            out["gauge"][name] = value
        else:
            raise ConfigurationError(f"untyped OpenMetrics sample: {line!r}")
    return out


def write_export(
    registry: MetricRegistry, path: str, prefix: str = "repro"
) -> str:
    """Write the registry to ``path`` as OpenMetrics; returns the text."""
    text = to_openmetrics(registry, prefix=prefix)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
