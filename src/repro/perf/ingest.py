"""Turn an end-to-end benchmark document into one perf record.

``repro perf`` records one document shape: the ``--json`` output of a
full-scale, untraced ``benchmarks/e2e/run.py`` pass, the yardstick that
``benchmarks/e2e/compare.py`` judges a change by. :func:`e2e_record`
flattens each workload's host-scaled end-to-end metrics
(``workloads[w]["metrics"][m]["value"]``) to ``<workload>/<metric>``
series (``sweep-paper/cells_per_s``, ``fleet-idle-1024/peak_rss_mb``)
and stamps the record with the document's own ``meta`` block, the
provenance collected when the benchmark ran.

A ``--scale smoke`` or ``--trace 1`` document is refused: its numbers
would land in the full-scale series under the same names. So is a
document in which any workload failed a cell or did not match its
golden digest: the timing of a wrong run is not a measurement.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import ConfigurationError
from repro.perf.store import PerfRecord

#: The end-to-end metrics of ``BENCHMARK.json`` and which way is better.
E2E_METRICS = {
    "setup_s": "lower",
    "wall_s": "lower",
    "node_steps_per_s": "higher",
    "cells_per_s": "higher",
    "peak_rss_mb": "lower",
}

_EXPECTED = (
    "expected the --json document of a full-scale, untraced "
    "'benchmarks/e2e/run.py' pass"
)


def _refuse(why: str) -> ConfigurationError:
    return ConfigurationError(f"{why}; {_EXPECTED}")


def e2e_record(data: Any) -> PerfRecord:
    """One e2e ``run.py --json`` document -> one :class:`PerfRecord`."""
    if not isinstance(data, dict) or data.get("benchmark") != "e2e":
        shape = (
            f"top-level keys {sorted(data)[:8]}" if isinstance(data, dict)
            else f"a JSON {type(data).__name__}"
        )
        raise _refuse(f"not an end-to-end benchmark document ({shape})")
    workloads = data.get("workloads")
    meta = data.get("meta")
    if not isinstance(workloads, dict) or not workloads:
        raise _refuse("the document holds no workloads")
    if not isinstance(meta, dict) or not meta:
        raise _refuse("the document carries no meta block")
    metrics: Dict[str, float] = {}
    for name, result in sorted(workloads.items()):
        result = result if isinstance(result, dict) else {}
        scale, trace = result.get("scale"), result.get("trace")
        if scale != "full" or trace:
            raise _refuse(f"workload {name!r} ran at scale {scale!r}, trace {trace!r}")
        failed, golden = result.get("failed"), result.get("golden")
        if not isinstance(failed, int) or isinstance(failed, bool) or failed != 0:
            raise ConfigurationError(
                f"workload {name!r} is a failed run ({failed!r} failed cell(s)); "
                "a run with failures is not recorded"
            )
        if golden != "match":
            raise ConfigurationError(
                f"workload {name!r} is a wrong run (golden {golden!r}, not 'match'); "
                "a run that misses its golden digest is not recorded"
            )
        for metric in E2E_METRICS:
            entry = (result.get("metrics") or {}).get(metric)
            value = entry.get("value") if isinstance(entry, dict) else None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise _refuse(f"workload {name!r} has no {metric} value")
            metrics[f"{name}/{metric}"] = float(value)
    return PerfRecord(
        meta={str(k): str(v) for k, v in meta.items()}, metrics=metrics
    )
