"""Append-only, schema-versioned store of benchmark measurements.

One :class:`PerfRecord` per recorded end-to-end benchmark document,
holding the document's provenance ``meta`` block and its metrics
flattened to ``name -> float`` (:mod:`repro.perf.ingest`). Records serialise
one-per-line to JSONL, so the history file is an append-only log: CI
restores it, appends the fresh run, and re-caches it — nothing is ever
rewritten, and two processes appending interleave safely at line
granularity.

Forward compatibility mirrors the trace-event contract: every line
carries ``schema``; lines from a *newer* schema than this code are
skipped on read (counted in :attr:`PerfHistory.n_skipped`) instead of
poisoning the whole history, and unknown fields of the current schema
are dropped (lines written before the end-to-end benchmark became the
only input also carry a ``source`` key, which is ignored).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.perf.meta import host_fingerprint

#: Wire-schema version of one history line.
STORE_SCHEMA = 1


@dataclass
class PerfRecord:
    """One measurement: provenance meta plus flat ``metric -> value``."""

    meta: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    schema: int = STORE_SCHEMA

    # ------------------------------------------------------------------
    @property
    def sha(self) -> str:
        return self.meta.get("git_sha", "")

    @property
    def branch(self) -> str:
        return self.meta.get("branch", "")

    @property
    def timestamp(self) -> str:
        return self.meta.get("timestamp", "")

    @property
    def fingerprint(self) -> str:
        return host_fingerprint(self.meta)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "meta": dict(self.meta),
            "metrics": dict(self.metrics),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PerfRecord":
        if not isinstance(data, dict):
            raise ConfigurationError("perf record must be a JSON object")
        schema = int(data.get("schema", 0))
        if schema > STORE_SCHEMA:
            raise ConfigurationError(
                f"perf record schema {schema} is newer than the supported "
                f"version {STORE_SCHEMA}"
            )
        meta = data.get("meta") or {}
        metrics = data.get("metrics") or {}
        if not isinstance(meta, dict) or not isinstance(metrics, dict):
            raise ConfigurationError("perf record meta/metrics must be objects")
        return cls(
            meta={str(k): str(v) for k, v in meta.items()},
            metrics={
                str(k): float(v)
                for k, v in metrics.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            },
            schema=schema or STORE_SCHEMA,
        )


class PerfHistory:
    """The on-disk history: append-only JSONL of :class:`PerfRecord`.

    Reads tolerate a corrupted or truncated line (a crashed writer, a
    mangled CI artifact) by skipping it — the count lands in
    :attr:`n_skipped` so tooling can surface the damage without losing
    the rest of the trajectory.
    """

    def __init__(self, path: str):
        self.path = path
        self.n_skipped = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, record: PerfRecord) -> PerfRecord:
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(record.to_json() + "\n")
        return record

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self, fingerprint: Optional[str] = None) -> List[PerfRecord]:
        """All records in append order, optionally filtered."""
        self.n_skipped = 0
        out: List[PerfRecord] = []
        if not os.path.exists(self.path):
            return out
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = PerfRecord.from_dict(json.loads(line))
                except (ValueError, ConfigurationError, TypeError):
                    self.n_skipped += 1
                    continue
                if fingerprint is not None and record.fingerprint != fingerprint:
                    continue
                out.append(record)
        return out

    def __len__(self) -> int:
        return len(self.records())

    def latest(self, fingerprint: Optional[str] = None) -> Optional[PerfRecord]:
        """The newest record (optionally for one host fingerprint)."""
        records = self.records(fingerprint=fingerprint)
        return records[-1] if records else None

    def metric_names(
        self, fingerprint: Optional[str] = None
    ) -> List[str]:
        """Sorted names of every metric the history has a value for."""
        names = set()
        for record in self.records(fingerprint=fingerprint):
            names.update(record.metrics)
        return sorted(names)

    def series(
        self,
        metric: str,
        fingerprint: Optional[str] = None,
        records: Optional[Iterable[PerfRecord]] = None,
    ) -> List[Tuple[PerfRecord, float]]:
        """``(record, value)`` pairs carrying ``metric``, append order.

        Pass ``records`` to reuse one :meth:`records` read across many
        series lookups (the check path walks every metric).
        """
        if records is None:
            records = self.records(fingerprint=fingerprint)
        return [(r, r.metrics[metric]) for r in records if metric in r.metrics]
