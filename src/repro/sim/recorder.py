"""Trace recorder: per-step time series captured during a run.

Keeps compact numpy-backed series of the quantities the paper's figures
plot over time — per-node SoC, solar generation, demand, battery flows —
plus SoC histograms (Fig. 19's seven 15-%-wide bins) and low-SoC duration
accounting (Fig. 18).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.datacenter.power_path import PowerFlows
from repro.obs import REGISTRY

#: Fig. 19 bins: SoC1 [0,15) ... SoC6 [75,90), SoC7 [90,100].
SOC_BIN_EDGES = (0.0, 0.15, 0.30, 0.45, 0.60, 0.75, 0.90, 1.0001)
SOC_BIN_LABELS = tuple(f"SoC{i}" for i in range(1, 8))

_BIN_EDGES = np.asarray(SOC_BIN_EDGES)
_LAST_BIN = len(SOC_BIN_LABELS) - 1

#: The paper's low-SoC / deep-discharge line.
LOW_SOC_THRESHOLD = 0.40


def _clip_bins(bins: np.ndarray) -> np.ndarray:
    """Clamp bin indices into ``[0, _LAST_BIN]`` in place."""
    np.maximum(bins, 0, out=bins)
    return np.minimum(bins, _LAST_BIN, out=bins)


class TraceRecorder:
    """Accumulates per-step series and distributions for one run."""

    def __init__(self, node_names: List[str], record_series: bool = True):
        self.node_names = list(node_names)
        self.record_series = record_series
        self.times_s: List[float] = []
        self.solar_w: List[float] = []
        self.demand_w: List[float] = []
        self.battery_w: List[float] = []
        self.feedback_w: List[float] = []
        self.soc_series: Dict[str, List[float]] = {n: [] for n in self.node_names}
        #: Signed per-node battery current (A, + = discharge), recorded
        #: alongside SoC.
        self.current_series: Dict[str, List[float]] = {n: [] for n in self.node_names}
        # Distributions are always recorded (cheap and needed by figures).
        # One (nodes, bins) matrix backs the per-node dict as row views so
        # the array-native path can fold all nodes in a single indexed add.
        self._soc_time = np.zeros((len(self.node_names), len(SOC_BIN_LABELS)))
        #: Per node, the time spent below LOW_SOC_THRESHOLD: one ``+= dt``
        #: per low step, in step order.
        self._low_soc_time = np.zeros(len(self.node_names))
        self._node_index = np.arange(len(self.node_names))
        self._row = {n: i for i, n in enumerate(self.node_names)}
        self.soc_time_s: Dict[str, np.ndarray] = {
            n: self._soc_time[i] for i, n in enumerate(self.node_names)
        }
        self.total_time_s: float = 0.0

    @property
    def low_soc_time_s(self) -> Dict[str, float]:
        """Seconds each node spent below the low-SoC line (Fig. 18)."""
        return dict(zip(self.node_names, self._low_soc_time.tolist()))

    def record(
        self,
        t: float,
        dt: float,
        flows: PowerFlows,
        node_socs: Dict[str, float],
        node_currents: Dict[str, float] | None = None,
    ) -> None:
        """Fold one step into the series and distributions.

        SoC values are clamped into [0, 1] at this boundary: coulomb
        counting accumulates float error, and the recorder's job is to
        log the run, not to crash it an epsilon past full charge.
        """
        self.total_time_s += dt
        names = list(node_socs)
        # np.minimum/np.maximum rather than np.clip: the same values
        # without np.clip's Python-level dispatch, which dominates on
        # arrays this small.
        socs = np.minimum(
            np.maximum(
                np.fromiter(node_socs.values(), dtype=float, count=len(names)), 0.0
            ),
            1.0,
        )
        # All nodes binned in one vectorised pass (no per-node edge scan).
        bins = _clip_bins(_BIN_EDGES.searchsorted(socs, side="right") - 1)
        soc_values = socs.tolist()
        low_soc_time, row = self._low_soc_time, self._row
        for name, soc, soc_idx in zip(names, soc_values, bins.tolist()):
            self.soc_time_s[name][soc_idx] += dt
            if soc < LOW_SOC_THRESHOLD:
                low_soc_time[row[name]] += dt
        if REGISTRY.enabled:
            REGISTRY.counter("recorder/steps").inc()
            if len(socs):
                REGISTRY.gauge("recorder/min_soc").set(float(socs.min()))
                REGISTRY.gauge("recorder/mean_soc").set(float(socs.mean()))
        if self.record_series:
            self.times_s.append(t)
            self.solar_w.append(flows.solar_available_w)
            self.demand_w.append(flows.demand_w)
            self.battery_w.append(flows.battery_to_load_w)
            self.feedback_w.append(flows.grid_feedback_w)
            for name, soc in zip(names, soc_values):
                self.soc_series[name].append(soc)
                current = (node_currents or {}).get(name, 0.0)
                self.current_series[name].append(current)

    def record_arrays(
        self,
        t: float,
        dt: float,
        flows: PowerFlows,
        socs: np.ndarray,
        currents: np.ndarray,
    ) -> None:
        """Array-native :meth:`record`: fold one step from per-node arrays.

        ``socs`` and ``currents`` are ordered like ``self.node_names`` (the
        fleet stepper's struct-of-arrays layout). Produces bit-identical
        accumulators and series to :meth:`record` fed with the equivalent
        dicts; the input arrays are not mutated.
        """
        self.total_time_s += dt
        clipped = np.minimum(np.maximum(socs, 0.0), 1.0)
        bins = _clip_bins(_BIN_EDGES.searchsorted(clipped, side="right") - 1)
        # Each node lands in exactly one bin, so a direct fancy-indexed
        # add is safe (no duplicate targets) and bit-equal to the scalar
        # per-node adds.
        self._soc_time[self._node_index, bins] += dt
        np.add(
            self._low_soc_time, dt, out=self._low_soc_time,
            where=clipped < LOW_SOC_THRESHOLD,
        )
        if REGISTRY.enabled:
            REGISTRY.counter("recorder/steps").inc()
            if len(clipped):
                REGISTRY.gauge("recorder/min_soc").set(float(clipped.min()))
                REGISTRY.gauge("recorder/mean_soc").set(float(clipped.mean()))
        if self.record_series:
            self.times_s.append(t)
            self.solar_w.append(flows.solar_available_w)
            self.demand_w.append(flows.demand_w)
            self.battery_w.append(flows.battery_to_load_w)
            self.feedback_w.append(flows.grid_feedback_w)
            for name, soc, current in zip(
                self.node_names, clipped.tolist(), np.asarray(currents).tolist()
            ):
                self.soc_series[name].append(soc)
                self.current_series[name].append(current)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def soc_distribution(self, node: str) -> Dict[str, float]:
        """Fraction of time per Fig.-19 bin for one node."""
        total = self.soc_time_s[node].sum()
        if total <= 0:
            return {label: 0.0 for label in SOC_BIN_LABELS}
        return {
            label: float(self.soc_time_s[node][i] / total)
            for i, label in enumerate(SOC_BIN_LABELS)
        }

    def as_arrays(self) -> Dict[str, np.ndarray]:
        """Bulk numpy views of the recorded series."""
        out = {
            "times_s": np.asarray(self.times_s),
            "solar_w": np.asarray(self.solar_w),
            "demand_w": np.asarray(self.demand_w),
            "battery_w": np.asarray(self.battery_w),
            "feedback_w": np.asarray(self.feedback_w),
        }
        for name, series in self.soc_series.items():
            out[f"soc/{name}"] = np.asarray(series)
        for name, series in self.current_series.items():
            out[f"current/{name}"] = np.asarray(series)
        return out
