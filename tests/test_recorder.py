"""Unit tests for the trace recorder."""

import numpy as np
import pytest

from repro.datacenter.power_path import PowerFlows
from repro.sim.recorder import LOW_SOC_THRESHOLD, SOC_BIN_LABELS, TraceRecorder

#: The two ways a step reaches the recorder: the reference stepper's
#: dict-based ``record`` and the fleet stepper's ``record_arrays``.
RECORD_PATHS = ("record", "record_arrays")


def flows(demand=100.0, solar=50.0):
    return PowerFlows(
        demand_w=demand,
        solar_available_w=solar,
        solar_to_load_w=min(demand, solar),
        solar_to_battery_w=0.0,
        battery_to_load_w=max(0.0, demand - solar),
        utility_to_load_w=0.0,
        grid_feedback_w=0.0,
        unserved_w=0.0,
        browned_out_nodes=0,
    )


def record_step(rec, path, t, soc):
    """Fold one 60 s step of node ``a`` at ``soc`` through ``path``."""
    if path == "record":
        rec.record(t, 60.0, flows(), {"a": soc})
    else:
        rec.record_arrays(t, 60.0, flows(), np.array([soc]), np.zeros(1))


def recorded_bins(soc):
    """The Fig.-19 bin each record path files one step at ``soc`` under."""
    bins = []
    for path in RECORD_PATHS:
        rec = TraceRecorder(["a"])
        record_step(rec, path, 0.0, soc)
        (idx,) = rec.soc_time_s["a"].nonzero()[0].tolist()
        bins.append(idx)
    return bins


class TestSocBins:
    def test_seven_paper_bins(self):
        assert SOC_BIN_LABELS == tuple(f"SoC{i}" for i in range(1, 8))

    @pytest.mark.parametrize(
        "soc,idx",
        [(0.0, 0), (0.14, 0), (0.15, 1), (0.44, 2), (0.45, 3), (0.89, 5), (0.90, 6), (1.0, 6)],
    )
    def test_bin_edges(self, soc, idx):
        assert recorded_bins(soc) == [idx, idx]


class TestRecording:
    def test_distributions_always_recorded(self):
        rec = TraceRecorder(["a", "b"], record_series=False)
        rec.record(0.0, 60.0, flows(), {"a": 0.95, "b": 0.2})
        rec.record(60.0, 60.0, flows(), {"a": 0.95, "b": 0.2})
        dist = rec.soc_distribution("a")
        assert dist["SoC7"] == pytest.approx(1.0)
        assert rec.soc_distribution("b")["SoC2"] == pytest.approx(1.0)

    def test_low_soc_accounting(self):
        for path in RECORD_PATHS:
            rec = TraceRecorder(["a"])
            record_step(rec, path, 0.0, LOW_SOC_THRESHOLD - 0.01)
            record_step(rec, path, 60.0, LOW_SOC_THRESHOLD + 0.01)
            assert rec.low_soc_time_s["a"] == 60.0, path
            assert rec.low_soc_time_s["a"] / rec.total_time_s == pytest.approx(0.5)

    def test_series_capture(self):
        rec = TraceRecorder(["a"], record_series=True)
        rec.record(0.0, 60.0, flows(demand=123.0), {"a": 0.8})
        arrays = rec.as_arrays()
        assert arrays["demand_w"][0] == 123.0
        assert arrays["soc/a"][0] == 0.8

    def test_series_skipped_when_disabled(self):
        rec = TraceRecorder(["a"], record_series=False)
        rec.record(0.0, 60.0, flows(), {"a": 0.8})
        assert len(rec.times_s) == 0

    def test_empty_distribution(self):
        rec = TraceRecorder(["a"])
        assert rec.soc_distribution("a")["SoC1"] == 0.0
        assert rec.low_soc_time_s["a"] == 0.0
        assert rec.total_time_s == 0.0


class TestEpsilonDrift:
    """Regression: integrator round-off used to crash the recorder.

    SoC integration can land epsilon outside [0, 1]; both record paths
    clamp it into the edge bins.
    """

    def test_epsilon_above_one_is_clamped(self):
        assert recorded_bins(1.0 + 1e-12) == [6, 6]

    def test_epsilon_below_zero_is_clamped(self):
        assert recorded_bins(-1e-12) == [0, 0]

    def test_record_accepts_integrator_drift(self):
        rec = TraceRecorder(["a"], record_series=True)
        rec.record(0.0, 60.0, flows(), {"a": 1.0 + 1e-12})
        assert rec.soc_distribution("a")["SoC7"] == pytest.approx(1.0)
        assert rec.soc_series["a"][0] == 1.0
