"""Golden equivalence: the fleet stepper is bit-identical to the reference.

The vectorized struct-of-arrays fast path (``stepper="fleet"``) promises
*exact* reproduction of the per-node reference stepper — not "close",
the same floats. These tests run both steppers over multi-day traces and
require the full :class:`SimResult`, every recorder series, the SoC
residence/low-SoC accumulators, and the engine RNG's end-of-run state to
match exactly. Any reordering of float operations or RNG draws in the
fast path shows up here as a hard failure.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.battery.params import BatteryParams
from repro.core.policies.factory import make_policy
from repro.datacenter.workloads import PAPER_WORKLOADS, standard_mix
from repro.errors import ConfigurationError
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass

THREE_DAYS = [DayClass.SUNNY, DayClass.CLOUDY, DayClass.RAINY]


def _workloads(*names):
    return tuple(PAPER_WORKLOADS[n] for n in names)


def _run(scenario: Scenario, policy_name: str, days):
    trace = scenario.trace_generator().days(days)
    sim = Simulation(scenario, make_policy(policy_name), trace, record_series=True)
    result = sim.run()
    return sim, result


def _assert_equivalent(ref_scenario: Scenario, policy_name: str, days):
    fleet_scenario = dataclasses.replace(ref_scenario, stepper="fleet")
    ref_sim, ref = _run(ref_scenario, policy_name, days)
    fleet_sim, fleet = _run(fleet_scenario, policy_name, days)
    _assert_runs_match(ref_sim, ref, fleet_sim, fleet)
    return ref_sim, fleet_sim


def _assert_runs_match(ref_sim, ref, fleet_sim, fleet):

    # Whole-run outcome: frozen dataclass equality covers throughput,
    # downtime, migrations, unserved/feedback energy, and every per-node
    # NodeResult (fade, Ah, metrics, SoC distribution, final SoC).
    assert fleet == ref

    # Recorder series must be the same floats, sample by sample.
    ref_arrays = ref_sim.recorder.as_arrays()
    fleet_arrays = fleet_sim.recorder.as_arrays()
    assert set(fleet_arrays) == set(ref_arrays)
    for key, ref_arr in ref_arrays.items():
        assert np.array_equal(fleet_arrays[key], ref_arr), key

    # Accumulated distributions (Fig. 18/19 inputs).
    for name in ref_sim.recorder.node_names:
        assert np.array_equal(
            fleet_sim.recorder.soc_time_s[name], ref_sim.recorder.soc_time_s[name]
        )
    assert fleet_sim.recorder.low_soc_time_s == ref_sim.recorder.low_soc_time_s

    # Same number and order of RNG draws: the generators end in the same
    # state, so the equivalence holds for any continuation of the run.
    assert (
        fleet_sim._rng.bit_generator.state == ref_sim._rng.bit_generator.state
    )


def _dense_profiles(n):
    mix = standard_mix()
    return tuple(
        dataclasses.replace(mix[i % len(mix)], name=f"{mix[i % len(mix)].name}-{i}")
        for i in range(n)
    )


class TestGoldenEquivalence:
    """ISSUE acceptance: e-Buff and BAAT over a >= 3-day trace."""

    @pytest.mark.parametrize("policy_name", ["e-buff", "baat"])
    def test_three_day_mixed_trace(self, policy_name):
        scenario = Scenario(n_nodes=6, dt_s=300.0)
        _assert_equivalent(scenario, policy_name, THREE_DAYS)


class TestStressEquivalence:
    """Harder corners: aged fleets, rainy stretches, utility backing."""

    def test_old_batteries_rainy_days(self):
        scenario = Scenario(
            n_nodes=4,
            dt_s=300.0,
            initial_fade=0.12,
            workloads=_workloads("web_serving", "data_analytics", "word_count"),
        )
        _assert_equivalent(
            scenario, "baat", [DayClass.RAINY, DayClass.RAINY, DayClass.CLOUDY]
        )

    def test_calibrated_old_batteries_rainy_days(self):
        """Flat active-mass wear, doubled sulphation and no feedback: the
        fleet kernels follow the battery's aging calibration exactly as
        the reference mechanisms do, down to each mechanism's damage."""
        scenario = Scenario(
            n_nodes=4,
            dt_s=300.0,
            initial_fade=0.12,
            battery=BatteryParams(
                aging_feedback_gain=0.0,
                sulphation_rate_scale=2.0,
                active_mass_stress_weights=False,
            ),
            workloads=_workloads("web_serving", "data_analytics", "word_count"),
        )
        ref_sim, fleet_sim = _assert_equivalent(
            scenario, "baat", [DayClass.RAINY, DayClass.RAINY, DayClass.CLOUDY]
        )
        for ref_node, fleet_node in zip(ref_sim.cluster, fleet_sim.cluster):
            assert fleet_node.battery.aging.state == ref_node.battery.aging.state

    def test_utility_budget_low_soc(self):
        scenario = Scenario(
            n_nodes=4,
            dt_s=300.0,
            utility_budget_w=150.0,
            initial_soc=0.5,
            workloads=_workloads("web_serving", "kmeans_clustering"),
        )
        _assert_equivalent(
            scenario, "e-buff", [DayClass.CLOUDY, DayClass.RAINY, DayClass.SUNNY]
        )

    @pytest.mark.parametrize("policy_name", ["baat-s", "baat-h"])
    def test_single_knob_policies(self, policy_name):
        scenario = Scenario(
            n_nodes=3,
            dt_s=300.0,
            workloads=_workloads("web_serving", "data_analytics", "word_count"),
        )
        _assert_equivalent(scenario, policy_name, [DayClass.CLOUDY] * 3)


class TestActionRichFleetEquivalence:
    """A 48-node under-provisioned fleet where every BAAT action class
    fires: slowdown migrations, consolidation epochs, and parks.

    This is the scenario the vectorized control plane must survive: the
    array decision kernels run every pass, but triggers force frequent
    fallbacks into the object-path action ladders, so any drift in the
    batched predicates (thresholds, reserve, rationing, budget, wake
    accounting) diverges the runs and fails the golden comparison.
    """

    def _scenario(self):
        return Scenario(
            n_nodes=48,
            dt_s=300.0,
            initial_soc=0.55,
            sunny_day_kwh=24.0,
            workloads=_dense_profiles(24),
        )

    def test_48_node_stressed_baat(self):
        ref_sim, fleet_sim = _assert_equivalent(
            self._scenario(), "baat", THREE_DAYS
        )
        # The comparison is only meaningful if the hard cases actually
        # happened; guard against the scenario rotting into a quiet one.
        result_migrations = sum(
            vm.migrations for vm in fleet_sim.cluster.vms.values()
        )
        assert result_migrations > 0
        assert fleet_sim.policy.monitor.migrations > 0  # Fig.-9 ladder
        assert fleet_sim.policy.consolidations > 0
        parked = sum(1 for n in fleet_sim.cluster if n.server.policy_off)
        assert parked > 0
        # Both steppers took identical actions, not merely similar ones.
        assert ref_sim.policy.consolidations == fleet_sim.policy.consolidations
        assert ref_sim.policy.monitor.migrations == fleet_sim.policy.monitor.migrations
        assert ref_sim.policy.monitor.parks == fleet_sim.policy.monitor.parks
        assert ref_sim.policy.monitor.throttles == fleet_sim.policy.monitor.throttles


class TestTracedEquivalence:
    """The golden contract extends to telemetry: tracing either stepper
    yields the same event stream, battery frames included, and the
    trace replays to the engine's metrics.
    """

    DAYS = [DayClass.CLOUDY, DayClass.SUNNY]

    def _traced_events(self, scenario):
        from repro.obs import BUS

        BUS.clear_sinks()
        try:
            with BUS.capture(maxlen=None) as sink:
                _run(scenario, "baat", self.DAYS)
                return [e.to_dict() for e in sink.events]
        finally:
            BUS.clear_sinks()

    @staticmethod
    def _split_meta(events):
        meta = [e for e in events if e["kind"] == "trace_meta"]
        rest = [e for e in events if e["kind"] != "trace_meta"]
        return meta, rest

    def _both_streams(self):
        scenario = Scenario(n_nodes=6, dt_s=300.0)
        ref = self._traced_events(scenario)
        fleet = self._traced_events(dataclasses.replace(scenario, stepper="fleet"))
        return ref, fleet

    @staticmethod
    def _split_frames(events):
        frames = [e for e in events if e["kind"] == "battery_frame"]
        rest = [e for e in events if e["kind"] != "battery_frame"]
        return frames, rest

    def test_event_mode_streams_identical(self):
        ref, fleet = self._both_streams()
        ref_meta, ref_rest = self._split_meta(ref)
        fleet_meta, fleet_rest = self._split_meta(fleet)
        # trace_meta records which stepper ran — the only sanctioned
        # difference between the two traces.
        assert [m["stepper"] for m in ref_meta] == ["reference"]
        assert [m["stepper"] for m in fleet_meta] == ["fleet"]
        _, ref_discrete = self._split_frames(ref_rest)
        _, fleet_discrete = self._split_frames(fleet_rest)
        assert ref_discrete
        assert fleet_discrete == ref_discrete

    def test_frame_mode_streams_identical(self):
        ref, fleet = self._both_streams()
        _, ref_rest = self._split_meta(ref)
        _, fleet_rest = self._split_meta(fleet)
        assert fleet_rest == ref_rest
        frames, _ = self._split_frames(ref_rest)
        assert len(frames) == len(self.DAYS) * int(86400 / 300)
        assert all(f["n"] == 6 for f in frames)

    def test_frame_trace_replays_to_engine_metrics(self, tmp_path):
        import math

        from repro.obs import (
            FleetHealthModel,
            disable_observability,
            enable_observability,
        )
        from repro.obs.health import METRIC_NAMES

        scenario = Scenario(n_nodes=6, dt_s=300.0, stepper="fleet")
        path = str(tmp_path / "frames.jsonl")
        enable_observability(path, telemetry="full")
        try:
            sim, _ = _run(scenario, "baat", self.DAYS)
        finally:
            disable_observability()
        model = FleetHealthModel.from_trace(path)
        assert len(model.runs) == 1
        run = model.runs[0]
        assert run.telemetry == "full"
        assert run.stepper == "fleet"
        for node in sim.cluster:
            engine_side = node.tracker.lifetime()
            replay_side = run.batteries[node.name].metrics()
            for name in METRIC_NAMES + ("dr_peak",):
                a = getattr(engine_side, name)
                b = getattr(replay_side, name)
                if math.isinf(a) or math.isinf(b):
                    assert a == b, name
                else:
                    assert b == pytest.approx(a, rel=1e-6, abs=1e-9), name


class TestAlertingEquivalence:
    """With alerting on, the fleet stepper's array control passes make
    the monitor's alert observations themselves; the event stream must
    still equal the reference stepper's, alert for alert.
    """

    @pytest.fixture(autouse=True)
    def _alerting(self):
        from repro.obs import (
            ALERTS,
            BUS,
            disable_observability,
            enable_observability,
        )
        from repro.obs.alerts import default_rules

        BUS.clear_sinks()
        enable_observability()
        try:
            yield ALERTS
        finally:
            disable_observability()
            BUS.clear_sinks()
            for rule in default_rules():
                ALERTS.add_rule(rule)

    @staticmethod
    def _traced_run(scenario, policy_name, days):
        """Run with a bus capture; returns (sim, result, events, per-pass
        log of (control_fleet result, alerts it emitted))."""
        from repro.obs import ALERTS, BUS

        # Fresh event ids and alert episodes for each run.
        BUS.clear_sinks()
        ALERTS.reset()
        trace = scenario.trace_generator().days(days)
        sim = Simulation(scenario, make_policy(policy_name), trace, record_series=True)
        passes = []
        with BUS.capture(maxlen=None) as sink:
            array_pass = sim.policy.control_fleet

            def logged(*args, **kwargs):
                before = len(sink.events)
                handled = array_pass(*args, **kwargs)
                emitted = list(sink.events)[before:]
                passes.append((handled, sum(e.kind == "alert" for e in emitted)))
                return handled

            sim.policy.control_fleet = logged
            result = sim.run()
            events = [e.to_dict() for e in sink.events if e.kind != "trace_meta"]
        return sim, result, events, passes

    def _assert_alerting_equivalent(self, scenario, policy_name, days):
        ref_sim, ref, ref_events, _ = self._traced_run(scenario, policy_name, days)
        fleet_sim, fleet, fleet_events, passes = self._traced_run(
            dataclasses.replace(scenario, stepper="fleet"), policy_name, days
        )
        _assert_runs_match(ref_sim, ref, fleet_sim, fleet)
        assert fleet_events == ref_events
        return fleet_events, passes

    @pytest.mark.parametrize(
        "policy_name, scenario, days",
        [
            (
                "baat",
                Scenario(
                    n_nodes=12,
                    dt_s=120.0,
                    sunny_day_kwh=6.0,
                    workloads=_dense_profiles(12),
                ),
                [DayClass.CLOUDY, DayClass.RAINY, DayClass.SUNNY],
            ),
            (
                "baat-s",
                Scenario(n_nodes=6, dt_s=300.0, initial_fade=0.1),
                [DayClass.RAINY, DayClass.SUNNY, DayClass.SUNNY],
            ),
        ],
        ids=["baat", "baat-s"],
    )
    def test_alert_streams_identical(self, policy_name, scenario, days):
        events, passes = self._assert_alerting_equivalent(scenario, policy_name, days)
        alerts = [e for e in events if e["kind"] == "alert"]
        assert any(not a["cleared"] for a in alerts)
        assert any(a["cleared"] for a in alerts)
        # The array path really ran with alerting on, and itself emitted
        # alerts: the equality is not carried by object-path fallbacks.
        assert any(handled for handled, _ in passes)
        assert sum(n for handled, n in passes if handled) > 0

    def test_non_threshold_watched_rule_stays_on_array_pass(self, _alerting):
        from repro.obs.alerts import AlertRule

        _alerting.add_rule(
            AlertRule(
                name="ddt_window_breach",
                kind="rate",
                threshold=1e-5,
                direction="above",
                window_s=3600.0,
            )
        )
        scenario = Scenario(n_nodes=6, dt_s=300.0, initial_fade=0.1)
        _, passes = self._assert_alerting_equivalent(
            scenario, "baat-s", [DayClass.RAINY]
        )
        assert passes
        assert all(handled for handled, _ in passes)
        # The rate rule observed inside the array passes of the last run.
        assert any(name == "ddt_window_breach" for name, _ in _alerting._rate_hist)


class TestStepperSelection:
    def test_unknown_stepper_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(stepper="warp")

    def test_rack_pool_requires_fleet(self):
        with pytest.raises(ConfigurationError):
            Scenario(stepper="reference", architecture="rack-pool")
        assert Scenario(stepper="fleet", architecture="rack-pool").stepper == "fleet"

    def test_fleet_stepper_builds_fleet_power_path(self):
        from repro.sim.fleet import FleetPowerPath

        scenario = Scenario(n_nodes=3, dt_s=300.0, stepper="fleet")
        trace = scenario.trace_generator().day(DayClass.SUNNY)
        sim = Simulation(scenario, make_policy("e-buff"), trace)
        assert isinstance(sim.power_path, FleetPowerPath)
