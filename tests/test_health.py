"""Tests for the fleet health model (`repro.obs.health`).

The acceptance bar: replaying a traced run through
:class:`FleetHealthModel` reproduces every node's in-engine
:class:`~repro.metrics.tracker.MetricsTracker` lifetime metrics to
1e-6 relative, and the DDT / DR alert rules fire on scenarios
engineered to breach them.
"""

from __future__ import annotations

import math

import pytest

from repro.core.policies.factory import make_policy
from repro.datacenter.workloads import PAPER_WORKLOADS
from repro.obs import (
    ALERTS,
    BUS,
    REGISTRY,
    disable_observability,
    enable_observability,
)
from repro.obs.alerts import AlertEngine, default_rules
from repro.obs.events import (
    BatteryConfigEvent,
    DayStartEvent,
    DoDGoalEvent,
    RunStartEvent,
)
from repro.obs.health import (
    METRIC_NAMES,
    BatteryConfig,
    BatteryHealth,
    FleetHealthModel,
)
from repro.obs.telemetry import FrameEncoder
from repro.sim.engine import Simulation
from repro.sim.fleet import FleetState
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass


@pytest.fixture(autouse=True)
def _clean_obs_state():
    BUS.clear_sinks()
    REGISTRY.enabled = False
    REGISTRY.reset()
    ALERTS.enabled = False
    ALERTS.reset()
    yield
    disable_observability()
    BUS.clear_sinks()
    REGISTRY.enabled = False
    REGISTRY.reset()
    ALERTS.reset()


def _workloads(*names):
    return tuple(PAPER_WORKLOADS[n] for n in names)


def sample(t, node, soc, current_a, dt):
    """A one-battery frame carrying a single sensor poll."""
    return FrameEncoder([node]).encode(t, dt, [soc], [current_a])


def traced_run(tmp_path, scenario, policy="baat", day=DayClass.CLOUDY):
    """Run one traced day and return (sim, trace_path)."""
    path = str(tmp_path / "trace.jsonl")
    trace = scenario.trace_generator().day(day)
    enable_observability(path)
    try:
        sim = Simulation(scenario, make_policy(policy), trace)
        sim.run()
    finally:
        disable_observability()
    return sim, path


# ----------------------------------------------------------------------
# Attribution fidelity: replay == in-engine tracker
# ----------------------------------------------------------------------
class TestAttributionFidelity:
    def test_replay_matches_tracker_within_1e6(self, tiny_scenario, tmp_path):
        sim, path = traced_run(tmp_path, tiny_scenario)
        model = FleetHealthModel.from_trace(path)
        assert len(model.runs) == 1
        run = model.runs[0]
        assert set(run.batteries) == {n.name for n in sim.cluster}
        for node in sim.cluster:
            engine_side = node.tracker.lifetime()
            replay_side = run.batteries[node.name].metrics()
            for name in METRIC_NAMES + ("dr_peak",):
                a = getattr(engine_side, name)
                b = getattr(replay_side, name)
                if math.isinf(a) or math.isinf(b):
                    assert a == b, name
                else:
                    assert b == pytest.approx(a, rel=1e-6, abs=1e-12), name

    def test_battery_config_events_make_trace_self_contained(
        self, tiny_scenario, tmp_path
    ):
        sim, path = traced_run(tmp_path, tiny_scenario)
        model = FleetHealthModel.from_trace(path)
        run = model.runs[0]
        for node in sim.cluster:
            cfg = run.batteries[node.name].config
            params = node.battery.params
            assert cfg.lifetime_ah_throughput == params.lifetime_ah_throughput
            assert cfg.reference_current == params.reference_current
            assert cfg.capacity_ah == params.capacity_ah

    def test_score_breakdown_terms_sum_to_score(self, tiny_scenario, tmp_path):
        _, path = traced_run(tmp_path, tiny_scenario)
        model = FleetHealthModel.from_trace(path)
        for battery in model.runs[0].batteries.values():
            br = battery.breakdown(model.weights)
            assert br.score == pytest.approx(
                br.nat_term + br.cf_term + br.pc_term, rel=1e-12
            )


# ----------------------------------------------------------------------
# Run scoping, day windows, finalize
# ----------------------------------------------------------------------
class TestStreamSemantics:
    def test_serial_runs_get_separate_scopes(self, tiny_scenario, tmp_path):
        path = str(tmp_path / "two-runs.jsonl")
        trace = tiny_scenario.trace_generator().day(DayClass.SUNNY)
        enable_observability(path)
        try:
            for policy in ("baat", "e-buff"):
                Simulation(tiny_scenario, make_policy(policy), trace).run()
        finally:
            disable_observability()
        model = FleetHealthModel.from_trace(path)
        assert [r.policy for r in model.runs] == ["baat", "e-buff"]
        assert all(len(r.batteries) == 3 for r in model.runs)
        # Scopes do not bleed: the two runs saw the same trace, so their
        # accumulated times match but are tracked independently.
        a, b = (r.batteries["node0"] for r in model.runs)
        assert a is not b
        assert a.acc.total_time_s == b.acc.total_time_s

    def test_day_zero_boundary_scores_nothing(self):
        model = FleetHealthModel()
        model.emit(RunStartEvent(t=0.0, policy="baat", n_nodes=1, steps_total=1))
        model.emit(DayStartEvent(t=0.0, day_index=0))
        model.emit(sample(60.0, "n1", 0.9, 2.0, 60.0))
        model.emit(DayStartEvent(t=86400.0, day_index=1))
        battery = model.runs[0].batteries["n1"]
        # Only the populated window was scored; the t=0 boundary was not.
        assert len(battery.day_scores) == 1
        assert model.runs[0].days_closed == 2

    def test_finalize_closes_trailing_partial_day_once(self):
        model = FleetHealthModel()
        model.emit(RunStartEvent(t=0.0, policy="baat", n_nodes=1, steps_total=1))
        model.emit(sample(60.0, "n1", 0.9, 2.0, 60.0))
        model.finalize()
        battery = model.runs[0].batteries["n1"]
        assert len(battery.day_scores) == 1
        model.finalize()  # idempotent: no new window accumulated
        assert len(battery.day_scores) == 1

    def test_headless_stream_opens_anonymous_scope(self):
        model = FleetHealthModel()
        model.emit(sample(0.0, "n1", 0.5, 1.0, 60.0))
        assert len(model.runs) == 1
        assert model.runs[0].label == "run0"

    def test_report_on_empty_stream(self):
        text = FleetHealthModel().report().to_text()
        assert "no battery telemetry" in text


# ----------------------------------------------------------------------
# Projections
# ----------------------------------------------------------------------
class TestProjections:
    def day_of_discharge(self, battery, current=1.75):
        battery.acc.observe(0.5, current, 86400.0, battery.config.reference_current)

    def test_eol_projection_linear_extrapolation(self):
        b = BatteryHealth(node="n1")
        self.day_of_discharge(b)
        nat = b.metrics().nat
        assert 0 < nat < 1
        expected = (1.0 - nat) / nat  # one day elapsed -> rate = nat/day
        assert b.eol_projection_days() == pytest.approx(expected)

    def test_eol_infinite_without_discharge(self):
        b = BatteryHealth(node="n1")
        assert math.isinf(b.eol_projection_days())
        b.acc.observe(0.9, -1.0, 3600.0, b.config.reference_current)
        assert math.isinf(b.eol_projection_days())  # charge only: no NAT rate

    def test_plan_drift_requires_goal(self):
        b = BatteryHealth(node="n1")
        self.day_of_discharge(b)
        assert b.plan_drift() is None
        b.dod_goal = 0.5
        # 1.75 A for a day = 42 Ah vs a 0.5 * 35 Ah = 17.5 Ah/day plan.
        assert b.plan_drift() == pytest.approx(42.0 / 17.5 - 1.0)

    def test_dod_goal_event_feeds_plan_drift(self):
        model = FleetHealthModel()
        model.emit(RunStartEvent(t=0.0, policy="baat-planned", n_nodes=1, steps_total=1))
        model.emit(DoDGoalEvent(t=0.0, node="n1", goal=0.4, threshold=0.6, floor=0.3))
        model.emit(sample(86400.0, "n1", 0.5, 1.75, 86400.0))
        model.finalize()
        battery = model.runs[0].batteries["n1"]
        assert battery.dod_goal == 0.4
        assert battery.plan_drift() == pytest.approx(42.0 / (0.4 * 35.0) - 1.0)

    def test_custom_battery_config_changes_attribution(self):
        model = FleetHealthModel()
        model.emit(RunStartEvent(t=0.0, policy="baat", n_nodes=1, steps_total=1))
        model.emit(
            BatteryConfigEvent(
                t=0.0,
                node="n1",
                lifetime_ah_throughput=100.0,
                reference_current=1.0,
                capacity_ah=10.0,
                cutoff_soc=0.1,
            )
        )
        model.emit(sample(3600.0, "n1", 0.5, 1.0, 3600.0))
        # 1 Ah against a 100 Ah lifetime -> NAT 0.01 under the custom config
        # (the default 13300 Ah lifetime would give ~7.5e-5).
        assert model.runs[0].batteries["n1"].metrics().nat == pytest.approx(0.01)


# ----------------------------------------------------------------------
# Engineered breaches: the DDT and DR rules must fire
# ----------------------------------------------------------------------
class TestEngineeredBreaches:
    def breach_scenario(self):
        """Old, nearly-empty batteries into a rainy day, with servers
        oversized relative to the batteries (12 W/Ah): heavy deep
        discharge the slowdown monitor cannot fully prevent. The fat
        server-to-battery ratio matters — at the default ratio BAAT's
        slowdown holds a rainy-day fleet within a fraction of a percent
        of wherever it starts, never *falling* through the 0.28
        protected floor."""
        return Scenario(
            n_nodes=3,
            dt_s=300.0,
            manufacturing_variation=False,
            workloads=_workloads(
                "web_serving", "data_analytics", "word_count", "nutch_indexing"
            ),
            initial_fade=0.3,
            initial_soc=0.30,
        ).with_server_to_battery_ratio(12.0)

    def test_ddt_and_soc_floor_rules_fire_live(self, tmp_path):
        scenario = self.breach_scenario()
        trace = scenario.trace_generator().day(DayClass.RAINY)
        path = str(tmp_path / "breach.jsonl")
        enable_observability(path)
        try:
            sim = Simulation(scenario, make_policy("baat"), trace)
            sim.run()
            ddt = list(ALERTS.fired("ddt_window_breach"))
            floor = list(ALERTS.fired("soc_floor_violation"))
        finally:
            disable_observability()
        # Every battery spent most of the rainy day below 40 % SoC.
        assert {e.node for e in ddt} == {n.name for n in sim.cluster}
        assert all(e.value > e.threshold for e in ddt)
        assert floor, "protected-floor violation must be detected"
        assert all(e.severity == "critical" for e in floor)

    def test_ddt_alerts_rederived_on_replay(self, tmp_path):
        scenario = self.breach_scenario()
        _, path = traced_run(tmp_path, scenario, day=DayClass.RAINY)
        engine = AlertEngine(default_rules())
        engine.enabled = True
        model = FleetHealthModel.from_trace(path, alert_engine=engine)
        replayed = engine.fired("ddt_window_breach")
        assert {e.node for e in replayed} == set(model.runs[0].batteries)
        # The report surfaces them.
        text = model.report().to_text()
        assert "ddt_window_breach" in text

    def test_dr_reserve_rule_fires_on_draw_spike(self):
        scenario = Scenario(
            n_nodes=3,
            dt_s=300.0,
            manufacturing_variation=False,
            workloads=_workloads("web_serving"),
            initial_soc=0.18,
        )
        trace = scenario.trace_generator().day(DayClass.RAINY)
        enable_observability()
        try:
            sim = Simulation(scenario, make_policy("baat"), trace)
            sim.step_once()
            monitor = sim.policy.monitor
            node = sim.cluster.nodes[0]
            # A ~1 kW draw against a nearly drained battery leaves seconds
            # of reserve: the monitor must both trigger its slowdown and
            # raise the dr_reserve_exhaustion alert.
            node.battery._last_current = 100.0
            monitor.fleet_control(300.0, FleetState(sim.cluster))
            assert monitor.first_action_t == 300.0
            fired = list(ALERTS.fired("dr_reserve_exhaustion"))
        finally:
            disable_observability()
        assert [e.node for e in fired] == [node.name]
        assert fired[0].value < fired[0].threshold

    def test_healthy_run_raises_no_watchdog_alerts(self, tiny_scenario, tmp_path):
        _, path = traced_run(tmp_path, tiny_scenario, day=DayClass.SUNNY)
        engine = AlertEngine(default_rules())
        engine.enabled = True
        FleetHealthModel.from_trace(path, alert_engine=engine)
        assert engine.fired("ddt_window_breach") == []
