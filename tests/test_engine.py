"""Integration tests for the simulation engine."""

import numpy as np
import pytest

from repro.core.policies.factory import make_policy
from repro.errors import ConfigurationError
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass
from repro.units import SECONDS_PER_DAY


class TestWiring:
    def test_dt_mismatch_rejected(self, tiny_scenario):
        other = Scenario(n_nodes=3, dt_s=60.0)
        trace = other.trace_generator().day(DayClass.SUNNY)
        with pytest.raises(ConfigurationError):
            Simulation(tiny_scenario, make_policy("e-buff"), trace)

    def test_deploy_places_all_vms(self, tiny_scenario, one_sunny_day):
        sim = Simulation(tiny_scenario, make_policy("e-buff"), one_sunny_day)
        sim.deploy()
        assert len(sim.cluster.vms) == len(tiny_scenario.effective_workloads())
        assert all(vm.host is not None for vm in sim.cluster.vms.values())

    def test_deploy_is_idempotent(self, tiny_scenario, one_sunny_day):
        sim = Simulation(tiny_scenario, make_policy("e-buff"), one_sunny_day)
        sim.deploy()
        sim.deploy()
        assert len(sim.cluster.vms) == len(tiny_scenario.effective_workloads())


class TestRun:
    def test_result_shape(self, tiny_scenario, one_sunny_day):
        result = Simulation(tiny_scenario, make_policy("e-buff"), one_sunny_day).run()
        assert result.policy_name == "e-buff"
        assert result.duration_s == pytest.approx(SECONDS_PER_DAY)
        assert result.throughput > 0.0
        assert len(result.nodes) == 3

    def test_batteries_advance_exactly_trace_duration(
        self, tiny_scenario, one_sunny_day
    ):
        sim = Simulation(tiny_scenario, make_policy("e-buff"), one_sunny_day)
        sim.run()
        for node in sim.cluster:
            assert node.battery.time_s == pytest.approx(one_sunny_day.duration_s)

    def test_soc_stays_in_bounds(self, tiny_scenario, one_cloudy_day):
        sim = Simulation(
            tiny_scenario, make_policy("e-buff"), one_cloudy_day, record_series=True
        )
        sim.run()
        for node in sim.cluster:
            series = sim.recorder.soc_series[node.name]
            assert all(0.0 <= s <= 1.0 for s in series)

    def test_no_progress_outside_operating_window(self, tiny_scenario, one_sunny_day):
        sim = Simulation(
            tiny_scenario, make_policy("e-buff"), one_sunny_day, record_series=True
        )
        sim.run()
        arrays = sim.recorder.as_arrays()
        # Demand must be zero before the window opens (servers admin-off).
        early = arrays["demand_w"][: int(8.0 * 3600 / tiny_scenario.dt_s)]
        assert (early == 0.0).all()

    def test_sunny_day_charges_batteries(self, tiny_scenario):
        from dataclasses import replace

        scenario = replace(tiny_scenario, initial_soc=0.5)
        trace = scenario.trace_generator().day(DayClass.SUNNY)
        result = Simulation(scenario, make_policy("e-buff"), trace).run()
        for node in result.nodes:
            assert node.final_soc > 0.5

    def test_determinism(self, tiny_scenario, one_cloudy_day):
        a = Simulation(tiny_scenario, make_policy("baat"), one_cloudy_day).run()
        b = Simulation(tiny_scenario, make_policy("baat"), one_cloudy_day).run()
        assert a.throughput == b.throughput
        assert a.worst_damage_per_day() == b.worst_damage_per_day()
        assert [n.final_soc for n in a.nodes] == [n.final_soc for n in b.nodes]

    def test_aging_accrues(self, tiny_scenario, one_cloudy_day):
        result = Simulation(
            tiny_scenario, make_policy("e-buff"), one_cloudy_day
        ).run()
        assert all(n.fade_added > 0.0 for n in result.nodes)


class TestResultViews:
    def test_worst_node_selection(self, tiny_scenario, one_cloudy_day):
        result = Simulation(
            tiny_scenario, make_policy("e-buff"), one_cloudy_day
        ).run()
        worst = result.worst_node()
        assert worst.fade_added == max(n.fade_added for n in result.nodes)
        worst_ah = result.worst_node_by_throughput_ah()
        assert worst_ah.discharged_ah == max(n.discharged_ah for n in result.nodes)

    def test_damage_rates(self, tiny_scenario, one_cloudy_day):
        result = Simulation(
            tiny_scenario, make_policy("e-buff"), one_cloudy_day
        ).run()
        assert result.worst_damage_per_day() >= result.mean_damage_per_day() > 0.0

    def test_throughput_per_day(self, tiny_scenario, one_sunny_day):
        result = Simulation(
            tiny_scenario, make_policy("e-buff"), one_sunny_day
        ).run()
        assert result.throughput_per_day() == pytest.approx(result.throughput)


class TestAmbientCycle:
    def test_battery_temperature_follows_diurnal_ambient(self, tiny_scenario):
        """Ambient peaks mid-afternoon; idle batteries must track it."""
        from dataclasses import replace

        scenario = replace(tiny_scenario, ambient_swing_c=10.0)
        trace = scenario.trace_generator().day(DayClass.SUNNY)
        sim = Simulation(scenario, make_policy("e-buff"), trace)
        temps = {}
        dt = scenario.dt_s
        steps_per_hour = int(3600 / dt)

        # Run manually up to late night and mid-afternoon and compare.
        sim.deploy()
        result = sim.run()
        # After a full day the engine has applied the cycle; spot-check by
        # computing the ambient the engine would set.
        import math

        def ambient(tod_h):
            return scenario.ambient_mean_c + 0.5 * scenario.ambient_swing_c * math.cos(
                2.0 * math.pi * (tod_h - 14.0) / 24.0
            )

        assert ambient(14.0) > ambient(2.0)
        assert ambient(14.0) == pytest.approx(
            scenario.ambient_mean_c + 0.5 * scenario.ambient_swing_c
        )
        # And the battery ends the day at a plausible shelf temperature.
        for node in sim.cluster:
            assert 10.0 < node.battery.thermal.temperature_c < 45.0


class TestBeginOnce:
    """Regression: ``_begin`` was guarded by ``if self._fade_start:``.

    An empty cluster leaves ``_fade_start`` empty (falsy), so one-time
    setup re-ran on every step — re-marking trackers and resetting the
    step counter. The guard is now an explicit ``_begun`` flag.
    """

    def test_begin_runs_setup_exactly_once(
        self, tiny_scenario, one_sunny_day, monkeypatch
    ):
        sim = Simulation(tiny_scenario, make_policy("e-buff"), one_sunny_day)
        calls = []
        original = sim.deploy
        monkeypatch.setattr(
            sim, "deploy", lambda: (calls.append(None), original())[-1]
        )
        sim.step_once()
        sim.step_once()
        assert calls == [None]
        assert sim.steps_done == 2

    def test_empty_cluster_begins_exactly_once(
        self, tiny_scenario, one_sunny_day, monkeypatch
    ):
        from dataclasses import replace

        scenario = replace(tiny_scenario, workloads=())
        sim = Simulation(scenario, make_policy("e-buff"), one_sunny_day)
        sim.cluster.nodes.clear()
        sim.cluster._by_name.clear()
        calls = []
        original = sim.deploy
        monkeypatch.setattr(
            sim, "deploy", lambda: (calls.append(None), original())[-1]
        )
        sim.step_once()
        sim.step_once()
        assert sim.cells[0].fade_start == {}  # the old, falsy sentinel
        assert calls == [None]
        assert sim.steps_done == 2

    def test_cadences_hoisted_at_begin(self, tiny_scenario, one_sunny_day):
        sim = Simulation(tiny_scenario, make_policy("e-buff"), one_sunny_day)
        sim.step_once()
        assert sim._control_every == max(
            1, round(tiny_scenario.control_interval_s / tiny_scenario.dt_s)
        )
        assert sim._steps_per_day == round(SECONDS_PER_DAY / tiny_scenario.dt_s)

    def test_recorded_draws_match_public_current(self, tiny_scenario, one_cloudy_day):
        """Each control pass reads the batteries' last currents from its
        freshly captured view."""
        policy = make_policy("e-buff")
        sim = Simulation(tiny_scenario, policy, one_cloudy_day)
        seen = []

        def spy(t, dt, fleet, solar_w=0.0):
            seen.append(
                fleet.last_current.tolist()
                == [node.battery.last_current_a for node in sim.cluster]
            )
            return True

        policy.control_fleet = spy
        while sim.steps_done < sim.steps_total:
            sim.step_once()
        assert seen and all(seen)


class TestDrawSignal:
    """The DR draw signal a control pass reads from its arrays equals
    the draws refreshed eagerly from the objects after every step."""

    def test_control_sees_eager_draws(self, tiny_scenario, one_cloudy_day):
        policy = make_policy("baat")
        sim = Simulation(tiny_scenario, policy, one_cloudy_day)

        def eager_draws():
            draws = []
            for node in sim.cluster:
                current = max(0.0, node.battery.last_current_a)
                voltage = node.battery.terminal_voltage(current)
                draws.append(current * max(voltage, 0.0))
            return draws

        expected = [eager_draws()]
        passes = []
        control = policy.control_fleet

        def spy(t, dt, fleet, solar_w=0.0):
            current = np.maximum(0.0, fleet.last_current)
            voltage = fleet.terminal_voltage(fleet.soc, current, fleet.derived_now())
            passes.append(((current * np.maximum(voltage, 0.0)).tolist(), expected[0]))
            return control(t, dt, fleet, solar_w=solar_w)

        policy.control_fleet = spy
        while sim.steps_done < sim.steps_total:
            sim.step_once()
            expected[0] = eager_draws()
        assert passes
        assert any(w > 0.0 for seen, _ in passes for w in seen)
        for seen, eager in passes:
            assert seen == eager
