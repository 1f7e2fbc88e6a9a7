"""Failure-injection tests: the system degrades gracefully, not fatally.

Uses the engine's single-step interface to inject mid-run events — a
battery suddenly losing capacity (cell short), a battery dying outright,
a server crash — and asserts the cluster keeps serving and the policies
adapt rather than wedging.
"""

import dataclasses

import pytest

from repro.core.policies.factory import make_policy
from repro.errors import SimulationError
from repro.sim.engine import Simulation
from repro.solar.weather import DayClass

STEPPERS = ("reference", "fleet")


def run_with_event(scenario, policy_name, trace, event_step, event):
    """Run a simulation, applying ``event(sim)`` at ``event_step``.

    The fleet stepper keeps node state in arrays between steps, so the
    event sees synced objects and the arrays re-read what it changed.
    """
    sim = Simulation(scenario, make_policy(policy_name), trace)
    while sim.steps_done < sim.steps_total:
        if sim.steps_done == event_step:
            if sim._fleet is not None:
                sim._fleet.materialize()
            event(sim)
            if sim._fleet is not None:
                sim._fleet.capture()
        sim.step_once()
    return sim, sim._collect()


def run_on_stepper(stepper, scenario, policy_name, trace, event_step, event):
    """:func:`run_with_event` on ``stepper``; a fleet run must also equal
    the reference run exactly."""
    sim, result = run_with_event(
        dataclasses.replace(scenario, stepper=stepper),
        policy_name, trace, event_step, event,
    )
    if stepper == "fleet":
        _ref_sim, ref = run_with_event(scenario, policy_name, trace, event_step, event)
        assert result == ref
    return sim, result


@pytest.fixture
def midday_step(tiny_scenario):
    return int(12 * 3600 / tiny_scenario.dt_s)


class TestBatteryFailures:
    def test_sudden_capacity_loss_is_survivable(
        self, tiny_scenario, one_cloudy_day, midday_step
    ):
        """A cell short halves one battery's capacity mid-day; the run
        completes and the cluster keeps computing."""

        def cell_short(sim):
            battery = sim.cluster.node("node0").battery
            battery.aging.state.damage["active_mass"] = 0.45

        sim, result = run_with_event(
            tiny_scenario, "baat", one_cloudy_day, midday_step, cell_short
        )
        assert result.throughput > 0.0
        assert sim.cluster.node("node0").battery.is_end_of_life

    def test_baat_shifts_load_away_from_failed_battery(
        self, tiny_scenario, one_cloudy_day, midday_step
    ):
        """After a battery failure, BAAT's aging-aware machinery should
        not route *more* charge through the failed unit than e-Buff does."""

        def kill_battery(sim):
            battery = sim.cluster.node("node0").battery
            battery.aging.state.damage["sulphation"] = 0.60

        outcomes = {}
        for policy in ("e-buff", "baat"):
            _sim, result = run_with_event(
                tiny_scenario, policy, one_cloudy_day, midday_step, kill_battery
            )
            node0 = next(n for n in result.nodes if n.name == "node0")
            outcomes[policy] = node0.discharged_ah
        assert outcomes["baat"] <= outcomes["e-buff"] + 1.0

    def test_dead_battery_still_advances_time(
        self, tiny_scenario, one_cloudy_day, midday_step
    ):
        def kill(sim):
            sim.cluster.node("node1").battery.aging.state.damage["corrosion"] = 0.9

        sim, _result = run_with_event(
            tiny_scenario, "e-buff", one_cloudy_day, midday_step, kill
        )
        battery = sim.cluster.node("node1").battery
        assert battery.time_s == pytest.approx(one_cloudy_day.duration_s)


@pytest.mark.parametrize("stepper", STEPPERS)
class TestServerFailures:
    def test_server_crash_checkpoint_and_recovery(
        self, stepper, tiny_scenario, one_sunny_day, midday_step
    ):
        """A crashed server checkpoints its VMs and reboots once power
        allows; on a sunny day it must be back up by end of window."""

        def crash(sim):
            sim.cluster.node("node2").server.brownout()

        sim, result = run_on_stepper(
            stepper, tiny_scenario, "e-buff", one_sunny_day, midday_step, crash
        )
        node2 = sim.cluster.node("node2")
        assert node2.server.downtime_s > 0.0
        assert result.throughput > 0.0

    def test_all_servers_crashing_is_not_fatal(
        self, stepper, tiny_scenario, one_sunny_day, midday_step
    ):
        def crash_all(sim):
            for node in sim.cluster:
                node.server.brownout()

        _sim, result = run_on_stepper(
            stepper, tiny_scenario, "baat", one_sunny_day, midday_step, crash_all
        )
        assert result.total_downtime_s > 0.0
        assert result.throughput > 0.0


class TestEngineStepInterface:
    def test_step_past_end_raises(self, tiny_scenario, one_sunny_day):
        sim = Simulation(tiny_scenario, make_policy("e-buff"), one_sunny_day)
        sim.run()
        with pytest.raises(SimulationError):
            sim.step_once()

    def test_partial_then_run_completes(self, tiny_scenario, one_sunny_day):
        sim = Simulation(tiny_scenario, make_policy("e-buff"), one_sunny_day)
        for _ in range(10):
            sim.step_once()
        result = sim.run()
        assert result.duration_s == pytest.approx(one_sunny_day.duration_s)

    def test_stepwise_equals_batch(self, tiny_scenario, one_cloudy_day):
        batch = Simulation(tiny_scenario, make_policy("baat"), one_cloudy_day).run()
        stepped_sim = Simulation(tiny_scenario, make_policy("baat"), one_cloudy_day)
        while stepped_sim.steps_done < stepped_sim.steps_total:
            stepped_sim.step_once()
        stepped = stepped_sim._collect()
        assert stepped.throughput == pytest.approx(batch.throughput)
        assert stepped.worst_damage_per_day() == pytest.approx(
            batch.worst_damage_per_day()
        )
