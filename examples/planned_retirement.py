#!/usr/bin/env python3
"""Planned aging: synchronising battery death with datacenter retirement.

Lead-acid batteries live 3-10 years; datacenters 10-15. When a facility's
decommission date is known, conserving batteries past it wastes
performance the fleet could have delivered. This example exercises the
paper's planned-aging scheme (section IV-D, Eq. 7):

1. compute the Eq.-7 DoD goal for several expected service lives and show
   how the goal deepens as the discard date approaches;
2. run BAAT-with-planning against plain BAAT and e-Buff on stressed days
   and report the productivity the plan unlocks (Fig. 22's story).

Run:  python examples/planned_retirement.py
"""

from repro import Scenario, Simulation, make_policy
from repro.analysis.reporting import format_table, percent_change
from repro.battery.unit import BatteryUnit
from repro.core.planner import PlannedAgingManager
from repro.core.policies.planned import PlannedAgingPolicy
from repro.solar import DayClass
from repro.units import days


def show_dod_goals() -> None:
    """Eq. 7 on a live battery log, across planning horizons."""
    rows = []
    for service_days in (180.0, 365.0, 730.0, 1460.0, 2920.0):
        battery = BatteryUnit(name="demo")
        # Simulate a year of prior service: ~30 % of throughput consumed.
        battery.aging.state.discharged_ah = 0.3 * battery.params.lifetime_ah_throughput
        battery.rest(days(1))  # advance the clock nominally
        manager = PlannedAgingManager(service_life_days=service_days)
        goal = manager.current_dod_goal(battery)
        rows.append(
            (
                f"{service_days:.0f} d",
                manager.remaining_cycles(battery.time_s),
                goal,
                1.0 - goal,
            )
        )
    print(
        format_table(
            ("service life", "cycles left", "DoD goal (Eq. 7)", "low-SoC threshold"),
            rows,
            title="Planned DoD vs expected service life (battery 30% consumed)",
        )
    )


def compare_policies() -> None:
    """Throughput of e-Buff vs BAAT vs planned BAAT on stressed days."""
    scenario = Scenario(dt_s=120.0, initial_fade=0.10)
    trace = scenario.trace_generator().days([DayClass.RAINY, DayClass.CLOUDY])

    results = {}
    for label, policy in (
        ("e-buff", make_policy("e-buff")),
        ("baat", make_policy("baat")),
        ("baat-planned (1y left)", PlannedAgingPolicy(service_life_days=365.0)),
        ("baat-planned (6y left)", PlannedAgingPolicy(service_life_days=2190.0)),
    ):
        results[label] = Simulation(scenario, policy, trace).run()

    base = results["e-buff"].throughput
    rows = [
        (
            label,
            r.throughput_per_day(),
            percent_change(r.throughput, base),
            r.worst_damage_per_day() * 1000.0,
        )
        for label, r in results.items()
    ]
    print()
    print(
        format_table(
            ("policy", "throughput/day", "vs e-buff %", "worst fade/day x1e-3"),
            rows,
            title="Two stressed days: productivity vs battery conservation",
        )
    )
    print(
        "\nA short remaining service life licenses deep discharge (more "
        "throughput, faster aging — deliberately); a long one conserves. "
        "That is the paper's Fig. 22 trade-off."
    )


if __name__ == "__main__":
    show_dod_goals()
    compare_policies()
