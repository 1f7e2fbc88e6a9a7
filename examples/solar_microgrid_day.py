#!/usr/bin/env python3
"""Operating a solar micro-datacenter through a volatile day.

Walks one rainy day hour by hour with the full BAAT controller active,
showing the control story of paper Figs. 8-9 end to end:

- the solar trace and the cluster's demand;
- per-node battery SoC evolution and the five aging metrics
  (NAT / CF / PC / DDT / DR) the controller computes from its sensor trackers;
- the actions BAAT takes — weighted placement, DVFS throttling, VM
  migration, consolidation parking — as supply tightens.

Run:  python examples/solar_microgrid_day.py
"""

import numpy as np

from repro import Scenario, Simulation, make_policy
from repro.analysis.reporting import format_table
from repro.solar import DayClass
from repro.units import SECONDS_PER_HOUR


def main() -> None:
    scenario = Scenario(dt_s=60.0)
    trace = scenario.trace_generator().day(DayClass.RAINY)
    policy = make_policy("baat")
    sim = Simulation(scenario, policy, trace, record_series=True)
    result = sim.run()

    print(f"Rainy day: solar delivered {trace.energy_wh() / 1000:.2f} kWh")
    print(f"Cluster throughput: {result.throughput:,.0f} progress units")
    print(
        f"Actions: {policy.monitor.migrations} migrations, "
        f"{policy.monitor.throttles} DVFS throttles, "
        f"{policy.monitor.parks} parks, "
        f"{policy.consolidations} consolidation passes\n"
    )

    # Hourly snapshot of the fleet through the operating window.
    steps_per_hour = int(SECONDS_PER_HOUR / scenario.dt_s)
    recorder = sim.recorder
    rows = []
    for hour in range(8, 19):
        i = hour * steps_per_hour
        solar = recorder.solar_w[i]
        demand = recorder.demand_w[i]
        socs = [recorder.soc_series[n.name][i] for n in sim.cluster]
        rows.append(
            (
                f"{hour:02d}:00",
                solar,
                demand,
                float(np.mean(socs)),
                float(np.min(socs)),
                sum(1 for n in sim.cluster if not n.server.policy_off),
            )
        )
    print(
        format_table(
            ("time", "solar W", "demand W", "mean SoC", "min SoC", "active servers"),
            rows,
            title="Hourly fleet state (operating window)",
            float_fmt="{:.2f}",
        )
    )

    # The five aging metrics per node, over the whole day.
    print()
    metric_rows = []
    for node in result.nodes:
        m = node.metrics
        cf = min(m.cf, 99.0)
        metric_rows.append(
            (node.name, m.discharged_ah, m.nat * 1000.0, cf, m.pc, m.ddt, m.dr_peak)
        )
    print(
        format_table(
            ("node", "Ah out", "NAT x1e-3", "CF", "PC", "DDT", "peak DR"),
            metric_rows,
            title="Aging metrics per battery node (Eqs. 1-5)",
        )
    )


if __name__ == "__main__":
    main()
