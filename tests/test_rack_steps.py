"""The rack-shared pool's routing rules, pinned step by step.

``tests/data/rack_steps.json`` records what the pooled power path does
to small racks in scripted cases, one record per step: the step's
flows, and per node its battery state (SoC, last current, temperature,
clocks, energy, aging throughput and the five mechanisms' damage), its
unserved and fed-back energy, its tracker's throughput and its server's
power state. The cases reach every rule of the pool, including the ones
a paper run never meets:

- a full member offered surplus rests; one still full after its rest
  (a block without self-discharge) then ages one more step at the float
  current;
- a down server restarts on the rack's solar split over all its nodes,
  or on the pool when the pool's charge-weighted SoC reaches
  ``RESTART_SOC`` and the solar share plus an even share of the pool's
  deliverable power covers its idle draw;
- the utility budget covers ``min(budget, residual)`` of the rack's
  aggregate deficit;
- the members' discharge caps sum to the pool's ceiling, which is
  ``inf`` when any cap is;
- the pool's request splits over all members in proportion to their
  deliverable power (a dead member rests);
- a materially unserved rack sheds its hungriest servers first, ties in
  node order;
- surplus charges the pool, emptiest member first, until less than
  1e-12 W is left.

The fixture was recorded from the object-path rack (``RackPowerPath``
over ``BatteryPool``) before the fleet stepper took over its rules.
``PYTHONPATH=src python -m tests.test_rack_steps`` rewrites it from the
fleet path: do that only for a deliberate change of the rules.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

from repro.battery.params import BatteryParams
from repro.battery.unit import BatteryUnit
from repro.datacenter.cluster import Cluster
from repro.datacenter.node import Node
from repro.datacenter.vm import VM
from repro.datacenter.workloads import PAPER_WORKLOADS
from repro.sim.fleet import FleetPowerPath
from repro.sim.scenario import Scenario
from tests.test_rack_pool import steady_vm

FIXTURE = Path(__file__).parent / "data" / "rack_steps.json"

#: Relative tolerance of a recorded float.
REL_TOL = 1e-9

CUTOFF = BatteryParams().cutoff_soc

#: A block that holds its charge at rest, so a full one stays full.
NO_SELF_DISCHARGE = BatteryParams(self_discharge_per_day=0.0)


def make_path(cluster: Cluster, budget: float):
    """The pooled power path under test."""
    return FleetPowerPath(cluster, utility_budget_w=budget, architecture="rack-pool")


class Rack:
    """A small rack, its pooled power path and its step clock."""

    def __init__(
        self, socs, cap_factors=None, fade=0.0, budget=0.0, dt=60.0, params=None
    ):
        nodes = []
        for i, soc in enumerate(socs):
            battery = BatteryUnit(
                (params and params[i]) or BatteryParams(),
                name=f"node{i}/battery",
                initial_soc=soc,
                capacity_factor=cap_factors[i] if cap_factors else 1.0,
            )
            if fade:
                Scenario._pre_age(battery, fade)
            nodes.append(Node.build(f"node{i}", battery=battery))
        self.cluster = Cluster(nodes)
        self.path = make_path(self.cluster, budget)
        self.dt = dt
        self.t = 0.0
        self.rng = None

    def edit(self, change) -> None:
        """Apply ``change(cluster)`` to the objects between steps."""
        self.path.fleet.materialize()
        change(self.cluster)
        self.path.fleet.capture()

    def battery(self, i: int) -> BatteryUnit:
        """Node ``i``'s battery object, current."""
        self.path.fleet.materialize()
        return self.cluster.nodes[i].battery

    def step(self, solar_w: float) -> dict:
        flows = self.path.step(self.t, self.dt, solar_w, rng=self.rng)
        self.t += self.dt
        return record(self, flows)


def record(rack: Rack, flows) -> dict:
    rack.path.fleet.materialize()
    nodes, states = [], []
    for node in rack.cluster:
        b = node.battery
        state = b.aging.state
        acc = node.tracker.acc
        nodes.append(
            [
                b.soc, b.last_current_a, b.thermal.temperature_c, b.time_s,
                b.hours_since_full_charge, b.energy_in_wh, b.energy_out_wh,
                state.discharged_ah, state.charged_ah,
                b.aging._recoverable_stratification,
                *state.damage.values(),
                node.unserved_wh, node.feedback_wh,
                acc.discharged_ah, acc.charged_ah,
            ]
        )
        states.append(node.server.state.value)
    return {
        "flows": [
            flows.demand_w, flows.solar_available_w, flows.solar_to_load_w,
            flows.solar_to_battery_w, flows.battery_to_load_w,
            flows.utility_to_load_w, flows.grid_feedback_w, flows.unserved_w,
        ],
        "browned_out": flows.browned_out_nodes,
        "nodes": nodes,
        "states": states,
    }


def load(utils):
    def change(cluster):
        for node, util in zip(cluster.nodes, utils):
            cluster.place(steady_vm(f"vm-{node.name}", util), node.name)

    return change


def admin_off(cluster):
    for node in cluster:
        node.server.admin_off = True


def caps(values):
    def change(cluster):
        for node, cap in zip(cluster.nodes, values):
            node.discharge_cap_w = cap

    return change


def down(*indices):
    def change(cluster):
        for i in indices:
            cluster.nodes[i].server.brownout()

    return change


def acceptance_w(rack: Rack, i: int) -> float:
    """Power member ``i`` absorbs when offered more than it accepts."""
    return copy.deepcopy(rack.battery(i)).charge(1e6, rack.dt).delivered_power_w


# --- the cases: each yields the solar power of its next step -------------
def float_charge(rack_of):
    """Surplus fills the non-full members, emptiest first, then reaches
    the full ones, which rest. A full member without self-discharge is
    still full after its rest and ages one more step on float (one of
    them with a stale full charge, so stratification accrues there); a
    self-discharging one is not, and only rests."""
    rack = rack_of(
        [1.0, 0.6, 1.0, 0.95, 1.0],
        cap_factors=[1.0, 0.9, 1.1, 1.0, 1.0],
        fade=0.05,
        params=[NO_SELF_DISCHARGE, None, NO_SELF_DISCHARGE, None, None],
    )
    rack.edit(admin_off)

    def stale(cluster):
        cluster.nodes[2].battery._hours_since_full = 30.0

    rack.edit(stale)
    for solar in (800.0, 800.0, 800.0, 0.0, 800.0, 5.0):
        yield rack, solar


def charge_stop(rack_of):
    """The walk charges on while more than 1e-12 W is left: a member
    offered a few 1e-10 W still charges and the full ones float; a
    surplus a few 1e-13 W over the first member's absorption rests them
    all."""
    rack = rack_of([0.5, 0.7, 1.0, 1.0], fade=0.02, params=[NO_SELF_DISCHARGE] * 4)
    rack.edit(admin_off)
    yield rack, acceptance_w(rack, 0) + 5e-10
    yield rack, acceptance_w(rack, 0) + 2e-13
    yield rack, acceptance_w(rack, 0) + 3e-11


def restart_on_solar(rack_of):
    """The solar share is over all n nodes, not the drawing ones: a
    share below idle keeps the down servers down, one at idle restarts
    them; the pool (SoC below RESTART_SOC) never helps."""
    rack = rack_of([0.2, 0.2, 0.2, 0.2])
    rack.edit(down(0, 1))
    for solar in (200.0, 240.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0):
        yield rack, solar


def restart_on_pool(rack_of):
    """A drained member's server restarts on a pool above RESTART_SOC."""
    rack = rack_of([0.13, 0.15, 0.9, 0.9])
    rack.edit(load([0.3, 0.3, 0.3, 0.3]))
    rack.edit(down(0))
    for solar in (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0):
        yield rack, solar


def restart_charge_weighted(rack_of):
    """The pool's SoC is charge-weighted: the members' plain mean is
    RESTART_SOC, the weighted one below it, so the down server (whose
    own SoC is above RESTART_SOC) stays down."""
    rack = rack_of([0.4, 0.1, 0.4, 0.1], cap_factors=[0.6, 1.4, 0.6, 1.4])
    rack.edit(down(0))
    for solar in (0.0, 0.0, 0.0):
        yield rack, solar


def caps_budget_shedding(rack_of):
    """The budget covers part of the rack's deficit; caps limit the pool
    only when every one is finite; a short pool sheds the hungriest
    servers first (the two equal ones in node order), which restart on
    the pool's prospect."""
    rack = rack_of([0.8, 0.6, 0.7, 0.9], cap_factors=[1.0, 0.95, 1.05, 1.0], budget=100.0)
    rack.edit(load([0.9, 0.5, 0.5, 0.2]))
    yield rack, 0.0
    rack.edit(caps([5.0, math.inf, math.inf, math.inf]))
    yield rack, 50.0
    rack.edit(caps([5.0, 10.0, 20.0, 40.0]))
    yield rack, 0.0
    yield rack, 0.0
    rack.edit(caps([math.inf] * 4))
    for solar in (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 900.0):
        yield rack, solar


def budget_covers_all(rack_of):
    """A budget above the deficit carries the rack; the pool rests."""
    rack = rack_of([0.8, 0.6, 0.7, 0.9], budget=1000.0)
    rack.edit(load([0.9, 0.5, 0.5, 0.2]))
    for solar in (0.0, 100.0):
        yield rack, solar


def depleted_members(rack_of):
    """Members at or near cut-off: a dead member takes no share and
    rests (its last current clears), a nearly empty one is cut short by
    its available charge, and the short rack sheds."""
    rack = rack_of([CUTOFF, CUTOFF + 0.0005, 0.5, CUTOFF + 0.002], fade=0.08)
    rack.edit(load([0.9, 0.9, 0.6, 0.9]))
    for solar in (0.0, 0.0, 0.0, 0.0, 0.0):
        yield rack, solar


def dead_pool(rack_of):
    """No member can deliver: every one rests and the rack sheds."""
    rack = rack_of([CUTOFF, CUTOFF, CUTOFF, CUTOFF])
    rack.edit(load([0.4, 0.6, 0.6, 0.2]))
    for solar in (0.0, 0.0):
        yield rack, solar


def cloudy_day(rack_of):
    """Paper workloads with demand noise over a day's solar arc."""
    rack = rack_of(
        [0.9, 0.8, 1.0, 0.7], cap_factors=[1.02, 0.97, 1.0, 0.93], fade=0.1, dt=300.0
    )
    names = ("web_serving", "data_analytics", "word_count", "nutch_indexing")

    def place(cluster):
        for node, name in zip(cluster.nodes, names):
            cluster.place(VM(name=f"vm-{name}", workload=PAPER_WORKLOADS[name]), node.name)

    rack.edit(place)
    rack.rng = np.random.default_rng(20150622)
    arc = [0.0] * 6 + [120.0 * k for k in range(1, 11)] + [1200.0 - 150.0 * k for k in range(9)]
    for solar in arc + [0.0] * 12:
        yield rack, solar


CASES = (
    float_charge, charge_stop, restart_on_solar, restart_on_pool,
    restart_charge_weighted, caps_budget_shedding, budget_covers_all,
    depleted_members, dead_pool, cloudy_day,
)


def run_case(case) -> list:
    """Every step record of ``case``, with the solar it stepped on."""
    steps = []
    for rack, solar in case(Rack):
        steps.append({"solar": solar, **rack.step(solar)})
    return steps


def _same(got, want) -> bool:
    if isinstance(want, float):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
    return type(got) is type(want) and got == want


def test_every_case_matches_the_fixture():
    fixture = json.loads(FIXTURE.read_text())
    assert sorted(fixture) == sorted(case.__name__ for case in CASES)
    for case in CASES:
        got = json.loads(json.dumps(run_case(case)))
        want = fixture[case.__name__]
        assert len(got) == len(want), case.__name__
        for k, (g, w) in enumerate(zip(got, want)):
            where = (case.__name__, k)
            assert _same(g["solar"], w["solar"]), where
            assert g["browned_out"] == w["browned_out"], where
            assert g["states"] == w["states"], where
            for j, (a, b) in enumerate(zip(g["flows"], w["flows"])):
                assert _same(a, b), (*where, "flow", j, a, b)
            for i, (a_node, b_node) in enumerate(zip(g["nodes"], w["nodes"])):
                for j, (a, b) in enumerate(zip(a_node, b_node)):
                    assert _same(a, b), (*where, "node", i, j, a, b)


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({case.__name__: run_case(case) for case in CASES}, indent=None)
        + "\n"
    )
