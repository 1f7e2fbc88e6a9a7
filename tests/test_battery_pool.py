"""The rack-shared pool's member rules on the fleet stepper.

A pool's members are its rack's node batteries: the pool SoC is
charge-weighted over them, a discharge request splits in proportion to
each member's deliverable power, and surplus fills the emptiest members
first. The rack helpers come from ``tests/test_rack_pool.py``.
"""

import pytest

from repro.battery.params import BatteryParams
from repro.errors import ConfigurationError
from repro.sim.scenario import Scenario
from repro.units import hours
from tests.test_rack_pool import batteries, make_rack, place

DT = 60.0


def run(path, seconds, solar_w=0.0):
    """Step the rack for ``seconds``; the last step's flows."""
    for k in range(int(seconds // DT)):
        flows = path.step(k * DT, DT, solar_w=solar_w)
    return flows


def pool_soc(path):
    [soc] = path._pool_socs(path.fleet.derived_now())
    return soc


class TestConstruction:
    def test_requires_units(self):
        with pytest.raises(ConfigurationError):
            Scenario(n_nodes=0, architecture="rack-pool", stepper="fleet")

    def test_len_and_iter(self):
        cluster, path = make_rack(4)
        assert path.fleet.n == 4
        assert [n.battery for n in path.fleet.nodes] == [n.battery for n in cluster]


class TestAggregates:
    def test_full_pool_soc_is_one(self):
        _, path = make_rack()
        assert pool_soc(path) == pytest.approx(1.0)

    def test_mixed_soc_is_charge_weighted(self):
        _, path = make_rack(socs=[1.0, 0.5])
        assert pool_soc(path) == pytest.approx(0.75)

    def test_capacity_sums(self):
        # 35 Ah full beside 17.5 Ah empty: the pool holds 35 of 52.5 Ah.
        _, path = make_rack(socs=[1.0, 0.0], cap_factors=[1.0, 0.5])
        assert pool_soc(path) == pytest.approx(2.0 / 3.0)


class TestProportionalDischarge:
    def test_meets_request(self):
        cluster, path = make_rack()
        for node in cluster:
            place(cluster, path, 0.5, node.name)
        flows = path.step(0.0, DT, solar_w=0.0)
        assert flows.battery_to_load_w == pytest.approx(flows.demand_w, rel=0.02)
        # Not curtailed: the voltage solve's sub-milliwatt residual only.
        assert flows.unserved_w < 1e-4 * flows.demand_w
        assert flows.browned_out_nodes == 0

    def test_spreads_across_members(self):
        cluster, path = make_rack()
        place(cluster, path, 0.9, "node0")
        run(path, hours(1))
        socs = [b.soc for b in batteries(cluster, path)]
        assert max(socs) - min(socs) < 0.02

    def test_stronger_member_carries_more(self):
        cluster, path = make_rack(socs=[1.0, 0.3])
        place(cluster, path, 0.9, "node0")
        run(path, hours(1))
        full, weak = batteries(cluster, path)
        assert 1.0 - full.soc > 0.3 - weak.soc

    def test_curtailed_when_empty(self, params):
        cluster, path = make_rack(socs=[params.cutoff_soc] * 2)
        flows = path.step(0.0, DT, solar_w=0.0)
        assert flows.demand_w > 0.0
        assert flows.battery_to_load_w == 0.0
        assert flows.unserved_w == flows.demand_w


class TestCharge:
    def test_emptiest_first(self):
        cluster, path = make_rack(socs=[0.9, 0.3], idle=True)
        run(path, hours(1), solar_w=30.0)
        fuller, emptier = batteries(cluster, path)
        # The emptier unit received (almost) all the charge.
        assert emptier.soc - 0.3 > 0.0
        assert emptier.soc - 0.3 > fuller.soc - 0.9

    def test_full_pool_absorbs_nothing(self):
        _, path = make_rack(2, idle=True)
        flows = path.step(0.0, DT, solar_w=100.0)
        assert flows.solar_to_battery_w == pytest.approx(0.0)
        assert flows.grid_feedback_w == 100.0

    def test_full_member_floats(self):
        """A full member that holds its charge at rest, offered surplus,
        ages one more step on float: more corrosion, water loss and
        charged Ah than resting."""
        holds = BatteryParams(self_discharge_per_day=0.0)
        offered, offered_path = make_rack(2, idle=True, params=holds)
        resting, resting_path = make_rack(2, idle=True, params=holds)
        offered_path.step(0.0, DT, solar_w=100.0)
        resting_path.step(0.0, DT, solar_w=0.0)
        for floated, rested in zip(
            batteries(offered, offered_path), batteries(resting, resting_path)
        ):
            assert floated.soc == rested.soc == 1.0
            damage, rest_damage = floated.aging.state.damage, rested.aging.state.damage
            assert damage["corrosion"] > 2.0 * rest_damage["corrosion"]
            assert damage["water_loss"] > rest_damage["water_loss"] == 0.0
            assert floated.aging.state.charged_ah > rested.aging.state.charged_ah

    def test_rest_advances_everyone(self):
        cluster, path = make_rack(2, idle=True)
        run(path, hours(2))
        assert all(b.time_s == pytest.approx(hours(2)) for b in batteries(cluster, path))
