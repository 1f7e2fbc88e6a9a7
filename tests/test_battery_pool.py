"""Unit tests for the rack-shared battery pool."""

import pytest

from repro.battery.pool import BatteryPool
from repro.battery.unit import BatteryUnit
from repro.errors import ConfigurationError
from repro.units import hours


def make_units(n=3, socs=None, params=None):
    from repro.battery.params import BatteryParams

    params = params or BatteryParams()
    socs = socs or [1.0] * n
    return [
        BatteryUnit(params, name=f"pool-{i}", initial_soc=socs[i]) for i in range(n)
    ]


class TestConstruction:
    def test_requires_units(self):
        with pytest.raises(ConfigurationError):
            BatteryPool([])

    def test_len_and_iter(self):
        pool = BatteryPool(make_units(4))
        assert len(pool) == 4
        assert len(list(pool)) == 4


class TestAggregates:
    def test_full_pool_soc_is_one(self):
        assert BatteryPool(make_units()).soc == pytest.approx(1.0)

    def test_mixed_soc_is_charge_weighted(self):
        pool = BatteryPool(make_units(2, socs=[1.0, 0.5]))
        assert pool.soc == pytest.approx(0.75)

    def test_capacity_sums(self):
        pool = BatteryPool(make_units(3))
        assert pool.effective_capacity_ah == pytest.approx(3 * 35.0)


class TestProportionalDischarge:
    def test_meets_request(self):
        pool = BatteryPool(make_units(3))
        result = pool.discharge(300.0, 60.0)
        assert result.delivered_power_w == pytest.approx(300.0, rel=0.02)
        assert not result.curtailed

    def test_spreads_across_members(self):
        units = make_units(3)
        pool = BatteryPool(units)
        pool.discharge(300.0, hours(1))
        socs = [u.soc for u in units]
        assert max(socs) - min(socs) < 0.02

    def test_stronger_member_carries_more(self):
        units = make_units(2, socs=[1.0, 0.3])
        pool = BatteryPool(units)
        pool.discharge(200.0, hours(1))
        drop_full = 1.0 - units[0].soc
        drop_weak = 0.3 - units[1].soc
        assert drop_full > drop_weak

    def test_curtailed_when_empty(self, params):
        units = make_units(2, socs=[params.cutoff_soc, params.cutoff_soc])
        pool = BatteryPool(units)
        result = pool.discharge(100.0, 60.0)
        assert result.curtailed
        assert result.delivered_power_w == 0.0


class TestCharge:
    def test_emptiest_first(self):
        units = make_units(2, socs=[0.9, 0.3])
        pool = BatteryPool(units)
        pool.charge(30.0, hours(1))
        # The emptier unit should have received (almost) all the charge.
        assert (0.3 - 0.3) <= (units[1].soc - 0.3)
        assert units[1].soc - 0.3 > units[0].soc - 0.9

    def test_full_pool_absorbs_nothing(self):
        pool = BatteryPool(make_units(2))
        result = pool.charge(100.0, 60.0)
        assert result.delivered_power_w == pytest.approx(0.0)
        assert result.curtailed

    def test_rest_advances_everyone(self):
        units = make_units(2)
        pool = BatteryPool(units)
        pool.rest(hours(2))
        assert all(u.time_s == pytest.approx(hours(2)) for u in units)
