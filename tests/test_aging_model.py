"""Unit tests for the combined aging model."""

import dataclasses

import pytest

from repro.battery.aging.conditions import OperatingConditions
from repro.battery.aging.model import RESISTANCE_GROWTH_GAIN, AgingModel, AgingState
from repro.units import clamp, days, hours


def conditions(**overrides) -> OperatingConditions:
    base = dict(
        soc=0.8,
        current=0.0,
        temperature_c=25.0,
        reference_current=1.75,
        capacity_ah=35.0,
    )
    base.update(overrides)
    return OperatingConditions(**base)


class TestAccumulation:
    def test_starts_fresh(self):
        model = AgingModel()
        assert model.capacity_fade == 0.0
        assert model.health == 1.0
        assert not model.is_end_of_life

    def test_step_returns_added_fade(self):
        model = AgingModel()
        added = model.step(conditions(current=5.0, soc=0.3), hours(1))
        assert added > 0.0
        assert model.capacity_fade == pytest.approx(added)

    def test_damage_accumulates_across_steps(self):
        model = AgingModel()
        for _ in range(10):
            model.step(conditions(current=5.0, soc=0.3), hours(1))
        assert model.capacity_fade > 0.0
        assert len(model.state.damage) >= 2  # several mechanisms active

    def test_rejects_negative_dt(self):
        model = AgingModel()
        with pytest.raises(ValueError):
            model.step(conditions(), -1.0)

    def test_tracks_throughput(self):
        model = AgingModel()
        model.step(conditions(current=5.0), hours(2))
        model.step(conditions(current=-3.0), hours(2))
        assert model.state.discharged_ah == pytest.approx(10.0)
        assert model.state.charged_ah == pytest.approx(6.0)


class TestFeedback:
    def test_aged_battery_ages_faster(self):
        """Positive feedback: identical conditions damage an aged battery
        more per step than a fresh one."""
        fresh = AgingModel()
        aged = AgingModel()
        aged.state.damage["active_mass"] = 0.10
        d_fresh = fresh.step(conditions(current=5.0, soc=0.3), hours(1))
        d_aged = aged.step(conditions(current=5.0, soc=0.3), hours(1))
        assert d_aged > d_fresh

    def test_feedback_can_be_disabled(self):
        flat = AgingModel(feedback_gain=0.0)
        flat.state.damage["active_mass"] = 0.10
        fresh = AgingModel(feedback_gain=0.0)
        d_flat = flat.step(conditions(current=5.0, soc=0.3), hours(1))
        d_fresh = fresh.step(conditions(current=5.0, soc=0.3), hours(1))
        assert d_flat == pytest.approx(d_fresh)


class TestDerivedQuantities:
    def test_resistance_growth_from_resistive_mechanisms(self):
        model = AgingModel()
        model.state.damage["corrosion"] = 0.05
        assert model.resistance_growth > 0.0

    def test_nonresistive_damage_grows_resistance_less(self):
        corroded = AgingModel()
        corroded.state.damage["corrosion"] = 0.05
        shed = AgingModel()
        shed.state.damage["active_mass"] = 0.05
        assert corroded.resistance_growth > shed.resistance_growth

    def test_coulombic_factor_degrades_with_fade(self):
        model = AgingModel()
        model.state.damage["active_mass"] = 0.10
        assert model.coulombic_efficiency_factor < 1.0

    def test_end_of_life_at_twenty_percent(self):
        model = AgingModel()
        model.state.damage["active_mass"] = 0.21
        assert model.is_end_of_life
        assert model.health == 0.0

    def test_breakdown_sums_to_one(self):
        model = AgingModel()
        for _ in range(5):
            model.step(conditions(current=5.0, soc=0.3), hours(1))
        breakdown = model.damage_breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_breakdown_empty_when_new(self):
        assert AgingModel().damage_breakdown() == {}


class TestAgingState:
    def test_copy_is_independent(self):
        state = AgingState(damage={"corrosion": 0.01}, discharged_ah=5.0)
        snap = state.copy()
        state.damage["corrosion"] = 0.05
        state.discharged_ah = 10.0
        assert snap.damage["corrosion"] == 0.01
        assert snap.discharged_ah == 5.0


class TestCalibration:
    def test_six_month_aggressive_cycling_near_paper_fade(self):
        """Integrated sanity check: a ~50 % DoD daily cycle for 180 days
        lands near the paper's ~14 % measured fade (broad tolerance)."""
        model = AgingModel()
        for _ in range(180):
            # 5 h discharge at ~2x reference rate around mid SoC.
            model.step(conditions(current=3.5, soc=0.7), hours(2.5))
            model.step(conditions(current=3.5, soc=0.5), hours(2.5))
            # 8 h recharge with mild gassing near the top.
            model.step(conditions(current=-3.0, soc=0.8), hours(6))
            model.step(
                conditions(current=-1.0, soc=0.95, gassing_current=0.3), hours(2)
            )
            model.step(conditions(soc=1.0), hours(11))
        assert 0.06 < model.capacity_fade < 0.25


class TestStratificationRecovery:
    def test_full_charge_recovers_recent_stratification(self):
        model = AgingModel()
        for _ in range(20):
            model.step(
                conditions(current=2.0, soc=0.5, hours_since_full_charge=100.0),
                hours(5),
            )
        before = model.state.damage["stratification"]
        recovered = model.recover_stratification(fraction=0.25)
        assert recovered > 0.0
        assert model.state.damage["stratification"] == pytest.approx(
            before - recovered
        )

    def test_pre_existing_damage_is_not_recoverable(self):
        """Recovery only applies to stratification accrued since the last
        full charge; injected (historic) damage is permanent."""
        model = AgingModel()
        model.state.damage["stratification"] = 0.05
        assert model.recover_stratification(fraction=1.0) == 0.0
        assert model.state.damage["stratification"] == 0.05

    def test_unstirred_residue_becomes_permanent(self):
        model = AgingModel()
        for _ in range(10):
            model.step(
                conditions(current=2.0, soc=0.5, hours_since_full_charge=100.0),
                hours(5),
            )
        model.recover_stratification(fraction=0.25)
        # A second recovery without new cycling finds nothing to stir.
        assert model.recover_stratification(fraction=1.0) == 0.0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            AgingModel().recover_stratification(fraction=1.5)


def recomputed(model: AgingModel):
    """``(capacity_fade, resistance_growth, health)`` from the plain
    formulas over the model's present damage, with no cache."""
    damage = model.state.damage
    shares = {m.name: m.resistance_share for m in model.mechanisms}
    total = sum(damage.values())
    growth = RESISTANCE_GROWTH_GAIN * sum(
        d * shares.get(name, 0.0) for name, d in damage.items()
    )
    return (
        clamp(total, 0.0, 0.95),
        growth,
        clamp(1.0 - total / model.eol_fade, 0.0, 1.0),
    )


def cached(model: AgingModel):
    return model.capacity_fade, model.resistance_growth, model.health


class TestDerivedCache:
    """The derived quantities are cached per damage state; every writer of
    the damage record must be seen, bit for bit."""

    def _aged(self) -> AgingModel:
        model = AgingModel()
        for _ in range(5):
            model.step(
                conditions(current=2.0, soc=0.5, hours_since_full_charge=100.0),
                hours(5),
            )
        return model

    def test_fresh_model_matches_formulas(self):
        model = AgingModel()
        assert cached(model) == recomputed(model)

    def test_step(self):
        model = self._aged()
        before = cached(model)
        model.step(conditions(current=5.0, soc=0.3), hours(1))
        assert cached(model) != before
        assert cached(model) == recomputed(model)

    def test_recover_stratification(self):
        model = self._aged()
        before = cached(model)
        assert model.recover_stratification(fraction=0.5) > 0.0
        assert cached(model) != before
        assert cached(model) == recomputed(model)

    def test_direct_damage_write(self):
        model = self._aged()
        before = cached(model)
        model.state.damage["corrosion"] += 0.01
        assert cached(model) != before
        assert cached(model) == recomputed(model)
        model.state.damage["corrosion"] = 0.0
        assert cached(model) == recomputed(model)

    def test_state_swap(self):
        model = self._aged()
        before = cached(model)
        other = AgingModel()
        other.state.damage["sulphation"] = 0.03
        model.state = other.state
        assert cached(model) != before
        assert cached(model) == recomputed(model)
        # Back to a copy of the old record: same floats as before.
        model.state = self._aged().state
        assert cached(model) == before

    def test_fleet_materialize_write_back(self, tiny_scenario, one_cloudy_day):
        from repro.core.policies.factory import make_policy
        from repro.sim.engine import Simulation

        scenario = dataclasses.replace(tiny_scenario, stepper="fleet")
        sim = Simulation(scenario, make_policy("baat"), one_cloudy_day)
        sim.step_once()
        batteries = [node.battery for node in sim.cluster]
        before = [cached(b.aging) for b in batteries]
        # The arrays advance while the objects (and their caches) stay put.
        for _ in range(60):
            sim.step_once()
        sim._fleet.materialize()
        after = [cached(b.aging) for b in batteries]
        assert after != before
        assert after == [recomputed(b.aging) for b in batteries]
