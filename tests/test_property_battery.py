"""Property-based tests for the battery substrate (hypothesis)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.params import BatteryParams
from repro.battery.peukert import peukert_factor
from repro.battery.unit import BatteryUnit
from repro.battery.voltage import VoltageModel

PARAMS = BatteryParams()

socs = st.floats(min_value=0.0, max_value=1.0)
fades = st.floats(min_value=0.0, max_value=0.5)
currents = st.floats(min_value=0.0, max_value=70.0)
powers = st.floats(min_value=0.0, max_value=500.0)
durations = st.floats(min_value=1.0, max_value=3600.0)


class TestVoltageInvariants:
    @given(soc=socs, fade=fades)
    def test_ocv_within_physical_window(self, soc, fade):
        model = VoltageModel(PARAMS)
        v = model.ocv(soc, fade)
        assert PARAMS.ocv_empty - 1e-9 <= v <= PARAMS.ocv_full + 1e-9

    @given(soc=socs, fade=fades, current=currents)
    def test_discharge_never_raises_voltage(self, soc, fade, current):
        model = VoltageModel(PARAMS)
        assert model.terminal_voltage(soc, current, fade) <= model.ocv(soc, fade) + 1e-9

    @given(soc=socs, fade=fades, current=currents)
    def test_charge_never_lowers_voltage(self, soc, fade, current):
        model = VoltageModel(PARAMS)
        assert model.terminal_voltage(soc, -current, fade) >= model.ocv(soc, fade) - 1e-9

    @given(s1=socs, s2=socs, fade=fades)
    def test_ocv_monotone_in_soc(self, s1, s2, fade):
        model = VoltageModel(PARAMS)
        lo, hi = min(s1, s2), max(s1, s2)
        assert model.ocv(lo, fade) <= model.ocv(hi, fade) + 1e-12


class TestPeukertInvariants:
    @given(current=currents)
    def test_factor_at_least_one(self, current):
        assert peukert_factor(current, PARAMS) >= 1.0

    @given(i1=currents, i2=currents)
    def test_factor_monotone(self, i1, i2):
        lo, hi = min(i1, i2), max(i1, i2)
        assert peukert_factor(lo, PARAMS) <= peukert_factor(hi, PARAMS) + 1e-12


class TestBatteryUnitInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.sampled_from(["d", "c", "r"]), powers, durations),
            min_size=1,
            max_size=25,
        )
    )
    def test_soc_always_bounded_and_fade_monotone(self, steps):
        battery = BatteryUnit(PARAMS)
        last_fade = 0.0
        for kind, power, dt in steps:
            if kind == "d":
                battery.discharge(power, dt)
            elif kind == "c":
                battery.charge(power, dt)
            else:
                battery.rest(dt)
            assert 0.0 <= battery.soc <= 1.0
            assert battery.soc >= PARAMS.cutoff_soc - 1e-9 or battery.soc <= 1.0
            assert battery.capacity_fade >= last_fade - 1e-15
            last_fade = battery.capacity_fade
            assert battery.effective_capacity_ah <= PARAMS.capacity_ah + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(power=st.floats(min_value=1.0, max_value=400.0), dt=durations)
    def test_delivered_never_exceeds_request(self, power, dt):
        battery = BatteryUnit(PARAMS)
        result = battery.discharge(power, dt)
        assert result.delivered_power_w <= power * 1.01
        assert result.current_a >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(power=st.floats(min_value=1.0, max_value=400.0), dt=durations)
    def test_charge_absorbed_never_exceeds_offer(self, power, dt):
        battery = BatteryUnit(PARAMS, initial_soc=0.4)
        result = battery.charge(power, dt)
        assert result.delivered_power_w <= power + 1e-9
        assert result.gassing_current_a >= 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        cycles=st.integers(min_value=1, max_value=5),
        power=st.floats(min_value=20.0, max_value=150.0),
    )
    def test_energy_out_never_exceeds_energy_in_plus_initial(self, cycles, power):
        """Thermodynamics: cycling cannot create energy. Starting full,
        total output is bounded by input plus one full charge."""
        battery = BatteryUnit(PARAMS)
        initial_wh = PARAMS.nominal_voltage * PARAMS.capacity_ah
        for _ in range(cycles):
            battery.discharge(power, 3600.0 * 4)
            battery.charge(power, 3600.0 * 4)
        assert battery.energy_out_wh <= battery.energy_in_wh + initial_wh + 1e-6
