"""Unit tests for the cost models (depreciation, TCO, expansion)."""

import pytest

from repro.battery.params import BatteryParams
from repro.cost.depreciation import DepreciationModel, annual_depreciation_usd
from repro.cost.expansion import ExpansionModel, expansion_at_constant_tco
from repro.cost.tco import TCOModel
from repro.errors import ConfigurationError


class TestDepreciation:
    def test_straight_line(self):
        # A $73 battery lasting one year costs $73/year.
        assert annual_depreciation_usd(73.0, 365.0) == pytest.approx(73.0)

    def test_longer_life_costs_less(self):
        assert annual_depreciation_usd(73.0, 730.0) == pytest.approx(36.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            annual_depreciation_usd(-1.0, 365.0)
        with pytest.raises(ConfigurationError):
            annual_depreciation_usd(73.0, 0.0)

    def test_fleet_cost(self):
        model = DepreciationModel(BatteryParams(), n_batteries=6)
        single = annual_depreciation_usd(model.unit_cost_usd, 365.0)
        assert model.annual_cost_usd(365.0) == pytest.approx(6 * single)

    def test_paper_26_percent_example(self):
        """A 1.35x lifetime extension yields ~26 % lower depreciation."""
        model = DepreciationModel(BatteryParams(), n_batteries=6)
        base = model.annual_cost_usd(365.0)
        improved = model.annual_cost_usd(365.0 * 1.35)
        assert (1.0 - improved / base) * 100.0 == pytest.approx(26.0, abs=0.5)


class TestTCO:
    @pytest.fixture
    def tco(self):
        return TCOModel(DepreciationModel(BatteryParams(), n_batteries=6))

    def test_breakdown_totals(self, tco):
        cost = tco.annual(n_servers=6, battery_lifetime_days=365.0,
                          grid_kwh_per_year=100.0)
        assert cost.total_usd == pytest.approx(
            cost.servers_usd + cost.batteries_usd + cost.energy_usd
        )
        assert cost.servers_usd == pytest.approx(6 * 500.0)
        assert cost.energy_usd == pytest.approx(10.0)

    def test_battery_life_lowers_total(self, tco):
        short = tco.annual(6, 365.0).total_usd
        long = tco.annual(6, 1095.0).total_usd
        assert long < short

    def test_validation(self, tco):
        with pytest.raises(ConfigurationError):
            tco.annual(0, 365.0)


class TestExpansion:
    def _model(self, gain=1.6, headroom=0.2):
        tco = TCOModel(DepreciationModel(BatteryParams(), n_batteries=6))
        base_life = 200.0
        baat_life = base_life * gain

        def lifetime_of_ratio(ratio):
            # Lifetime falls with load, anchored at the baseline ratio.
            return baat_life * (4.3 / ratio) ** 0.5

        return ExpansionModel(
            tco=tco,
            baseline_servers=6,
            lifetime_of_ratio=lifetime_of_ratio,
            baseline_lifetime_days=base_life,
            baseline_ratio_w_per_ah=4.3,
            solar_headroom_fraction=headroom,
        )

    def test_positive_expansion_from_battery_savings(self):
        expansion = expansion_at_constant_tco(self._model())
        assert expansion > 0.0

    def test_capped_by_solar_headroom(self):
        capped = expansion_at_constant_tco(self._model(headroom=0.01))
        assert capped <= 0.01 + 1e-9

    def test_larger_lifetime_gain_buys_more_servers(self):
        small = expansion_at_constant_tco(self._model(gain=1.2))
        large = expansion_at_constant_tco(self._model(gain=2.0))
        assert large >= small

    def test_no_gain_no_expansion(self):
        expansion = expansion_at_constant_tco(self._model(gain=1.0))
        assert expansion == pytest.approx(0.0, abs=0.02)

    def test_validation(self):
        tco = TCOModel(DepreciationModel(BatteryParams()))
        with pytest.raises(ConfigurationError):
            ExpansionModel(
                tco=tco,
                baseline_servers=0,
                lifetime_of_ratio=lambda r: 100.0,
                baseline_lifetime_days=100.0,
                baseline_ratio_w_per_ah=4.3,
                solar_headroom_fraction=0.1,
            )
