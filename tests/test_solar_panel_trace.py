"""Unit tests for the PV panel and trace generator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceError
from repro.solar.panel import PVPanel
from repro.solar.trace import SolarTrace, SolarTraceGenerator
from repro.solar.weather import DayClass
from repro.units import SECONDS_PER_DAY, hours


class TestPanel:
    def test_sizing_hits_energy_budget(self):
        panel = PVPanel.sized_for_daily_energy(8.0)
        assert panel.sunny_day_energy_wh() == pytest.approx(8000.0, rel=1e-3)

    def test_power_zero_at_night(self):
        panel = PVPanel.sized_for_daily_energy(8.0)
        assert panel.power(hours(1)) == 0.0

    def test_attenuation_scales_output(self):
        panel = PVPanel.sized_for_daily_energy(8.0)
        noon = hours(12.75)
        assert panel.power(noon, 0.5) == pytest.approx(0.5 * panel.power(noon, 1.0))

    def test_rejects_negative_attenuation(self):
        panel = PVPanel.sized_for_daily_energy(8.0)
        with pytest.raises(ConfigurationError):
            panel.power(hours(12), -0.1)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigurationError):
            PVPanel.sized_for_daily_energy(0.0)


@pytest.fixture
def generator():
    return SolarTraceGenerator(PVPanel.sized_for_daily_energy(8.0), seed=7, dt_s=300.0)


class TestTraceGenerator:
    def test_day_length(self, generator):
        trace = generator.day(DayClass.SUNNY)
        assert trace.duration_s == pytest.approx(SECONDS_PER_DAY)
        assert trace.n_days == 1

    def test_paper_energy_budgets(self, generator):
        """Sunny ~8 kWh, cloudy ~6 kWh, rainy ~3 kWh (section VI-A).

        Single days are stochastic; assert the class ordering and broad
        magnitudes."""
        sunny = generator.day(DayClass.SUNNY).energy_wh()
        cloudy = generator.day(DayClass.CLOUDY).energy_wh()
        rainy = generator.day(DayClass.RAINY).energy_wh()
        assert sunny > cloudy > rainy
        assert 6500 < sunny < 8500
        assert 4000 < cloudy < 7500
        assert 1200 < rainy < 4500

    def test_deterministic(self, generator):
        a = generator.day(DayClass.CLOUDY)
        b = generator.day(DayClass.CLOUDY)
        assert np.array_equal(a.power_w, b.power_w)

    def test_different_days_differ(self, generator):
        trace = generator.days([DayClass.CLOUDY, DayClass.CLOUDY])
        first, second = np.split(trace.power_w, 2)
        assert not np.array_equal(first, second)

    def test_season_day_count(self, generator):
        trace = generator.season(5, sunshine_fraction=0.5)
        assert trace.n_days == 5
        assert len(trace.day_classes) == 5

    def test_season_rejects_both_weather_args(self, generator):
        from repro.solar.weather import WeatherModel

        with pytest.raises(ConfigurationError):
            generator.season(3, weather=WeatherModel(0.5), sunshine_fraction=0.5)

    def test_empty_day_list_rejected(self, generator):
        with pytest.raises(ConfigurationError):
            generator.days([])


class TestSolarTrace:
    def test_rejects_negative_power(self):
        with pytest.raises(TraceError):
            SolarTrace(dt_s=60.0, power_w=np.array([-1.0]), day_classes=(DayClass.SUNNY,))

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            SolarTrace(dt_s=60.0, power_w=np.array([]), day_classes=())
