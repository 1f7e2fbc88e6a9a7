"""Unit tests for the PV panel and trace generator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceError
from repro.rng import spawn
from repro.solar.panel import PVPanel
from repro.solar.trace import SolarTrace, SolarTraceGenerator
from repro.solar.weather import CloudProcess, DayClass
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


def per_step_days(generator, day_classes, first_day_index=0):
    """The per-step generator loop `SolarTraceGenerator.days` replaced:
    one `Generator.choice` chain advance and one `PVPanel.power` call
    per step."""
    steps_per_day = int(round(SECONDS_PER_DAY / generator.dt_s))
    values = np.zeros(steps_per_day * len(day_classes))
    for d, day_class in enumerate(day_classes):
        clouds = CloudProcess(
            day_class, spawn(generator.seed, f"solar/day{first_day_index + d}")
        )
        for i in range(steps_per_day):
            t = (d * steps_per_day + i) * generator.dt_s
            clouds._remaining_s -= generator.dt_s
            if clouds._remaining_s <= 0.0:
                clouds._state = int(clouds.rng.choice(3, p=clouds._probs))
                clouds._remaining_s = float(clouds.rng.exponential(clouds._sojourn_s))
            att = min(1.05, max(0.0, clouds._atten[clouds._state] * clouds._scale))
            values[d * steps_per_day + i] = generator.panel.power(t, att)
    return values


class TestTraceOracle:
    """`days` advances the cloud chain per segment and evaluates the
    clear-sky curve once per time of day; every byte must match the
    per-step loop."""

    DAYS = [DayClass.SUNNY, DayClass.CLOUDY, DayClass.RAINY, DayClass.CLOUDY]

    @pytest.mark.parametrize("dt_s", [60.0, 120.0, 300.0, 97.0])
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("first_day_index", [0, 3])
    def test_bytes_equal_the_per_step_loop(self, dt_s, seed, first_day_index):
        generator = SolarTraceGenerator(
            PVPanel.sized_for_daily_energy(8.0), seed=seed, dt_s=dt_s
        )
        expected = per_step_days(generator, self.DAYS, first_day_index)
        trace = generator.days(self.DAYS, first_day_index=first_day_index)
        assert trace.power_w.tobytes() == expected.tobytes()

    def test_attenuations_in_chunks_continue_the_chain(self):
        # attenuations() resumes mid-segment: runs of any length, single
        # steps included, yield the one-run sequence.
        a = CloudProcess(DayClass.CLOUDY, spawn(3, "solar/day0"))
        b = CloudProcess(DayClass.CLOUDY, spawn(3, "solar/day0"))
        whole = a.attenuations(120.0, 500)
        chunks = b.attenuations(120.0, 200)
        for _ in range(7):
            chunks += b.attenuations(120.0, 1)
        chunks += b.attenuations(120.0, 293)
        assert chunks == whole
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
