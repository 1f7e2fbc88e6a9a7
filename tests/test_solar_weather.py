"""Unit tests for the weather model and cloud process."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rng import spawn
from repro.solar.weather import (
    DAY_CLEARNESS,
    CloudProcess,
    DayClass,
    WeatherModel,
    day_class_probabilities,
)


class TestDayClassProbabilities:
    def test_sums_to_one(self):
        for f in (0.0, 0.3, 0.5, 0.8, 1.0):
            probs = day_class_probabilities(f)
            assert sum(probs.values()) == pytest.approx(1.0)

    def test_sunny_monotone_in_sunshine(self):
        values = [day_class_probabilities(f / 10.0)[DayClass.SUNNY] for f in range(11)]
        assert values == sorted(values)

    def test_extremes(self):
        assert day_class_probabilities(1.0)[DayClass.SUNNY] == pytest.approx(1.0)
        assert day_class_probabilities(0.0)[DayClass.SUNNY] == 0.0

    def test_dark_locations_are_rain_heavy(self):
        probs = day_class_probabilities(0.1)
        assert probs[DayClass.RAINY] > probs[DayClass.CLOUDY]

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            day_class_probabilities(1.5)


class TestCloudProcess:
    @pytest.mark.parametrize("day_class", list(DayClass))
    def test_attenuation_bounded(self, day_class):
        clouds = CloudProcess(day_class, spawn(1, "t"))
        for value in clouds.attenuations(60.0, 500):
            assert 0.0 <= value <= 1.05

    @pytest.mark.parametrize("day_class", list(DayClass))
    def test_mean_attenuation_matches_clearness(self, day_class):
        clouds = CloudProcess(day_class, spawn(2, "t"))
        values = clouds.attenuations(60.0, 20_000)
        assert np.mean(values) == pytest.approx(DAY_CLEARNESS[day_class], rel=0.12)

    def test_sunny_steadier_than_cloudy(self):
        sunny = CloudProcess(DayClass.SUNNY, spawn(3, "s"))
        cloudy = CloudProcess(DayClass.CLOUDY, spawn(3, "c"))
        s = np.std(sunny.attenuations(60.0, 5000))
        c = np.std(cloudy.attenuations(60.0, 5000))
        assert c > s


class TestWeatherModel:
    def test_sample_count(self):
        days = WeatherModel(0.5).sample_days(30, spawn(4, "w"))
        assert len(days) == 30
        assert all(isinstance(d, DayClass) for d in days)

    def test_sunnier_locations_sample_more_sunny_days(self):
        rng_a = spawn(5, "a")
        rng_b = spawn(5, "a")
        dark = WeatherModel(0.2).sample_days(200, rng_a)
        bright = WeatherModel(0.9).sample_days(200, rng_b)
        assert bright.count(DayClass.SUNNY) > dark.count(DayClass.SUNNY)

    def test_deterministic_given_rng(self):
        a = WeatherModel(0.5).sample_days(50, spawn(6, "w"))
        b = WeatherModel(0.5).sample_days(50, spawn(6, "w"))
        assert a == b
