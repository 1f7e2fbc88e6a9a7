"""Tests for the foundational modules: units, rng, errors."""

import pytest

from repro import errors, units
from repro.rng import DEFAULT_SEED, make_rng, spawn, stream_seed


class TestUnits:
    def test_time_conversions(self):
        assert units.hours(2) == 7200.0
        assert units.minutes(3) == 180.0
        assert units.days(1) == 86400.0
        assert units.months(1) == pytest.approx(30.4375 * 86400.0)

    def test_energy_conversions(self):
        assert units.kwh_to_wh(2.5) == 2500.0

    def test_clamp(self):
        assert units.clamp(5.0, 0.0, 1.0) == 1.0
        assert units.clamp(-5.0, 0.0, 1.0) == 0.0
        assert units.clamp(0.5, 0.0, 1.0) == 0.5

    def test_clamp_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            units.clamp(0.5, 1.0, 0.0)


class TestRng:
    def test_same_seed_same_stream(self):
        a = spawn(1, "weather")
        b = spawn(1, "weather")
        assert a.random() == b.random()

    def test_different_names_independent(self):
        a = spawn(1, "weather")
        b = spawn(1, "workload")
        assert a.random() != b.random()

    def test_different_seeds_differ(self):
        assert spawn(1, "x").random() != spawn(2, "x").random()

    def test_stream_seed_stable(self):
        assert stream_seed(7, "battery/0") == stream_seed(7, "battery/0")
        assert stream_seed(7, "battery/0") != stream_seed(7, "battery/1")

    def test_stream_seed_fits_numpy(self):
        seed = stream_seed(DEFAULT_SEED, "anything")
        assert 0 <= seed < 2**63
        make_rng(seed)  # must not raise


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigurationError,
            errors.BatteryError,
            errors.BatteryCutoffError,
            errors.SchedulingError,
            errors.MigrationError,
            errors.SimulationError,
            errors.TraceError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_migration_is_a_scheduling_error(self):
        assert issubclass(errors.MigrationError, errors.SchedulingError)

    def test_cutoff_is_a_battery_error(self):
        assert issubclass(errors.BatteryCutoffError, errors.BatteryError)

    def test_single_catch_covers_everything(self):
        try:
            raise errors.MigrationError("vm stuck")
        except errors.ReproError as caught:
            assert "vm stuck" in str(caught)
