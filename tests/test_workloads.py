"""Unit tests for workload profiles."""

import numpy as np
import pytest

from repro.datacenter.workloads import (
    PAPER_WORKLOADS,
    WorkloadProfile,
    standard_mix,
)
from repro.errors import ConfigurationError
from repro.rng import spawn
from repro.units import hours


class TestCatalogue:
    def test_six_paper_applications(self):
        assert set(PAPER_WORKLOADS) == {
            "nutch_indexing",
            "kmeans_clustering",
            "word_count",
            "software_testing",
            "web_serving",
            "data_analytics",
        }

    def test_lookup(self):
        """Each catalogue key names its own profile."""
        assert all(PAPER_WORKLOADS[name].name == name for name in PAPER_WORKLOADS)

    def test_standard_mix_is_stable(self):
        assert [w.name for w in standard_mix()] == sorted(PAPER_WORKLOADS)

    def test_profiles_cover_table3_power_spread(self):
        """The mix must contain both 'Large' and 'Small' power classes
        so Table-3 classification is exercised."""
        utils = [w.mean_util for w in PAPER_WORKLOADS.values()]
        assert min(utils) < 0.45
        assert max(utils) > 0.6


class TestUtilization:
    def test_bounded(self):
        rng = spawn(1, "w")
        for profile in PAPER_WORKLOADS.values():
            for h in range(0, 48):
                u = profile.utilization_at(hours(h / 2.0), rng)
                assert 0.0 <= u <= 1.0

    def test_deterministic_without_rng(self):
        p = PAPER_WORKLOADS["web_serving"]
        assert p.utilization_at(hours(3)) == p.utilization_at(hours(3))

    def test_duty_cycle_produces_idle_gaps(self):
        batch = WorkloadProfile(
            name="batch", mean_util=0.5, burst_util=0.2, period_s=hours(1),
            burstiness=0.0, duty_cycle=0.5,
        )
        assert batch.utilization_at(hours(0.75)) == 0.0
        assert batch.utilization_at(hours(0.25)) > 0.0

    def test_mean_tracks_parameter(self):
        p = PAPER_WORKLOADS["data_analytics"]
        values = [p.utilization_at(i * 300.0) for i in range(288)]
        assert np.mean(values) == pytest.approx(
            p.mean_util + 0.5 * p.burst_util, abs=0.08
        )


class TestDemandEstimates:
    def test_mean_power_scales_with_envelope(self):
        p = PAPER_WORKLOADS["software_testing"]
        assert p.mean_power_w(60.0, 150.0) == pytest.approx(
            (p.mean_util + 0.5 * p.burst_util) * p.duty_cycle * 90.0
        )

    def test_energy_is_power_times_day(self):
        p = PAPER_WORKLOADS["web_serving"]
        assert p.energy_per_day_wh(60.0, 150.0) == pytest.approx(
            p.mean_power_w(60.0, 150.0) * 24.0
        )


class TestValidation:
    def test_rejects_util_above_one(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile("x", mean_util=0.9, burst_util=0.2, period_s=60.0, burstiness=0.0)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile("x", mean_util=0.5, burst_util=0.1, period_s=0.0, burstiness=0.0)

    def test_rejects_bad_duty_cycle(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(
                "x", mean_util=0.5, burst_util=0.1, period_s=60.0, burstiness=0.0,
                duty_cycle=0.0,
            )
