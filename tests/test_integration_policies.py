"""Integration tests: the paper's qualitative claims hold end-to-end.

These run full multi-policy simulations on matched weather and assert the
*direction* of each headline result — who ages slower, who keeps batteries
out of deep discharge, who pays which performance penalty — without
pinning environment-sensitive absolute numbers.
"""

import pytest

from repro.campaign import run_campaign
from repro.core.policies.factory import make_policy
from repro.experiments.common import OLD_BATTERY_FADE, policy_specs, sweep_scenario
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass


def two_old_days(day_class):
    """All four schemes over two days of one weather class with old
    batteries, as one campaign: the cells fig13 and fig20 run, so the
    session cache serves them when those figures ran first."""
    scenario = sweep_scenario(initial_fade=OLD_BATTERY_FADE)
    trace = scenario.trace_generator().days([day_class] * 2)
    return run_campaign(policy_specs(scenario, trace)).results()


@pytest.fixture(scope="module")
def stressed_results():
    """Two cloudy days with old batteries — the paper's worst-case
    comparison cell."""
    return two_old_days(DayClass.CLOUDY)


@pytest.fixture(scope="module")
def rainy_results():
    return two_old_days(DayClass.RAINY)


class TestAgingClaims:
    def test_baat_slows_worst_node_aging(self, stressed_results):
        """Fig. 13/14 headline: BAAT's worst battery ages markedly slower
        than e-Buff's (paper: -38 % aging speed, +69 % lifetime)."""
        ebuff = stressed_results["e-buff"].worst_damage_per_day()
        baat = stressed_results["baat"].worst_damage_per_day()
        assert baat < 0.85 * ebuff

    def test_all_baat_variants_beat_ebuff_on_mean_aging(self, stressed_results):
        ebuff = stressed_results["e-buff"].mean_damage_per_day()
        for name in ("baat-s", "baat"):
            assert stressed_results[name].mean_damage_per_day() <= ebuff * 1.001

    def test_baat_reduces_worst_node_ah_throughput(self, stressed_results):
        """Paper: e-Buff cycles 1.3-2.1x the Ah of BAAT on the worst node."""
        ebuff = stressed_results["e-buff"].worst_node_by_throughput_ah()
        baat = stressed_results["baat"].worst_node_by_throughput_ah()
        assert ebuff.discharged_ah > baat.discharged_ah

    def test_slowdown_beats_hiding_on_aging(self, stressed_results):
        """Paper section VI-C: aging slowdown has a larger lifetime impact
        than aging balancing."""
        assert (
            stressed_results["baat-s"].worst_damage_per_day()
            < stressed_results["baat-h"].worst_damage_per_day()
        )


class TestAvailabilityClaims:
    def test_baat_reduces_low_soc_exposure(self, stressed_results):
        """Fig. 18: BAAT cuts the worst node's low-SoC residence."""
        assert (
            stressed_results["baat"].worst_low_soc_fraction()
            < stressed_results["e-buff"].worst_low_soc_fraction()
        )

    def test_baat_reduces_downtime_under_stress(self, rainy_results):
        assert (
            rainy_results["baat"].total_downtime_s
            < rainy_results["e-buff"].total_downtime_s
        )

    def test_ebuff_suffers_cutoff_downtime_on_rainy_days(self, rainy_results):
        """Fig. 20 narrative: when solar is inadequate e-Buff servers hit
        battery cut-off and go down."""
        assert rainy_results["e-buff"].total_downtime_s > 3600.0


class TestPerformanceClaims:
    def test_baat_wins_throughput_when_heavily_stressed(self, rainy_results):
        """Fig. 20: coordinated BAAT out-computes aggressive e-Buff under
        heavy supply stress (paper: +28 % worst case)."""
        assert (
            rainy_results["baat"].throughput
            > rainy_results["e-buff"].throughput * 0.98
        )

    def test_baat_s_pays_a_dvfs_penalty(self, stressed_results):
        """Paper: BAAT-s's power capping degrades throughput."""
        assert (
            stressed_results["baat-s"].throughput
            < stressed_results["e-buff"].throughput
        )
        assert stressed_results["baat-s"].dvfs_transitions > 0

    def test_baat_h_migrates_and_pays_overhead(self, stressed_results):
        """Paper: BAAT-h's crude migrations are frequent and costly."""
        assert stressed_results["baat-h"].migrations > 0
        assert (
            stressed_results["baat-h"].throughput
            < stressed_results["e-buff"].throughput
        )

    def test_ebuff_never_acts(self, stressed_results):
        r = stressed_results["e-buff"]
        assert r.migrations == 0
        assert r.dvfs_transitions == 0


class TestSunnyDayEquivalence:
    def test_policies_converge_when_solar_is_abundant(self):
        """With ample sun, batteries barely cycle and all schemes look
        alike — the Fig. 14 high-sunshine limit."""
        scenario = Scenario(dt_s=120.0)
        trace = scenario.trace_generator().day(DayClass.SUNNY)
        results = {
            name: Simulation(scenario, make_policy(name), trace).run()
            for name in ("e-buff", "baat")
        }
        ebuff = results["e-buff"]
        baat = results["baat"]
        assert baat.throughput == pytest.approx(ebuff.throughput, rel=0.05)
        assert baat.worst_damage_per_day() == pytest.approx(
            ebuff.worst_damage_per_day(), rel=0.25
        )
