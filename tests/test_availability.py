"""Unit tests for availability statistics (Figs. 18-19 plumbing)."""

import pytest

from repro.availability.soc_stats import availability_improvement, low_soc_stats
from repro.core.policies.factory import make_policy
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass


@pytest.fixture(scope="module")
def stressed_results():
    from repro.datacenter.workloads import PAPER_WORKLOADS

    workloads = tuple(
        PAPER_WORKLOADS[name]
        for name in ("web_serving", "data_analytics", "word_count")
    )
    scenario = Scenario(
        n_nodes=3,
        dt_s=300.0,
        manufacturing_variation=False,
        initial_fade=0.08,
        workloads=workloads,
    )
    trace = scenario.trace_generator().day(DayClass.RAINY)
    return {
        name: Simulation(scenario, make_policy(name), trace).run()
        for name in ("e-buff", "baat")
    }


class TestLowSocStats:
    def test_fields(self, stressed_results):
        stats = low_soc_stats(stressed_results["e-buff"])
        assert stats.policy_name == "e-buff"
        assert 0.0 <= stats.mean_low_soc_fraction <= stats.worst_low_soc_fraction <= 1.0

    def test_baat_reduces_low_soc_exposure(self, stressed_results):
        ebuff = low_soc_stats(stressed_results["e-buff"])
        baat = low_soc_stats(stressed_results["baat"])
        assert baat.worst_low_soc_fraction <= ebuff.worst_low_soc_fraction

    def test_improvement_is_positive(self, stressed_results):
        gain = availability_improvement(
            stressed_results["e-buff"], stressed_results["baat"]
        )
        assert gain >= 0.0
