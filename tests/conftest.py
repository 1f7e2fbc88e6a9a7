"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.battery.params import BatteryParams
from repro.battery.unit import BatteryUnit
from repro.campaign import configure_cache, reset_cache_config
from repro.datacenter.server import Server, ServerParams
from repro.datacenter.vm import VM
from repro.datacenter.workloads import PAPER_WORKLOADS
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass


@pytest.fixture(autouse=True, scope="session")
def _hermetic_campaign_cache(tmp_path_factory):
    """Point the campaign result cache at a per-session temp directory.

    Keeps the suite from reading or writing the user's real cache while
    still exercising the disk-memoization path end to end.
    """
    configure_cache(directory=tmp_path_factory.mktemp("campaign-cache"))
    yield
    reset_cache_config()


@pytest.fixture
def params() -> BatteryParams:
    """The paper's 12 V / 35 Ah block."""
    return BatteryParams()


@pytest.fixture
def battery(params) -> BatteryUnit:
    """A fresh, fully charged battery."""
    return BatteryUnit(params=params, name="test-battery")


@pytest.fixture
def server() -> Server:
    """A default server."""
    return Server(params=ServerParams(), name="test-server")


@pytest.fixture
def vm() -> VM:
    """A VM running the web-serving profile."""
    return VM(name="test-vm", workload=PAPER_WORKLOADS["web_serving"])


@pytest.fixture
def tiny_scenario() -> Scenario:
    """A small, fast scenario: 3 nodes hosting 6 light-to-medium VMs,
    coarse step, no manufacturing variation."""
    workloads = tuple(
        PAPER_WORKLOADS[name]
        for name in (
            "web_serving",
            "data_analytics",
            "word_count",
            "nutch_indexing",
        )
    )
    return Scenario(
        n_nodes=3, dt_s=300.0, manufacturing_variation=False, workloads=workloads
    )


@pytest.fixture
def one_sunny_day(tiny_scenario):
    """A single sunny-day trace matching the tiny scenario."""
    return tiny_scenario.trace_generator().day(DayClass.SUNNY)


@pytest.fixture
def one_cloudy_day(tiny_scenario):
    """A single cloudy-day trace matching the tiny scenario."""
    return tiny_scenario.trace_generator().day(DayClass.CLOUDY)


@pytest.fixture
def control_pass():
    """``control_pass(policy, t, solar_w=0.0)``: one control pass of a
    bound policy on a fresh capture of its cluster, as the reference
    stepper runs it. A test sets each battery's SoC and last current on
    the objects first; the pass reads its draw from them."""
    from repro.sim.fleet import FleetState

    def run(policy, t: float, solar_w: float = 0.0) -> bool:
        fleet = FleetState(policy.cluster)
        return policy.control_fleet(t, 60.0, fleet, solar_w=solar_w)

    return run
