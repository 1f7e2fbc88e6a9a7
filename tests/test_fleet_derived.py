"""`FleetState.derived()`: the lazy OCV endpoint and read-only sharing.

``derived()`` is memoized per battery-state generation and shared by the
restart scan, every power kernel and the control plane. Its ``"ocv_hi"``
entry is made by its first reader, so a step on which every battery
rests never computes it; a batch cell's view slices it lazily too.
Every consumer must treat the memoized arrays as read-only: one that
wrote into them would change what every later reader of the step sees.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.battery.voltage import OCV_FADE_COEFF, OCV_FADE_EXPONENT
from repro.core.policies.factory import make_policy
from repro.sim.engine import Simulation
from repro.sim.fleet import FleetCell, FleetPowerPath, FleetState
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass


def eager_ocv_hi(fleet: FleetState, fade: np.ndarray) -> np.ndarray:
    """The OCV endpoint as the voltage model writes it, pow by pow."""
    fade_pow = np.array([f ** OCV_FADE_EXPONENT for f in fade.tolist()])
    full = fleet.ocv_full * (1.0 - OCV_FADE_COEFF * fade_pow)
    return np.maximum(full, fleet.ocv_empty)


class TestLazyOcvEndpoint:
    def test_unread_after_a_rest_only_step_then_exact(self):
        # A utility budget that covers every deficit and no solar to
        # charge with: every battery rests, and no node is down.
        cluster = Scenario(n_nodes=6, initial_fade=0.03).build_cluster()
        path = FleetPowerPath(cluster, utility_budget_w=1e9)
        fleet = path.fleet
        der = fleet.derived(60.0)
        flows = path.step(0.0, 60.0, 0.0, np.random.default_rng(3))
        assert flows.battery_to_load_w == 0.0 and flows.solar_to_battery_w == 0.0
        assert "ocv_hi" not in der
        got = der["ocv_hi"]
        assert "ocv_hi" in der and der["ocv_hi"] is got
        assert got.tobytes() == eager_ocv_hi(fleet, der["fade"]).tobytes()
        assert (got > fleet.ocv_empty).all()  # the fade term is live
        # And through the voltage helper, the scalar model's OCV at full
        # charge, battery by battery.
        ocv = fleet.ocv(np.ones(fleet.n), der).tolist()
        assert ocv == [
            nd.battery.voltage_model.ocv(1.0, float(f))
            for nd, f in zip(cluster.nodes, der["fade"])
        ]

    def test_memoized_within_a_generation(self):
        fleet = FleetState(Scenario(n_nodes=3, initial_fade=0.03).build_cluster())
        der = fleet.derived(60.0)
        assert fleet.derived(60.0) is der
        first = der["ocv_hi"]
        assert fleet.derived_now()["ocv_hi"] is first
        with pytest.raises(KeyError):
            der["no such entry"]

    def test_cell_view_slices_the_batch_value(self):
        scenario = Scenario(n_nodes=3, stepper="fleet", initial_fade=0.03)
        trace = scenario.trace_generator().days([DayClass.CLOUDY])
        sim = Simulation.batch(
            [
                (scenario, make_policy("e-buff"), trace),
                (scenario.with_server_to_battery_ratio(6.0), make_policy("e-buff"), trace),
            ]
        )
        fleet = sim._fleet
        views = [FleetCell(fleet, k).derived_now() for k in range(fleet.n_cells)]
        assert not any("ocv_hi" in view for view in views)
        assert "ocv_hi" not in fleet.derived_now()
        for (lo, hi), view in zip(fleet.cells, views):
            cell_value = view["ocv_hi"]
            whole = fleet.derived_now()["ocv_hi"]
            assert cell_value.tobytes() == whole[lo:hi].tobytes()
            assert np.shares_memory(cell_value, whole)
        assert whole.tobytes() == eager_ocv_hi(fleet, fleet.derived_now()["fade"]).tobytes()


@pytest.fixture
def frozen_derived(monkeypatch):
    """Mark every array derived() hands out (the lazy OCV endpoint too)
    read-only, so a consumer that writes into one raises."""
    derived, make_ocv_hi = FleetState.derived, FleetState._ocv_hi

    def freeze(value: np.ndarray) -> np.ndarray:
        value.flags.writeable = False
        return value

    def frozen(self, dt):
        out = derived(self, dt)
        for value in out.values():
            freeze(value)
        return out

    monkeypatch.setattr(FleetState, "derived", frozen)
    monkeypatch.setattr(
        FleetState, "_ocv_hi", lambda self, fade: freeze(make_ocv_hi(self, fade))
    )


@pytest.mark.usefixtures("frozen_derived")
class TestNoConsumerMutatesDerived:
    # Rainy, pre-aged BAAT fleets: discharge with cut-offs and Peukert
    # scaling, charge walks, restarts, and BAAT's array control pass,
    # which read the step's derived arrays through every kernel.
    def test_single_fleet(self):
        scenario = Scenario(n_nodes=6, stepper="fleet", initial_fade=0.1)
        trace = scenario.trace_generator().days([DayClass.RAINY, DayClass.SUNNY])
        result = Simulation(scenario, make_policy("baat"), trace).run()
        assert all(n.discharged_ah > 0.0 and n.charged_ah > 0.0 for n in result.nodes)

    def test_batch(self):
        scenario = Scenario(n_nodes=4, stepper="fleet", initial_fade=0.1)
        trace = scenario.trace_generator().days([DayClass.RAINY, DayClass.CLOUDY])
        sim = Simulation.batch(
            [(scenario, make_policy(name), trace) for name in ("baat", "baat-s", "e-buff")]
        )
        assert all(not isinstance(r, Exception) for r in sim.run_cells())
