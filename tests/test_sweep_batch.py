"""Batched sweeps: independent cells stepped as one fleet.

`Simulation.batch` concatenates cells on the node axis of one
`FleetState`; the campaign runner hands it every inline group of two or
more uncached fleet-stepper cells with one batch key. Each cell's result
must equal the same run alone on the reference stepper, bit for bit, and
a cell that fails must fail alone.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.lifetime import season_day_classes
from repro.campaign import RunSpec, run_campaign
from repro.campaign import runner as runner_module
from repro.core.policies.baat import BAATPolicy
from repro.core.policies.factory import make_policy
from repro.experiments.common import POLICIES, sweep_scenario
from repro.sim.engine import Simulation
from repro.sim.fleet import NODE_ARRAYS, FleetState
from repro.sim.results import SimResult
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass

#: Season length of the mixed batch (days of 720 steps at dt 120 s).
DAYS = 2


def run_digest(result: SimResult) -> list:
    """Every aggregate and every NodeResult field, floats by repr (so
    equal means bit-equal), plus the recorder's distributions."""
    fields = [
        (f.name, repr(getattr(result, f.name)))
        for f in dataclasses.fields(result)
        if f.name != "recorder"
    ]
    recorder = result.recorder
    histograms = [
        (name, recorder.soc_time_s[name].tobytes()) for name in recorder.node_names
    ]
    return fields + histograms + [
        ("low_soc_time_s", repr(recorder.low_soc_time_s)),
        ("total_time_s", repr(recorder.total_time_s)),
    ]


def mixed_cells():
    """All four policies over two sunshine fractions' traces, BAAT at
    both fig17 fit ratios, and two cells of other sizes (a 1-node cell
    hosting one VM, a 12-node cell with VM-less nodes), so the batch is
    ragged: (label, scenario, policy name, trace)."""
    base = sweep_scenario(stepper="fleet")
    cells = []
    for fraction in (0.3, 0.8):
        classes = season_day_classes(fraction, DAYS, base.seed)
        trace = base.trace_generator().days(classes)
        cells += [(f"{fraction}/{name}", base, name, trace) for name in POLICIES]
    trace = base.trace_generator().days(season_day_classes(0.55, DAYS, base.seed))
    for ratio in (4.3, 8.0):
        scenario = base.with_server_to_battery_ratio(ratio)
        cells.append((f"{ratio} W/Ah/baat", scenario, "baat", trace))
    one_vm = base.effective_workloads()[:1]
    cells.append(
        ("1 node/baat-s", dataclasses.replace(base, n_nodes=1, workloads=one_vm),
         "baat-s", trace)
    )
    cells.append(("12 nodes/baat", dataclasses.replace(base, n_nodes=12), "baat", trace))
    return cells


@pytest.fixture(scope="module")
def standalone():
    """Each mixed cell run alone on the reference stepper: (result,
    final RNG state) by label."""
    out = {}
    for label, scenario, name, trace in mixed_cells():
        scenario = dataclasses.replace(scenario, stepper="reference")
        sim = Simulation(scenario, make_policy(name, seed=scenario.seed), trace)
        out[label] = (sim.run(), sim._rng.bit_generator.state)
    return out


class TestBatchEqualsStandalone:
    def test_every_cell_bit_equal(self, standalone):
        cells = mixed_cells()
        sim = Simulation.batch(
            [(sc, make_policy(name, seed=sc.seed), tr) for _, sc, name, tr in cells]
        )
        assert sim._fleet.n_cells == len(cells) == 12
        results = sim.run_cells()
        assert any(r.migrations for r in results)
        assert any(r.dvfs_transitions for r in results)
        for (label, *_), result, cell in zip(cells, results, sim.cells):
            alone, rng_state = standalone[label]
            assert run_digest(result) == run_digest(alone), label
            assert result.nodes == alone.nodes, label
            assert cell.rng.bit_generator.state == rng_state, label

    def test_through_the_runner(self, standalone, monkeypatch):
        batches = []
        batched = runner_module.batched
        monkeypatch.setattr(
            runner_module,
            "batched",
            lambda specs: (batches.append(len(specs)), batched(specs))[1],
        )
        specs = [
            RunSpec(scenario=sc, trace=tr, policy=name, label=label)
            for label, sc, name, tr in mixed_cells()
        ]
        report = run_campaign(specs, n_workers=1, cache=None)
        assert batches == [len(specs)]
        for label, result in report.results().items():
            assert run_digest(result) == run_digest(standalone[label][0]), label


def test_cell_views_cover_every_node_array():
    # A FleetCell slices exactly the names in NODE_ARRAYS; every per-node
    # array of a FleetState must be listed there.
    fleet = FleetState(Scenario(n_nodes=3).build_cluster())
    per_node = {
        name
        for name, value in vars(fleet).items()
        if isinstance(value, np.ndarray)
        and value.shape[-1:] == (fleet.n,)
        and not name.startswith(("vm_", "_"))
        and name != "cell_index"
    }
    assert per_node == NODE_ARRAYS


# ----------------------------------------------------------------------
# Failures, exclusions and pools (short cells)
# ----------------------------------------------------------------------
def short_scenario(**overrides) -> Scenario:
    return Scenario(**{"dt_s": 300.0, "stepper": "fleet", **overrides})


def short_trace(scenario: Scenario, day: DayClass = DayClass.CLOUDY):
    return scenario.trace_generator().days([day, DayClass.RAINY])


class FailsOnSecondDay(BAATPolicy):
    """BAAT whose day hook raises at the second day's start."""

    def on_day_start(self, t: float) -> None:
        if t > 0.0:
            raise RuntimeError("policy failed mid-run")
        super().on_day_start(t)


def fails_on_second_day() -> BAATPolicy:
    return FailsOnSecondDay()


def short_specs():
    scenario = short_scenario()
    trace = short_trace(scenario)
    sunny = short_trace(scenario, DayClass.SUNNY)
    return [
        RunSpec(scenario=scenario, trace=trace, policy=name, label=name)
        for name in POLICIES
    ] + [RunSpec(scenario=scenario, trace=sunny, policy="baat", label="sunny/baat")]


def digests(report) -> dict:
    return {
        label: run_digest(r) for label, r in report.results(strict=False).items()
    }


@pytest.fixture
def batches_seen(monkeypatch):
    """The labels of every batch the runner steps, batch by batch."""
    seen = []
    batched = runner_module.batched
    monkeypatch.setattr(
        runner_module,
        "batched",
        lambda specs: (seen.append([s.label for s in specs]), batched(specs))[1],
    )
    return seen


class TestFailureAndExclusions:
    def test_failing_cell_fails_alone_after_its_retry(self):
        specs = short_specs()
        scenario, trace = specs[0].scenario, specs[0].trace
        bad = RunSpec(
            scenario=scenario, trace=trace,
            policy_factory=fails_on_second_day, label="bad",
        )
        alone = digests(run_campaign(specs, n_workers=1, cache=None))
        report = run_campaign([bad] + specs, n_workers=1, cache=None)
        [failure] = report.failures
        assert failure.label == "bad"
        assert failure.attempts == 2
        assert len(failure.errors) == 2
        assert all("policy failed mid-run" in e for e in failure.errors)
        assert digests(report) == alone
        for spec in specs:
            assert run_digest(report.outcome(spec.label).result) == run_digest(
                spec.execute()
            )

    def test_cell_that_fails_to_build_fails_alone(self):
        # A trace whose step differs from its scenario's (but whose length
        # matches, so the cell joins the batch) cannot build its cell; with
        # no retry, it alone fails and its batch-mates are untouched.
        specs = short_specs()
        scenario = specs[0].scenario
        half_step = Scenario(dt_s=150.0).trace_generator().days([DayClass.CLOUDY])
        assert len(half_step.power_w) == len(specs[0].trace.power_w)
        bad = RunSpec(scenario=scenario, trace=half_step, policy="baat", label="bad")
        assert bad.batch_key == specs[0].batch_key
        report = run_campaign([bad] + specs, n_workers=1, cache=None, retries=0)
        [failure] = report.failures
        assert failure.label == "bad"
        assert failure.attempts == 1
        assert "must match scenario dt" in failure.errors[0]
        for spec in specs:
            assert run_digest(report.outcome(spec.label).result) == run_digest(
                spec.execute()
            ), spec.label

    def test_unbatchable_cells_run_alone(self, monkeypatch, batches_seen):
        # Rack-pool cells batch with each other, never with per-server
        # cells: the architecture is part of the batch key.
        scenario = short_scenario()
        trace = short_trace(scenario)
        reference = short_scenario(stepper="reference")
        rack = short_scenario(architecture="rack-pool")
        lone = short_scenario(control_interval_s=600.0)
        specs = [
            RunSpec(scenario=scenario, trace=trace, policy="baat", label="a"),
            RunSpec(scenario=rack, trace=trace, policy="baat", label="rack1"),
            RunSpec(scenario=rack, trace=trace, policy="e-buff", label="rack2"),
            RunSpec(scenario=scenario, trace=trace, policy="e-buff", label="b"),
            RunSpec(scenario=lone, trace=trace, policy="baat", label="lone"),
            # A run that names the reference stepper keeps it.
            RunSpec(scenario=reference, trace=trace, policy="baat", label="ref1"),
            RunSpec(scenario=reference, trace=trace, policy="e-buff", label="ref2"),
        ]
        report = run_campaign(specs, n_workers=1, cache=None)
        assert sorted(batches_seen) == [["a", "b"], ["rack1", "rack2"]]
        assert not report.failures
        for spec in specs:
            assert run_digest(report.outcome(spec.label).result) == run_digest(
                spec.execute()
            ), spec.label

    def test_two_workers_equal_inline(self, batches_seen):
        # Pooled cells run one by one; their results equal the inline
        # batch's.
        specs = short_specs()
        inline = digests(run_campaign(specs, n_workers=1, cache=None))
        assert batches_seen == [[spec.label for spec in specs]]
        pooled = run_campaign(specs, n_workers=2, cache=None)
        assert pooled.n_executed == len(specs)
        assert len(batches_seen) == 1
        assert digests(pooled) == inline
