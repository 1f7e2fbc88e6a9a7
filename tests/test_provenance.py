"""Tests for causal provenance (`repro.obs.provenance`).

The acceptance bar: a control action's causal chain reconstructs back to
its triggering SoC crossing / alert, and the chain is *identical*
whether the :class:`ProvenanceIndex` consumed the events live on the
bus or replayed them from the JSONL trace. Plus: `validate_trace`
catches schema drift, clock regressions, and unmatched spans; and every
registered event kind round-trips ``to_dict``/``event_from_dict``
losslessly (property test).
"""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import RunSpec, run_campaign
from repro.core.policies.factory import make_policy
from repro.obs import (
    ALERTS,
    BUS,
    REGISTRY,
    disable_observability,
    enable_observability,
)
from repro.obs.events import EVENT_TYPES, event_from_dict
from repro.obs.provenance import (
    DEFAULT_EXPLAIN_KINDS,
    ProvenanceIndex,
    validate_trace,
)
from repro.obs.spans import SPANS
from repro.sim.engine import Simulation
from repro.solar.weather import DayClass


@pytest.fixture(autouse=True)
def _clean_obs_state():
    BUS.clear_sinks()
    REGISTRY.enabled = False
    REGISTRY.reset()
    ALERTS.enabled = False
    ALERTS.reset()
    SPANS.reset()
    yield
    disable_observability()
    BUS.clear_sinks()
    REGISTRY.enabled = False
    REGISTRY.reset()
    ALERTS.reset()
    SPANS.reset()


@pytest.fixture
def stressed_trace(tiny_scenario, tmp_path):
    """A traced rainy high-fade BAAT day (plenty of Fig.-9 reactions),
    indexed both live and from the JSONL file."""
    scenario = replace(tiny_scenario, initial_fade=0.15)
    trace = scenario.trace_generator().day(DayClass.RAINY)
    path = str(tmp_path / "stress.jsonl")
    live = ProvenanceIndex()
    enable_observability(path)
    BUS.add_sink(live)
    try:
        Simulation(scenario, make_policy("baat"), trace).run()
    finally:
        BUS.remove_sink(live)
        disable_observability()
    return live, path


def _chain_shape(index: ProvenanceIndex, eid: int):
    return [(e.kind, e.eid, e.cause_id, e.span_id) for e in index.chain(eid)]


class TestChainIdentityLiveVsReplay:
    def test_live_and_replayed_chains_are_identical(self, stressed_trace):
        live, path = stressed_trace
        replayed = ProvenanceIndex.from_trace(path)
        assert live.actions == replayed.actions
        assert live.actions, "a stressed day must produce control actions"
        for eid in live.actions:
            assert _chain_shape(live, eid) == _chain_shape(replayed, eid)

    def test_some_chain_reaches_the_triggering_root(self, stressed_trace):
        live, _ = stressed_trace
        rooted = [
            chain
            for chain in live.action_chains()
            if any(e.kind in ("soc_crossing", "alert") for e in chain[1:])
        ]
        assert rooted, (
            "at least one migration/DVFS chain must walk back to its "
            "triggering SoC crossing or alert"
        )

    def test_span_stats_match_between_views(self, stressed_trace):
        live, path = stressed_trace
        replayed = ProvenanceIndex.from_trace(path)
        assert live.span_stats() == replayed.span_stats()
        assert live.action_summary() == replayed.action_summary()

    def test_summary_covers_every_action(self, stressed_trace):
        live, _ = stressed_trace
        summary = live.action_summary()
        assert sum(
            count for per_kind in summary.values() for count in per_kind.values()
        ) == len(live.actions)
        for kind in summary:
            assert kind in (
                "slowdown_action", "vm_migrated", "dvfs_cap", "dvfs_uncap",
                "evacuation", "park", "wake", "consolidation", "dod_goal",
            )

    def test_chain_of_unknown_eid_is_empty(self, stressed_trace):
        live, _ = stressed_trace
        assert live.chain(10**9) == []

    def test_default_explain_kinds_filter(self, stressed_trace):
        live, _ = stressed_trace
        chains = live.action_chains()
        for chain in chains:
            assert chain[0].kind in DEFAULT_EXPLAIN_KINDS


class TestValidateTrace:
    def test_valid_trace_passes(self, stressed_trace):
        _, path = stressed_trace
        result = validate_trace(path)
        assert result.ok, [str(v) for v in result.violations]
        assert result.n_valid == result.n_lines > 0
        assert result.n_runs == 1

    def _write(self, tmp_path, lines):
        path = tmp_path / "t.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    def test_bad_json_is_a_violation(self, tmp_path):
        path = self._write(tmp_path, ['{"kind": "day_start"', "not json"])
        result = validate_trace(path)
        assert len(result.violations) == 2

    def test_unknown_kind_and_field(self, tmp_path):
        path = self._write(tmp_path, [
            '{"kind": "no_such_kind", "t": 0.0}',
            '{"kind": "day_start", "t": 0.0, "day_index": 0, "bogus": 1}',
        ])
        result = validate_trace(path)
        messages = [v.message for v in result.violations]
        assert any("unknown event kind" in m for m in messages)
        assert any("unknown field 'bogus'" in m for m in messages)

    def test_type_drift_is_a_violation(self, tmp_path):
        path = self._write(tmp_path, [
            '{"kind": "day_start", "t": "zero", "day_index": 0}',
        ])
        result = validate_trace(path)
        assert len(result.violations) == 1
        assert "has str value" in result.violations[0].message

    def test_run_clock_regression(self, tmp_path):
        path = self._write(tmp_path, [
            '{"kind": "run_start", "t": 0.0, "policy": "baat"}',
            '{"kind": "day_start", "t": 120.0, "day_index": 0}',
            '{"kind": "day_start", "t": 60.0, "day_index": 0}',
        ])
        result = validate_trace(path)
        assert len(result.violations) == 1
        assert "run clock went backwards" in result.violations[0].message

    def test_run_start_resets_the_clock(self, tmp_path):
        path = self._write(tmp_path, [
            '{"kind": "run_start", "t": 0.0, "policy": "baat"}',
            '{"kind": "day_start", "t": 86400.0, "day_index": 1}',
            '{"kind": "run_start", "t": 0.0, "policy": "e-buff"}',
            '{"kind": "day_start", "t": 0.0, "day_index": 0}',
        ])
        result = validate_trace(path)
        assert result.ok
        assert result.n_runs == 2

    def test_unmatched_span_end(self, tmp_path):
        path = self._write(tmp_path, [
            '{"kind": "span_end", "t": 5.0, "span_id": 9, "span": "parked"}',
        ])
        result = validate_trace(path)
        assert "without a matching span_start" in result.violations[0].message

    def test_duplicate_span_id(self, tmp_path):
        start = '{"kind": "span_start", "t": 0.0, "eid": 3, "span_id": 3, "span": "parked"}'
        path = self._write(tmp_path, [start, start])
        result = validate_trace(path)
        assert "opened twice" in result.violations[0].message

    def test_open_spans_reported_not_violated(self, tmp_path):
        path = self._write(tmp_path, [
            '{"kind": "span_start", "t": 0.0, "eid": 3, "span_id": 3, '
            '"span": "deep_discharge", "node": "n0"}',
        ])
        result = validate_trace(path)
        assert result.ok
        assert result.open_spans == [(3, "deep_discharge", "n0")]

    def test_max_violations_truncates(self, tmp_path):
        path = self._write(tmp_path, ["garbage"] * 50)
        result = validate_trace(path, max_violations=5)
        assert len(result.violations) == 5

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            validate_trace(str(tmp_path / "absent.jsonl"))


# ----------------------------------------------------------------------
# Property: every registered event kind round-trips losslessly
# ----------------------------------------------------------------------
def _value_strategy(default):
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(min_value=0, max_value=2**31)
    if isinstance(default, float):
        return st.floats(allow_nan=False, allow_infinity=False)
    return st.text(max_size=20)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_event_kind_round_trips_losslessly(data):
    kind = data.draw(st.sampled_from(sorted(EVENT_TYPES)))
    cls = EVENT_TYPES[kind]
    kwargs = {
        f.name: data.draw(_value_strategy(f.default), label=f.name)
        for f in fields(cls)
        if f.name != "kind"
    }
    event = cls(**kwargs)
    restored = event_from_dict(json.loads(event.to_json()))
    assert restored == event
    assert type(restored) is cls


# ----------------------------------------------------------------------
# Span context in a traced campaign
# ----------------------------------------------------------------------
class TestCampaignSpanPropagation:
    def _specs(self, tiny_scenario, one_sunny_day, inline_only=True):
        specs = [
            RunSpec(
                scenario=tiny_scenario,
                trace=one_sunny_day,
                policy_factory=lambda: make_policy("e-buff"),
                label="inline-cell",
            ),
        ]
        if not inline_only:
            specs.append(
                RunSpec(
                    scenario=tiny_scenario,
                    trace=one_sunny_day,
                    policy="baat",
                    label="picklable-cell",
                )
            )
        return specs

    def test_inline_cell_events_carry_the_cell_span(
        self, tiny_scenario, one_sunny_day, tmp_path
    ):
        path = str(tmp_path / "campaign.jsonl")
        enable_observability(path)
        try:
            run_campaign(
                self._specs(tiny_scenario, one_sunny_day),
                n_workers=1,
                cache=None,
            )
        finally:
            disable_observability()
        index = ProvenanceIndex.from_trace(path)
        cells = [
            r for r in index.spans.values() if r.name == "campaign_cell"
        ]
        assert len(cells) == 1
        cell = cells[0]
        assert cell.node == "inline-cell"
        assert cell.scope == "campaign"
        assert not cell.open, "the cell span must close when the cell ends"
        run_starts = [
            e for e in index.events.values() if e.kind == "run_start"
        ]
        assert run_starts
        assert all(e.span_id == cell.span_id for e in run_starts)
        assert validate_trace(path).ok

    def test_in_process_campaign_trace_is_coherent(
        self, tiny_scenario, one_sunny_day, tmp_path
    ):
        path = str(tmp_path / "campaign.jsonl")
        enable_observability(path)
        try:
            report = run_campaign(
                self._specs(tiny_scenario, one_sunny_day, inline_only=False),
                n_workers=2,
                cache=None,
            )
        finally:
            disable_observability()
        assert not report.failures
        result = validate_trace(path)
        assert result.ok, [str(v) for v in result.violations]
        index = ProvenanceIndex.from_trace(path)
        # Asked for two workers, the traced campaign ran both cells in
        # this process, each inside its campaign_cell span with its
        # engine events attributed.
        assert report.n_workers == 1
        (start,) = [
            e for e in index.events.values() if e.kind == "campaign_start"
        ]
        assert start.n_workers == 1
        cell_spans = {
            r.node: r
            for r in index.spans.values()
            if r.name == "campaign_cell"
        }
        assert set(cell_spans) == {"inline-cell", "picklable-cell"}
        assert all(not r.open for r in cell_spans.values())
        run_starts = [
            e for e in index.events.values() if e.kind == "run_start"
        ]
        assert len(run_starts) == 2
        assert {e.span_id for e in run_starts} == {
            r.span_id for r in cell_spans.values()
        }
        assert index.event_counts.get("cell_finish", 0) == 2
