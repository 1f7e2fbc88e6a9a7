"""Shape and golden tests for the simulation-backed experiments.

Runs the cheaper quick-mode experiments end-to-end (default seed) and
asserts the directional claims of the corresponding paper figures. Each
figure's every row number and headline is also pinned to
``tests/data/figure_golden.json`` at a relative tolerance of 1e-9:
fig13, fig16 and fig21 on trimmed arguments (:data:`RUNS`), the others
as ``repro run`` prints them. fig14 and fig17 are pinned by
``tests/test_sweep_golden.py``.
"""

import json
import math
from pathlib import Path

import pytest

from repro.campaign import RunSpec
from repro.campaign import cache as cache_module
from repro.experiments import (
    fig12_profiling,
    fig13_aging_comparison,
    fig16_cost,
    fig18_low_soc,
    fig19_soc_distribution,
    fig20_throughput,
    fig21_dod_performance,
    fig22_planned_aging,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "figure_golden.json"

#: Relative tolerance of a golden float.
REL_TOL = 1e-9


def _fig13_trimmed():
    """fig13 on the three cells its headline reads (no sunny/old)."""
    cells = tuple(c for c in fig13_aging_comparison.CELLS if c[0] != "sunny/old")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fig13_aging_comparison, "CELLS", cells)
        return fig13_aging_comparison.run(quick=True)


#: How each pinned figure runs (quick mode, default seed).
RUNS = {
    "fig12": lambda: fig12_profiling.run(quick=True),
    "fig13": _fig13_trimmed,
    "fig16": lambda: fig16_cost.run(quick=True, thresholds=(0.40,)),
    "fig18": lambda: fig18_low_soc.run(quick=True),
    "fig19": lambda: fig19_soc_distribution.run(quick=True),
    "fig20": lambda: fig20_throughput.run(quick=True),
    "fig21": lambda: fig21_dod_performance.run(quick=True, dods=(0.4, 0.8)),
    "fig22": lambda: fig22_planned_aging.run(quick=True),
}


def figure_digest(result):
    """Every row value and headline of a figure, JSON-ready."""
    return {
        "rows": [list(row) for row in result.rows],
        "headline": dict(result.headline),
    }


def _same(got, want) -> bool:
    if isinstance(want, float):
        if math.isnan(want):
            return isinstance(got, float) and math.isnan(got)
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
    return type(got) is type(want) and got == want


def assert_matches_golden(exp_id, result):
    golden = json.loads(GOLDEN_PATH.read_text())[exp_id]
    digest = json.loads(json.dumps(figure_digest(result)))
    assert len(digest["rows"]) == len(golden["rows"])
    for k, (got, want) in enumerate(zip(digest["rows"], golden["rows"])):
        assert len(got) == len(want), (exp_id, k)
        for j, (g, w) in enumerate(zip(got, want)):
            assert _same(g, w), (exp_id, k, j, g, w)
    assert sorted(digest["headline"]) == sorted(golden["headline"])
    for key, want in golden["headline"].items():
        assert _same(digest["headline"][key], want), (exp_id, key)


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return RUNS["fig12"]()

    def test_matches_golden(self, result):
        assert_matches_golden("fig12", result)

    def test_three_weather_rows(self, result):
        assert [row[0] for row in result.rows] == ["sunny", "cloudy", "rainy"]

    def test_solar_budgets_ordered(self, result):
        kwh = [row[1] for row in result.rows]
        assert kwh[0] > kwh[1] > kwh[2]

    def test_sunny_day_barely_cycles_battery(self, result):
        """The paper's core Fig.-12 observation: sunny days yield far
        less Ah throughput and no deep discharge."""
        by_day = {row[0]: row for row in result.rows}
        assert by_day["sunny"][2] < by_day["cloudy"][2]
        assert by_day["sunny"][6] == 0.0  # DDT
        assert by_day["rainy"][6] > 0.2

    def test_rainy_day_has_low_charge_factor(self, result):
        by_day = {row[0]: row for row in result.rows}
        assert by_day["rainy"][4] < by_day["sunny"][4]

    def test_battery_usage_varies_across_nodes(self, result):
        spreads = [row[7] for row in result.rows]
        assert max(spreads) > 0.1


class TestFig18:
    @pytest.fixture(scope="class")
    def result(self):
        return RUNS["fig18"]()

    def test_matches_golden(self, result):
        assert_matches_golden("fig18", result)

    def test_baat_improves_availability(self, result):
        assert result.headline["BAAT availability improvement %"] > 0.0

    def test_baat_has_least_low_soc_exposure(self, result):
        by_scheme = {row[0]: row for row in result.rows}
        assert by_scheme["baat"][1] <= by_scheme["e-buff"][1]


class TestFig19:
    @pytest.fixture(scope="class")
    def result(self):
        return RUNS["fig19"]()

    def test_matches_golden(self, result):
        assert_matches_golden("fig19", result)

    def test_rows_are_distributions(self, result):
        for row in result.rows:
            assert sum(row[1:]) == pytest.approx(1.0, abs=1e-6)

    def test_baat_evacuates_the_deepest_bin(self, result):
        """BAAT keeps batteries out of the 0-15 % SoC bin e-Buff lives in."""
        by_scheme = {row[0]: row for row in result.rows}
        assert by_scheme["baat"][1] < by_scheme["e-buff"][1]

    def test_baat_holds_more_high_soc_time(self, result):
        by_scheme = {row[0]: row for row in result.rows}
        baat_high = sum(by_scheme["baat"][5:])
        ebuff_high = sum(by_scheme["e-buff"][5:])
        assert baat_high > ebuff_high


class TestFig20:
    @pytest.fixture(scope="class")
    def result(self):
        return RUNS["fig20"]()

    def test_matches_golden(self, result):
        assert_matches_golden("fig20", result)

    def test_baat_wins_the_worst_case(self, result):
        assert result.headline["BAAT best gain over e-Buff %"] > 0.0

    def test_baat_s_and_h_pay_their_penalties(self, result):
        """BAAT-s pays DVFS, BAAT-h pays migration churn (Fig. 20).

        The penalties are asserted on the cloudy/old cell: there e-Buff's
        cut-off downtime stays small, so the DVFS / migration costs are
        the dominant difference. On rainy/old e-Buff is crippled by
        downtime, which can swamp the single-knob penalties entirely.
        """
        cloudy = {row[1]: row for row in result.rows if row[0] == "cloudy/old"}
        assert cloudy["baat-s"][3] < 0.0
        assert cloudy["baat-h"][3] < 0.0
        assert cloudy["baat-s"][6] > 0  # dvfs count
        assert cloudy["baat-h"][5] > 0  # migration count
        # Either knob alone also trails the coordinated scheme.
        rainy = {row[1]: row for row in result.rows if row[0] == "rainy/old"}
        assert rainy["baat-s"][2] < rainy["baat"][2]
        assert rainy["baat-h"][2] < rainy["baat"][2]

    def test_baat_cuts_downtime(self, result):
        rainy = {row[1]: row for row in result.rows if row[0] == "rainy/old"}
        assert rainy["baat"][4] < rainy["e-buff"][4]


class TestFig22:
    @pytest.fixture(scope="class")
    def result(self):
        return RUNS["fig22"]()

    def test_matches_golden(self, result):
        assert_matches_golden("fig22", result)

    def test_dod_goal_shrinks_with_horizon(self, result):
        goals = [row[1] for row in result.rows]
        assert goals == sorted(goals, reverse=True)

    def test_short_horizon_spends_batteries_faster(self, result):
        fades = [row[4] for row in result.rows]
        assert fades[0] > fades[-1]

    def test_aggressive_plan_buys_productivity(self, result):
        gains = [row[3] for row in result.rows]
        assert gains[0] > gains[-1]


@pytest.mark.parametrize("exp_id", ["fig13", "fig21"])
def test_trimmed_figure_matches_golden(exp_id):
    assert_matches_golden(exp_id, RUNS[exp_id]())


def test_fig16_matches_golden_then_replays_from_cache(tmp_path, monkeypatch):
    """fig16's cells (named and ``functools.partial`` policies) are
    cached: a second run on the same cache executes none of them."""
    monkeypatch.setattr(cache_module, "_override_enabled", True)
    monkeypatch.setattr(cache_module, "_override_dir", tmp_path)
    first = RUNS["fig16"]()
    assert_matches_golden("fig16", first)
    executed = []
    execute = RunSpec.execute
    monkeypatch.setattr(
        RunSpec, "execute", lambda spec: executed.append(spec.label) or execute(spec)
    )
    second = RUNS["fig16"]()
    assert executed == []
    assert second.to_text() == first.to_text()
