"""Fig. 19 — distribution of battery SoC under the four schemes.

Paper result over six months of operation: e-Buff concentrates battery
time in the low-SoC bins, while BAAT "shift[s] the most likely SoC region
towards 90 %-100 %", increasing resiliency and emergency-handling
capability. The paper bins SoC into seven 15-%-wide ranges.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.lifetime import season_day_classes
from repro.campaign import run_campaign
from repro.experiments.base import ExperimentResult
from repro.experiments.common import POLICIES, policy_specs, sweep_scenario
from repro.rng import DEFAULT_SEED
from repro.sim.recorder import SOC_BIN_LABELS

SUNSHINE = 0.5


def run(quick: bool = True, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Mixed-weather season; tabulate time share per SoC bin per scheme."""
    n_days = 5 if quick else 12
    scenario = sweep_scenario(seed=seed)
    day_classes = season_day_classes(SUNSHINE, n_days, scenario.seed)
    trace = scenario.trace_generator().days(day_classes)
    results = run_campaign(policy_specs(scenario, trace)).results()

    rows: List[Sequence[object]] = []
    modes = {}
    for name in POLICIES:
        result = results[name]
        merged = {label: 0.0 for label in SOC_BIN_LABELS}
        for node in result.nodes:
            for label in SOC_BIN_LABELS:
                merged[label] += node.soc_distribution[label] / len(result.nodes)
        rows.append((name,) + tuple(merged[label] for label in SOC_BIN_LABELS))
        modes[name] = max(merged, key=merged.get)

    top_bin = SOC_BIN_LABELS[-1]  # SoC7: 90-100 %
    ebuff_top = rows[0][1 + SOC_BIN_LABELS.index(top_bin)]
    baat_top = rows[POLICIES.index("baat")][1 + SOC_BIN_LABELS.index(top_bin)]
    return ExperimentResult(
        exp_id="fig19",
        title="SoC distribution per scheme (fraction of time per 15 % bin)",
        headers=("scheme",) + tuple(SOC_BIN_LABELS),
        rows=rows,
        headline={
            "time at 90-100 % SoC, BAAT vs e-Buff (pp)": (baat_top - ebuff_top)
            * 100.0,
        },
        notes=(
            f"modes: { {k: v for k, v in modes.items()} }; paper: e-Buff mass "
            "sits low, BAAT shifts the mode toward the 90-100 % bin"
        ),
    )
