"""Fig. 13 — aging-metric comparison of the four schemes.

Paper setup: each scheme runs a full day on matched solar conditions, in
four cells — {sunny, cloudy} x {young, old} — always reporting the worst
battery node (most Ah throughput). Headline paper numbers:

- e-Buff's Ah throughput is ~35 % higher cloudy-vs-sunny;
- e-Buff cycles ~1.3x more Ah than BAAT on average, 2.1x cloudy+old;
- weighting the three metrics equally, BAAT cuts worst-case aging speed
  (cloudy + old) by ~38 %.
"""

from __future__ import annotations

from typing import Tuple

from repro.campaign import run_campaign
from repro.experiments.base import ExperimentResult
from repro.experiments.common import (
    OLD_BATTERY_FADE,
    POLICIES,
    day_trace,
    policy_specs,
    sweep_scenario,
)
from repro.rng import DEFAULT_SEED
from repro.sim.results import SimResult
from repro.solar.weather import DayClass

CELLS: Tuple[Tuple[str, DayClass, float], ...] = (
    ("sunny/young", DayClass.SUNNY, 0.0),
    ("cloudy/young", DayClass.CLOUDY, 0.0),
    ("sunny/old", DayClass.SUNNY, OLD_BATTERY_FADE),
    ("cloudy/old", DayClass.CLOUDY, OLD_BATTERY_FADE),
)

#: Days per cell; >1 so overnight carry-over (the deep-discharge driver)
#: is represented.
N_DAYS = 2


def run(quick: bool = True, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Run the 4-scheme x 4-cell matrix (one campaign) and tabulate
    worst-node metrics."""
    n_days = N_DAYS if quick else 2 * N_DAYS
    specs = []
    for label, day_class, fade in CELLS:
        scenario = sweep_scenario(seed=seed, initial_fade=fade)
        trace = day_trace(scenario, day_class, n_days=n_days)
        specs += policy_specs(scenario, trace, POLICIES, prefix=f"{label}|")
    results = run_campaign(specs).results()

    def cell(label: str, policy: str) -> SimResult:
        return results[f"{label}|{policy}"]

    rows = []
    for label, *_ in CELLS:
        for name in POLICIES:
            result = cell(label, name)
            worst = result.worst_node_by_throughput_ah()
            m = worst.metrics
            rows.append(
                (
                    label,
                    name,
                    m.discharged_ah / n_days,
                    min(m.cf, 99.0),
                    m.pc,
                    m.ddt,
                    result.worst_damage_per_day() * 1000.0,
                )
            )

    def worst_ah(label: str, policy: str) -> float:
        return cell(label, policy).worst_node_by_throughput_ah().metrics.discharged_ah

    ebuff_cloudy_vs_sunny = (
        worst_ah("cloudy/young", "e-buff") / max(worst_ah("sunny/young", "e-buff"), 1e-9)
        - 1.0
    ) * 100.0
    ebuff_vs_baat_worstcase = worst_ah("cloudy/old", "e-buff") / max(
        worst_ah("cloudy/old", "baat"), 1e-9
    )
    aging_speed_cut = (
        1.0
        - cell("cloudy/old", "baat").worst_damage_per_day()
        / max(cell("cloudy/old", "e-buff").worst_damage_per_day(), 1e-12)
    ) * 100.0

    return ExperimentResult(
        exp_id="fig13",
        title="Aging metrics of four schemes x weather x battery age (worst node)",
        headers=("cell", "scheme", "Ah/day", "CF", "PC", "DDT", "fade/day x1e-3"),
        rows=rows,
        headline={
            "e-Buff Ah, cloudy vs sunny %": ebuff_cloudy_vs_sunny,
            "e-Buff/BAAT Ah ratio (cloudy+old)": ebuff_vs_baat_worstcase,
            "BAAT worst-case aging-speed cut %": aging_speed_cut,
        },
        notes=(
            "paper: e-Buff Ah +35 % cloudy-vs-sunny; e-Buff cycles 1.3x "
            "(avg) to 2.1x (cloudy+old) the Ah of BAAT; BAAT cuts "
            "worst-case aging speed ~38 %"
        ),
    )
