"""Fig. 14 — battery lifetime under different solar-energy availability.

Paper results: battery lifetime increases with the sunshine fraction
(more direct solar = fewer discharge cycles). Averaged over locations,
BAAT extends battery life by ~69 % over e-Buff; BAAT-s achieves ~37 % and
BAAT-h ~29 % — slowdown matters more than balancing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.lifetime import SweepPoint, lifetime_sweep
from repro.analysis.reporting import improvement_percent
from repro.experiments.base import ExperimentResult
from repro.experiments.common import POLICIES, sweep_scenario
from repro.rng import DEFAULT_SEED

QUICK_FRACTIONS = (0.3, 0.55, 0.8)
FULL_FRACTIONS = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95)


def run(
    quick: bool = True,
    seed: int = DEFAULT_SEED,
    fractions: Sequence[float] = (),
    n_days: int = 0,
    n_workers: Optional[int] = None,
) -> ExperimentResult:
    """Sweep the sunshine fraction and extrapolate lifetime per scheme."""
    if not fractions:
        fractions = QUICK_FRACTIONS if quick else FULL_FRACTIONS
    if n_days <= 0:
        n_days = 4 if quick else 8

    scenario = sweep_scenario(seed=seed)
    sweep = lifetime_sweep(
        [SweepPoint(scenario, fraction, POLICIES) for fraction in fractions],
        n_days,
        n_workers=n_workers,
    )
    rows: List[Sequence[object]] = []
    gains: Dict[str, List[float]] = {name: [] for name in POLICIES if name != "e-buff"}
    for fraction, estimates in zip(fractions, sweep):
        base = estimates["e-buff"].lifetime_days
        rows.append(
            (f"{fraction:.0%}",)
            + tuple(estimates[name].lifetime_days for name in POLICIES)
        )
        for name in gains:
            gains[name].append(improvement_percent(estimates[name].lifetime_days, base))

    headline = {
        f"{name} lifetime vs e-Buff (avg) %": sum(values) / len(values)
        for name, values in gains.items()
    }
    return ExperimentResult(
        exp_id="fig14",
        title="Battery lifetime (days) vs sunshine fraction, per scheme",
        headers=("sunshine",) + tuple(POLICIES),
        rows=rows,
        headline=headline,
        notes=(
            "paper: lifetime grows with sunshine; BAAT +69 % avg over "
            "e-Buff, BAAT-s +37 %, BAAT-h +29 %"
        ),
    )
