"""Fig. 15 — battery lifetime under different server-to-battery ratios.

Paper results, sweeping the loading placed on batteries from 2 to
10 W/Ah:

1. heavier loading accelerates aging (~35 % lifetime loss 2 -> 10 W/Ah);
2. BAAT's advantage over e-Buff *grows* with loading (37 % -> 1.4x);
3. doubling battery capacity buys < 30 % lifetime — sizing has
   diminishing returns because aging is not linear in load.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.lifetime import SweepPoint, lifetime_sweep
from repro.analysis.reporting import improvement_percent, reduction_percent
from repro.experiments.base import ExperimentResult
from repro.experiments.common import sweep_scenario
from repro.rng import DEFAULT_SEED

QUICK_RATIOS = (2.0, 4.3, 7.0, 10.0)
FULL_RATIOS = (2.0, 3.0, 4.3, 6.0, 8.0, 10.0)

#: Mixed-weather evaluation point (temperate location).
SUNSHINE = 0.5


def run(
    quick: bool = True,
    seed: int = DEFAULT_SEED,
    ratios: Sequence[float] = (),
    n_workers: Optional[int] = None,
) -> ExperimentResult:
    """Sweep the server-to-battery capacity ratio (W/Ah)."""
    if not ratios:
        ratios = QUICK_RATIOS if quick else FULL_RATIOS
    n_days = 4 if quick else 8

    scenario = sweep_scenario(seed=seed)
    sweep = lifetime_sweep(
        [
            SweepPoint(
                scenario.with_server_to_battery_ratio(ratio),
                SUNSHINE,
                ("e-buff", "baat"),
            )
            for ratio in ratios
        ],
        n_days,
        n_workers=n_workers,
    )
    rows: List[Sequence[object]] = []
    lifetimes: Dict[float, Dict[str, float]] = {}
    for ratio, estimates in zip(ratios, sweep):
        lifetimes[ratio] = {k: v.lifetime_days for k, v in estimates.items()}
        gain = improvement_percent(
            lifetimes[ratio]["baat"], lifetimes[ratio]["e-buff"]
        )
        rows.append(
            (
                f"{ratio:.1f} W/Ah",
                lifetimes[ratio]["e-buff"],
                lifetimes[ratio]["baat"],
                gain,
            )
        )

    light, heavy = min(ratios), max(ratios)
    lifetime_drop = reduction_percent(
        lifetimes[heavy]["baat"], lifetimes[light]["baat"]
    )
    gain_light = improvement_percent(
        lifetimes[light]["baat"], lifetimes[light]["e-buff"]
    )
    gain_heavy = improvement_percent(
        lifetimes[heavy]["baat"], lifetimes[heavy]["e-buff"]
    )
    # Claim 3: halving the ratio (doubling battery) from the heavy end.
    mid = min(ratios, key=lambda r: abs(r - heavy / 2.0))
    doubling_gain = improvement_percent(
        lifetimes[mid]["baat"], lifetimes[heavy]["baat"]
    )

    return ExperimentResult(
        exp_id="fig15",
        title="Battery lifetime (days) vs server-to-battery ratio",
        headers=("ratio", "e-buff", "baat", "BAAT gain %"),
        rows=rows,
        headline={
            "lifetime drop light->heavy %": lifetime_drop,
            "BAAT gain at light load %": gain_light,
            "BAAT gain at heavy load %": gain_heavy,
            "doubling battery from heavy end %": doubling_gain,
        },
        notes=(
            "paper: -35 % lifetime from 2 to 10 W/Ah; BAAT's gain grows "
            "37 % -> 1.4x with load; doubling battery buys < 30 %"
        ),
    )
