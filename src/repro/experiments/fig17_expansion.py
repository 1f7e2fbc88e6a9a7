"""Fig. 17 — trading battery-life savings for server capacity.

Paper results: the depreciation saved by BAAT's longer battery life buys
extra servers at constant TCO — up to ~15 % more in sun-rich locations —
but the expansion ratio grows sublinearly because added servers raise the
server-to-battery ratio and shorten battery life again.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.lifetime import LifetimeEstimate, SweepPoint, lifetime_sweep
from repro.cost.depreciation import DepreciationModel
from repro.cost.expansion import ExpansionModel, expansion_at_constant_tco
from repro.cost.tco import TCOModel
from repro.experiments.base import ExperimentResult
from repro.experiments.common import sweep_scenario
from repro.rng import DEFAULT_SEED

QUICK_FRACTIONS = (0.3, 0.55, 0.8)
FULL_FRACTIONS = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95)

#: Ratios used to fit the lifetime-vs-load response for the fixed point.
FIT_RATIOS = (4.3, 8.0)


def _fit_lifetime_of_ratio(ratio_estimates: Sequence[Dict[str, LifetimeEstimate]]):
    """Fit ``lifetime = a * ratio ** b`` through the BAAT lifetimes at
    the two :data:`FIT_RATIOS` sweep points."""
    (r0, l0), (r1, l1) = (
        (ratio, max(est["baat"].lifetime_days, 1.0))
        for ratio, est in zip(FIT_RATIOS, ratio_estimates)
    )
    b = float(np.log(l1 / l0) / np.log(r1 / r0))
    a = l0 / r0**b
    return lambda ratio: a * ratio**b


def run(
    quick: bool = True,
    seed: int = DEFAULT_SEED,
    fractions: Sequence[float] = (),
    n_workers: Optional[int] = None,
) -> ExperimentResult:
    """Constant-TCO expansion per sunshine fraction."""
    if not fractions:
        fractions = QUICK_FRACTIONS if quick else FULL_FRACTIONS
    n_days = 4 if quick else 8

    # One campaign for the whole sweep: per fraction, the base pair and
    # the BAAT cells at each fit ratio.
    scenario = sweep_scenario(seed=seed)
    points = []
    for sunshine in fractions:
        points.append(SweepPoint(scenario, sunshine, ("e-buff", "baat")))
        points += [
            SweepPoint(scenario.with_server_to_battery_ratio(ratio), sunshine, ("baat",))
            for ratio in FIT_RATIOS
        ]
    sweep = lifetime_sweep(points, n_days, n_workers=n_workers)
    per_fraction = 1 + len(FIT_RATIOS)

    rows: List[Sequence[object]] = []
    expansions: Dict[float, float] = {}
    for k, sunshine in enumerate(fractions):
        estimates, *ratio_estimates = sweep[k * per_fraction:(k + 1) * per_fraction]
        lifetime_fn = _fit_lifetime_of_ratio(ratio_estimates)
        depreciation = DepreciationModel(scenario.battery, n_batteries=scenario.n_nodes)
        tco = TCOModel(depreciation=depreciation)
        model = ExpansionModel(
            tco=tco,
            baseline_servers=scenario.n_nodes,
            lifetime_of_ratio=lifetime_fn,
            baseline_lifetime_days=estimates["e-buff"].lifetime_days,
            baseline_ratio_w_per_ah=scenario.server_to_battery_ratio,
            # Surplus solar grows with sunshine; rich locations can power
            # up to ~20 % extra servers from otherwise-fed-back energy.
            solar_headroom_fraction=min(0.20, max(0.0, sunshine - 0.2) * 0.3),
        )
        expansion = expansion_at_constant_tco(model)
        expansions[sunshine] = expansion
        rows.append(
            (
                f"{sunshine:.0%}",
                estimates["e-buff"].lifetime_days,
                estimates["baat"].lifetime_days,
                expansion * 100.0,
            )
        )

    return ExperimentResult(
        exp_id="fig17",
        title="Servers addable at constant TCO vs sunshine fraction",
        headers=("sunshine", "e-buff life (d)", "baat life (d)", "expansion %"),
        rows=rows,
        headline={"max expansion %": max(expansions.values()) * 100.0},
        notes=(
            "paper: up to ~15 % more servers in sun-rich locations, "
            "sublinear because added load shortens battery life"
        ),
    )
