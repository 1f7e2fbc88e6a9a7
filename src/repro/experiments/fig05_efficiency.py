"""Fig. 5 — measured energy-efficiency degradation due to aging.

Paper result: a battery used as a green-energy buffer loses ~8 % of its
round-trip efficiency over six months, as internal resistance grows
(more ohmic loss) and aged plates gas more during charge (more coulombic
loss).
"""

from __future__ import annotations

from repro.experiments.aging_campaign import run_aging_log
from repro.experiments.base import ExperimentResult
from repro.rng import DEFAULT_SEED


def run(quick: bool = True, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Regenerate Fig. 5 from the shared six-month campaign."""
    campaign = run_aging_log(seed)
    rows = [
        (f"month {s.month}", s.month_round_trip_efficiency, s.capacity_fade)
        for s in campaign.snapshots[1:]  # month 0 has no flow history
    ]
    return ExperimentResult(
        exp_id="fig05",
        title="Monthly round-trip efficiency over 6 months of cyclic use",
        headers=("month", "round-trip efficiency", "capacity fade"),
        rows=rows,
        headline={
            "efficiency drop over 6 months %": campaign.efficiency_drop_percent(),
        },
        notes="paper: ~8 % round-trip efficiency loss over six months",
    )
