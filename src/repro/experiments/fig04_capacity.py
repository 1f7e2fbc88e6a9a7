"""Fig. 4 — measured battery capacity drop due to aging over 6 months.

Paper result: the effectively stored energy per charging cycle drops by
~14 % under aggressive usage; end of life is declared at 80 % of initial
capacity.
"""

from __future__ import annotations

from repro.experiments.aging_campaign import run_aging_log
from repro.experiments.base import ExperimentResult
from repro.rng import DEFAULT_SEED


def run(quick: bool = True, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Regenerate Fig. 4 from the shared six-month campaign."""
    campaign = run_aging_log(seed)
    rows = [
        (f"month {s.month}", s.stored_energy_wh, s.capacity_fade, s.min_soc)
        for s in campaign.snapshots
    ]
    return ExperimentResult(
        exp_id="fig04",
        title="Stored energy per cycle over 6 months of cyclic use",
        headers=("month", "stored energy (Wh)", "capacity fade", "cycle min SoC"),
        rows=rows,
        headline={
            "stored-energy drop over 6 months %": campaign.capacity_drop_percent(),
        },
        notes="paper: ~14 % drop over six months of aggressive usage",
    )
