"""Fig. 12 — system runtime profiling across weather conditions.

Paper observations for the e-Buff-style baseline on the prototype:

- battery usage frequency varies significantly across the six packs
  (Fig. 12a);
- the total energy budget is ~8 / 6 / 3 kWh for sunny / cloudy / rainy;
- sunny days show *low* Ah throughput, *high* CF, and output drawn at
  high SoC (the battery barely works); cloudy and rainy days show high
  throughput, low CF, and low-SoC output — i.e. more aging decay.
"""

from __future__ import annotations

import math

from repro.campaign import run_campaign
from repro.experiments.base import ExperimentResult
from repro.experiments.common import day_trace, policy_specs, sweep_scenario
from repro.rng import DEFAULT_SEED
from repro.solar.weather import DayClass


def run(quick: bool = True, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """One day per weather class; report metrics and the slowdown onset.

    Metrics come from an unmanaged (e-Buff) run; the slowdown-trigger
    time comes from a matched BAAT run ("the slowdown time varies in
    different weathers", section VI-A). All six cells run as one
    campaign.
    """
    scenario = sweep_scenario(seed=seed)
    days = (DayClass.SUNNY, DayClass.CLOUDY, DayClass.RAINY)
    traces = {day: day_trace(scenario, day, n_days=1) for day in days}
    specs = []
    for day in days:
        specs += policy_specs(
            scenario, traces[day], ("e-buff", "baat"), prefix=f"{day.value}|"
        )
    results = run_campaign(specs).results()
    rows = []
    for day_class in days:
        result = results[f"{day_class.value}|e-buff"]
        node = result.worst_node_by_throughput_ah()
        m = node.metrics
        ah_per_node = [n.discharged_ah for n in result.nodes]
        mean_ah = sum(ah_per_node) / len(ah_per_node)
        spread = (max(ah_per_node) - min(ah_per_node)) / mean_ah if mean_ah > 0 else 0.0
        cf = m.cf if not math.isinf(m.cf) else float("nan")

        trigger = results[f"{day_class.value}|baat"].slowdown_onset_s
        trigger_h = trigger / 3600.0 if trigger is not None else float("nan")

        rows.append(
            (
                day_class.value,
                traces[day_class].energy_wh() / 1000.0,
                m.discharged_ah,
                m.nat * 1000.0,
                cf,
                m.pc,
                m.ddt,
                spread,
                trigger_h,
            )
        )
    return ExperimentResult(
        exp_id="fig12",
        title="Runtime aging-metric profile under different weather (e-Buff)",
        headers=(
            "day",
            "solar kWh",
            "worst-node Ah",
            "NAT (x1e-3)",
            "CF",
            "PC",
            "DDT",
            "node usage spread",
            "BAAT slowdown onset (h)",
        ),
        rows=rows,
        headline={
            "sunny-vs-rainy Ah-throughput ratio": rows[0][2] / max(rows[2][2], 1e-9),
        },
        notes=(
            "paper: sunny days -> low Ah throughput, high CF, high-SoC "
            "output; cloudy/rainy -> the reverse (more aging decay); usage "
            "varies significantly across the six packs"
        ),
    )
