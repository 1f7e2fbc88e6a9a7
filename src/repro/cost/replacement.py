"""Event-based battery replacement simulation.

The depreciation model (Fig. 16) annualises a single lifetime figure.
Real fleets pay in *events*: a battery crosses the 80 %-capacity floor,
a technician swaps it, and the clock restarts — with replacement dates
scattered by manufacturing variation and load imbalance ("operators have
to replace batteries that undergo faster aging irregularly, which
unavoidably increases battery maintenance and replacement cost",
section IV-B). This module rolls a fleet forward over a horizon using
per-policy daily damage rates and produces the replacement schedule and
its cash flow, from which the annual cost emerges by accounting rather
than by formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.battery.aging.mechanisms import EOL_FADE
from repro.battery.params import BatteryParams
from repro.errors import ConfigurationError
from repro.rng import spawn
from repro.units import DAYS_PER_YEAR


@dataclass(frozen=True)
class ReplacementEvent:
    """One battery swap."""

    day: float
    unit: int
    cost_usd: float
    #: The service life the replaced battery achieved (days).
    lifetime_days: float = 0.0


@dataclass(frozen=True)
class FleetSchedule:
    """Outcome of a fleet roll-forward."""

    horizon_days: float
    events: Tuple[ReplacementEvent, ...]
    unit_cost_usd: float

    @property
    def total_cost_usd(self) -> float:
        return sum(e.cost_usd for e in self.events)

    @property
    def annual_cost_usd(self) -> float:
        years = self.horizon_days / DAYS_PER_YEAR
        return self.total_cost_usd / years if years > 0 else 0.0

    @property
    def replacements(self) -> int:
        return len(self.events)


class ReplacementSimulator:
    """Rolls a battery fleet forward under a daily damage-rate profile."""

    def __init__(
        self,
        params: BatteryParams,
        n_batteries: int = 6,
        replacement_overhead_usd: float = 15.0,
        seed: int = 0,
    ):
        if n_batteries <= 0:
            raise ConfigurationError("n_batteries must be positive")
        self.params = params
        self.n_batteries = n_batteries
        self.unit_cost_usd = params.price_usd + replacement_overhead_usd
        self.seed = seed

    def simulate(
        self,
        mean_damage_per_day: float,
        horizon_days: float,
        damage_spread: float = 0.15,
    ) -> FleetSchedule:
        """Roll the fleet to ``horizon_days``.

        Parameters
        ----------
        mean_damage_per_day:
            Fleet-mean capacity-fade rate (from a policy's simulated
            season, e.g. ``SimResult.mean_damage_per_day()``).
        damage_spread:
            Relative std-dev of per-unit rates (load imbalance +
            manufacturing variation). Zero gives a perfectly synchronous
            fleet.
        """
        if mean_damage_per_day <= 0:
            raise ConfigurationError("mean_damage_per_day must be positive")
        if horizon_days <= 0:
            raise ConfigurationError("horizon_days must be positive")
        if damage_spread < 0:
            raise ConfigurationError("damage_spread must be >= 0")

        rng = spawn(self.seed, "replacement/rates")
        events: List[ReplacementEvent] = []
        for unit in range(self.n_batteries):
            day = 0.0
            while True:
                rate = mean_damage_per_day * max(
                    0.2, 1.0 + damage_spread * rng.standard_normal()
                )
                life = EOL_FADE / rate
                day += life
                if day > horizon_days:
                    break
                events.append(
                    ReplacementEvent(
                        day=day,
                        unit=unit,
                        cost_usd=self.unit_cost_usd,
                        lifetime_days=life,
                    )
                )
        events.sort(key=lambda e: (e.day, e.unit))
        return FleetSchedule(
            horizon_days=horizon_days,
            events=tuple(events),
            unit_cost_usd=self.unit_cost_usd,
        )

    def compare(
        self,
        rates: Dict[str, float],
        horizon_days: float = 4.0 * DAYS_PER_YEAR,
    ) -> Dict[str, FleetSchedule]:
        """Fleet schedules for several policies' damage rates."""
        return {
            name: self.simulate(rate, horizon_days) for name, rate in rates.items()
        }
