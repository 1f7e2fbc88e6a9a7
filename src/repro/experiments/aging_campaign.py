"""Six-month accelerated aging campaign (shared by Figs. 3, 4, 5).

Reproduces the measurement setting of section II-B: a battery in cyclic
green-energy-buffer service, observed monthly for six months. Each
simulated day follows the prototype's duty cycle — a sustained daytime
discharge into server load, a solar recharge, and an overnight rest —
at an aggressiveness (~45-55 % DoD per day) matching the paper's
"aggressive usage" deployment.

Monthly snapshots record the Fig. 3/4/5 observables:

- fully-charged terminal voltage (rested OCV at 100 % SoC);
- effectively stored energy per cycle (usable capacity x voltage);
- month-local round-trip efficiency (terminal Wh out / Wh in).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Tuple

from repro.battery.unit import BatteryUnit
from repro.campaign import default_cache, object_key
from repro.rng import DEFAULT_SEED
from repro.units import SECONDS_PER_HOUR

#: Campaign shape: 6 observation months of ~30 days.
CAMPAIGN_MONTHS = 6
DAYS_PER_MONTH = 30

#: Daily duty cycle (hours, watts) calibrated to ~50 % DoD on a fresh
#: 12 V / 35 Ah block: 5 h discharge at 38 W, 8 h recharge at 45 W.
DISCHARGE_HOURS = 5.0
DISCHARGE_W = 38.0
CHARGE_HOURS = 8.0
CHARGE_W = 45.0
REST_HOURS = 11.0

#: Campaign integration step (seconds).
DT_S = 300.0


@dataclass(frozen=True)
class MonthlySnapshot:
    """One monthly observation of the campaign battery."""

    month: int
    full_charge_voltage_v: float
    stored_energy_wh: float
    capacity_fade: float
    month_round_trip_efficiency: float
    min_soc: float


@dataclass(frozen=True)
class CampaignResult:
    """The whole six-month record."""

    snapshots: Tuple[MonthlySnapshot, ...]

    @property
    def initial(self) -> MonthlySnapshot:
        return self.snapshots[0]

    @property
    def final(self) -> MonthlySnapshot:
        return self.snapshots[-1]

    def voltage_drop_percent(self) -> float:
        """Total full-charge voltage drop over the campaign (%)."""
        v0 = self.initial.full_charge_voltage_v
        return (1.0 - self.final.full_charge_voltage_v / v0) * 100.0

    def capacity_drop_percent(self) -> float:
        """Total stored-energy drop over the campaign (%)."""
        e0 = self.initial.stored_energy_wh
        return (1.0 - self.final.stored_energy_wh / e0) * 100.0

    def efficiency_drop_percent(self) -> float:
        """Round-trip-efficiency drop, first month vs last month (%)."""
        # Month 0 is the pre-campaign snapshot; month 1 is the first
        # month of operation.
        eta0 = self.snapshots[1].month_round_trip_efficiency
        eta1 = self.final.month_round_trip_efficiency
        return (1.0 - eta1 / eta0) * 100.0

    def voltage_droop_rate_v_per_month(self) -> Tuple[float, float]:
        """(early, late) droop rates, to exhibit the acceleration the
        paper measures (0.1 -> 0.3 V/month)."""
        v = [s.full_charge_voltage_v for s in self.snapshots]
        early = (v[1] - v[3]) / 2.0
        late = (v[3] - v[6]) / 3.0
        return early, late


def _run_day(battery: BatteryUnit) -> float:
    """One duty-cycle day; returns the day's minimum SoC."""
    min_soc = battery.soc
    steps = int(DISCHARGE_HOURS * SECONDS_PER_HOUR / DT_S)
    for _ in range(steps):
        battery.discharge(DISCHARGE_W, DT_S)
        min_soc = min(min_soc, battery.soc)
    steps = int(CHARGE_HOURS * SECONDS_PER_HOUR / DT_S)
    for _ in range(steps):
        battery.charge(CHARGE_W, DT_S)
    battery.rest(REST_HOURS * SECONDS_PER_HOUR)
    return min_soc


def _snapshot(
    battery: BatteryUnit,
    month: int,
    month_eta: float,
    min_soc: float,
) -> MonthlySnapshot:
    return MonthlySnapshot(
        month=month,
        full_charge_voltage_v=battery.voltage_model.ocv(1.0, battery.capacity_fade),
        # Energy stored per full cycle, at nameplate voltage: the paper's
        # Fig. 4 quantity tracks deliverable charge, so the voltage droop
        # is reported separately (Fig. 3) and not double-counted here.
        stored_energy_wh=battery.effective_capacity_ah * battery.params.nominal_voltage,
        capacity_fade=battery.capacity_fade,
        month_round_trip_efficiency=month_eta,
        min_soc=min_soc,
    )


@functools.lru_cache(maxsize=4)
def run_aging_log(seed: int = DEFAULT_SEED, months: int = CAMPAIGN_MONTHS) -> CampaignResult:
    """Run the six-month aging campaign (memoized in memory and on disk).

    The campaign is deterministic in (seed, months), so the result is
    stored in the shared campaign result cache; figures 3/4/5 and their
    benches replay it from disk across processes.
    """
    # `is not None`, not truthiness — an *empty* ResultCache is falsy.
    cache = default_cache()
    key = object_key("aging-campaign", seed, months) if cache is not None else None
    if cache is not None:
        hit = cache.get(key)
        if isinstance(hit, CampaignResult):
            return hit
    battery = BatteryUnit(name="campaign")
    snapshots: List[MonthlySnapshot] = [_snapshot(battery, 0, 1.0, battery.soc)]
    for month in range(1, months + 1):
        e_in_0, e_out_0 = battery.energy_in_wh, battery.energy_out_wh
        min_soc = 1.0
        for _ in range(DAYS_PER_MONTH):
            min_soc = min(min_soc, _run_day(battery))
        d_in = battery.energy_in_wh - e_in_0
        d_out = battery.energy_out_wh - e_out_0
        eta = d_out / d_in if d_in > 0 else 1.0
        snapshots.append(_snapshot(battery, month, eta, min_soc))
    result = CampaignResult(snapshots=tuple(snapshots))
    if cache is not None:
        try:
            cache.put(key, result)
        except OSError:
            pass
    return result
