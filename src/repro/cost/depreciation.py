"""Battery depreciation cost (paper Fig. 16).

"Increasing battery lifetime can greatly increase the return on investment
(ROI) due to the reduced battery depreciation cost." Straight-line
depreciation over the battery's *achieved* (not nameplate) service life:
a fleet whose batteries survive 69 % longer pays proportionally less per
year for the same installed capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.battery.params import BatteryParams
from repro.errors import ConfigurationError
from repro.units import DAYS_PER_YEAR


def annual_depreciation_usd(price_usd: float, lifetime_days: float) -> float:
    """Straight-line annual depreciation of one battery."""
    if price_usd < 0:
        raise ConfigurationError("price_usd must be >= 0")
    if lifetime_days <= 0:
        raise ConfigurationError("lifetime_days must be positive")
    return price_usd * DAYS_PER_YEAR / lifetime_days


@dataclass(frozen=True)
class DepreciationModel:
    """Fleet-level battery depreciation.

    Attributes
    ----------
    battery:
        The deployed battery product (price lives on its params).
    n_batteries:
        Fleet size.
    replacement_overhead_usd:
        Labour/logistics per replacement event (datacenter battery swaps
        are technician work, not free).
    """

    battery: BatteryParams
    n_batteries: int = 6
    replacement_overhead_usd: float = 15.0

    def __post_init__(self) -> None:
        if self.n_batteries <= 0:
            raise ConfigurationError("n_batteries must be positive")
        if self.replacement_overhead_usd < 0:
            raise ConfigurationError("replacement_overhead_usd must be >= 0")

    @property
    def unit_cost_usd(self) -> float:
        """Cost of one replacement event (battery + labour)."""
        return self.battery.price_usd + self.replacement_overhead_usd

    def annual_cost_usd(self, lifetime_days: float) -> float:
        """Fleet annual depreciation at a given achieved lifetime."""
        return self.n_batteries * annual_depreciation_usd(
            self.unit_cost_usd, lifetime_days
        )
