"""Clear-sky irradiance profile.

The paper cites Wang & Chow's solar radiation model [41]; for a
system-level simulator only the *shape* of the diurnal curve matters. We
use the standard raised-sine clear-sky approximation: zero outside
daylight, and between sunrise and sunset

    s(t) = sin(pi * (t - sunrise) / (sunset - sunrise)) ** exponent

with ``exponent ~ 1.2`` matching the slightly peaked midday shape of
measured global horizontal irradiance. ``s`` is a dimensionless fraction
of the panel's rated output under standard conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR


@dataclass(frozen=True)
class ClearSkyModel:
    """Deterministic clear-sky fraction of rated PV output.

    Attributes
    ----------
    sunrise_h / sunset_h:
        Daylight window in local hours (defaults bracket the prototype's
        8:30-18:30 operating day with morning/evening shoulder).
    exponent:
        Peakedness of the diurnal bell.
    """

    sunrise_h: float = 6.5
    sunset_h: float = 19.0
    exponent: float = 1.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.sunrise_h < self.sunset_h <= 24.0:
            raise ConfigurationError("need 0 <= sunrise < sunset <= 24")
        if self.exponent <= 0:
            raise ConfigurationError("exponent must be positive")

    def fraction(self, t: float) -> float:
        """Clear-sky output fraction at simulation time ``t`` (seconds,
        where ``t % 86400`` is local time-of-day)."""
        tod_h = (t % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        if tod_h <= self.sunrise_h or tod_h >= self.sunset_h:
            return 0.0
        x = (tod_h - self.sunrise_h) / (self.sunset_h - self.sunrise_h)
        return math.sin(math.pi * x) ** self.exponent

    def daily_fraction_integral_h(self, dt: float = 300.0) -> float:
        """Integral of the clear-sky fraction over one day, in hours.

        This is the day's "equivalent full-output hours"; used to size the
        panel so a sunny day delivers the paper's 8 kWh budget.
        """
        total = 0.0
        t = 0.0
        while t < SECONDS_PER_DAY:
            total += self.fraction(t) * dt
            t += dt
        return total / SECONDS_PER_HOUR
