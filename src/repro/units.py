"""Unit conventions and conversion helpers.

The whole library uses SI-flavoured base units consistently:

========================  ==========================================
Quantity                  Unit
========================  ==========================================
time                      seconds (``float``)
power                     watts
energy                    watt-hours (kWh where the paper speaks in kWh)
charge                    ampere-hours (Ah) — the paper's native unit
current                   amperes
voltage                   volts
temperature               degrees Celsius
state of charge (SoC)     fraction in ``[0, 1]``
depth of discharge (DoD)  fraction in ``[0, 1]``
========================  ==========================================

Charge is deliberately kept in ampere-hours rather than coulombs because
every equation in the paper (Eqs. 1-5, 7) is written in Ah and battery
datasheets quote Ah capacity. The converters below turn the paper's hours,
days, months and kWh into these base units.
"""

from __future__ import annotations

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
DAYS_PER_YEAR = 365.0
DAYS_PER_MONTH = 30.4375  # mean Gregorian month, used for "6 months" spans


def hours(h: float) -> float:
    """Convert hours to seconds."""
    return h * SECONDS_PER_HOUR


def minutes(m: float) -> float:
    """Convert minutes to seconds."""
    return m * SECONDS_PER_MINUTE


def days(d: float) -> float:
    """Convert days to seconds."""
    return d * SECONDS_PER_DAY


def months(m: float) -> float:
    """Convert mean months to seconds."""
    return m * DAYS_PER_MONTH * SECONDS_PER_DAY


def kwh_to_wh(kwh: float) -> float:
    """Convert kilowatt-hours to watt-hours."""
    return kwh * 1000.0


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval ``[lo, hi]``.

    Used pervasively for SoC, DoD, and weighting factors; raises
    ``ValueError`` if the interval itself is inverted so silent logic bugs
    cannot masquerade as saturation.
    """
    if lo > hi:
        raise ValueError(f"invalid clamp interval [{lo}, {hi}]")
    return max(lo, min(hi, value))
