"""Availability analysis: low-SoC exposure (paper Fig. 18)."""

from repro.availability.soc_stats import (
    AvailabilityStats,
    availability_improvement,
    low_soc_stats,
)

__all__ = [
    "AvailabilityStats",
    "availability_improvement",
    "low_soc_stats",
]
