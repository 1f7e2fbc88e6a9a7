"""Solar power traces: precomputed per-step generation series.

A :class:`SolarTrace` is the immutable product the simulation engine
consumes: a step duration plus an array of watts. Precomputing traces (a)
makes runs reproducible and policy-independent — every policy in a Fig. 13
comparison sees *exactly* the same irradiance, mirroring the paper's
careful matching of "most similar solar generation scenarios" across
experiment days — and (b) lets experiments synthesise specific day
sequences (one sunny day, a rainy week, a 6-month season for a sunshine
fraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, TraceError
from repro.rng import spawn
from repro.solar.panel import PVPanel
from repro.solar.weather import CloudProcess, DayClass, WeatherModel
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR


@dataclass(frozen=True)
class SolarTrace:
    """A fixed-step solar generation series.

    Attributes
    ----------
    dt_s:
        Step duration in seconds.
    power_w:
        Generation at each step (numpy array, watts).
    day_classes:
        The day-class label of each simulated day, for reporting.
    """

    dt_s: float
    power_w: np.ndarray
    day_classes: tuple

    def __post_init__(self) -> None:
        if self.dt_s <= 0:
            raise TraceError("dt_s must be positive")
        if len(self.power_w) == 0:
            raise TraceError("trace must be non-empty")
        if np.any(self.power_w < 0):
            raise TraceError("negative solar power in trace")

    @property
    def duration_s(self) -> float:
        """Total trace duration in seconds."""
        return self.dt_s * len(self.power_w)

    @property
    def n_days(self) -> int:
        """Number of whole days covered."""
        return int(round(self.duration_s / SECONDS_PER_DAY))

    def energy_wh(self) -> float:
        """Total trace energy in watt-hours."""
        return float(self.power_w.sum() * self.dt_s / SECONDS_PER_HOUR)


class SolarTraceGenerator:
    """Builds reproducible solar traces from a panel + weather model."""

    def __init__(
        self,
        panel: PVPanel,
        seed: int = 0,
        dt_s: float = 60.0,
    ):
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        self.panel = panel
        self.seed = seed
        self.dt_s = dt_s

    def day(self, day_class: DayClass, day_index: int = 0) -> SolarTrace:
        """One day of generation for a given weather class."""
        return self.days([day_class], first_day_index=day_index)

    def days(
        self, day_classes: Sequence[DayClass], first_day_index: int = 0
    ) -> SolarTrace:
        """A multi-day trace following an explicit day-class sequence."""
        if not day_classes:
            raise ConfigurationError("need at least one day")
        dt = self.dt_s
        steps_per_day = int(round(SECONDS_PER_DAY / dt))
        rated_w = self.panel.rated_w
        fraction = self.panel.clear_sky.fraction
        steps = np.arange(steps_per_day)
        times_of_day: Optional[np.ndarray] = None
        clear_w: List[float] = []
        values: List[float] = []
        for d, day_class in enumerate(day_classes):
            rng = spawn(self.seed, f"solar/day{first_day_index + d}")
            attenuations = CloudProcess(day_class, rng).attenuations(dt, steps_per_day)
            # The clear-sky fraction depends on t only through t % 1 day,
            # so a day whose times of day repeat the previous day's (any
            # dt dividing the day) reuses its clear-sky watts.
            tod = ((d * steps_per_day + steps) * dt) % SECONDS_PER_DAY
            if times_of_day is None or not np.array_equal(tod, times_of_day):
                times_of_day = tod
                clear_w = [rated_w * fraction(x) for x in tod.tolist()]
            # PVPanel.power's (rated * fraction) * attenuation, per step.
            values.extend(map(mul, clear_w, attenuations))
        return SolarTrace(
            dt_s=dt, power_w=np.array(values), day_classes=tuple(day_classes)
        )

    def season(
        self,
        n_days: int,
        weather: Optional[WeatherModel] = None,
        sunshine_fraction: Optional[float] = None,
    ) -> SolarTrace:
        """A season of days sampled from a location's weather mix.

        Exactly one of ``weather`` or ``sunshine_fraction`` may be given;
        with neither, a temperate 0.5 sunshine fraction is used.
        """
        if weather is not None and sunshine_fraction is not None:
            raise ConfigurationError("pass weather or sunshine_fraction, not both")
        if weather is None:
            weather = WeatherModel(
                sunshine_fraction if sunshine_fraction is not None else 0.5
            )
        rng = spawn(self.seed, "weather/day-classes")
        classes = weather.sample_days(n_days, rng)
        return self.days(classes)
