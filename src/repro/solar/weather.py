"""Weather: day classes and the intra-day cloud process.

Two levels of stochasticity:

- **Day classes** (Sunny / Cloudy / Rainy) set a day's mean clearness,
  calibrated to the paper's section VI-A daily energy budgets (8 / 6 /
  3 kWh). The class sequence across days is sampled from probabilities
  derived from the location's *sunshine fraction* — "the percentage of
  time when sunshine is recorded" — the Fig. 14 / Fig. 17 sweep variable.
- **Cloud process**: within a day, a three-state Markov chain
  (clear / partly / overcast) modulates the clear-sky curve, giving the
  intermittency that makes batteries cycle. Transition rates and state
  attenuations depend on the day class (sunny days are steady, cloudy
  days are volatile, rainy days are dim and fairly steady).
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.units import clamp


class DayClass(enum.Enum):
    """The paper's three weather scenarios."""

    SUNNY = "sunny"
    CLOUDY = "cloudy"
    RAINY = "rainy"


#: Mean clearness (fraction of clear-sky energy actually delivered) per
#: class, calibrated so a panel sized for 8 kWh on a sunny day yields
#: ~6 kWh cloudy and ~3 kWh rainy (paper section VI-A).
DAY_CLEARNESS: Dict[DayClass, float] = {
    DayClass.SUNNY: 1.00,
    DayClass.CLOUDY: 0.75,
    DayClass.RAINY: 0.375,
}

#: Cloud-state attenuation factors (clear, partly, overcast) per class.
_STATE_ATTENUATION: Dict[DayClass, Tuple[float, float, float]] = {
    DayClass.SUNNY: (1.0, 0.75, 0.45),
    DayClass.CLOUDY: (1.0, 0.55, 0.25),
    DayClass.RAINY: (0.75, 0.45, 0.20),
}

#: Stationary cloud-state probabilities (clear, partly, overcast) per class,
#: chosen so the expected attenuation matches DAY_CLEARNESS.
_STATE_PROBS: Dict[DayClass, Tuple[float, float, float]] = {
    DayClass.SUNNY: (0.92, 0.06, 0.02),
    DayClass.CLOUDY: (0.45, 0.35, 0.20),
    DayClass.RAINY: (0.10, 0.35, 0.55),
}

#: Mean sojourn time (seconds) in a cloud state per class — sunny skies
#: change slowly, broken clouds churn.
_STATE_SOJOURN_S: Dict[DayClass, float] = {
    DayClass.SUNNY: 3600.0,
    DayClass.CLOUDY: 900.0,
    DayClass.RAINY: 1800.0,
}


def day_class_probabilities(sunshine_fraction: float) -> Dict[DayClass, float]:
    """Day-class distribution for a location's sunshine fraction.

    Monotone by construction: more recorded sunshine means more sunny
    days, with the residual split between cloudy and rainy (cloud-heavy
    near the middle, rain-heavy at the dark end).
    """
    if not 0.0 <= sunshine_fraction <= 1.0:
        raise ConfigurationError("sunshine_fraction must be in [0, 1]")
    p_sunny = sunshine_fraction**1.1
    residual = 1.0 - p_sunny
    p_rainy = residual * (1.0 - 0.6 * sunshine_fraction)
    p_cloudy = residual - p_rainy
    return {
        DayClass.SUNNY: p_sunny,
        DayClass.CLOUDY: max(0.0, p_cloudy),
        DayClass.RAINY: max(0.0, p_rainy),
    }


class CloudProcess:
    """Intra-day Markov cloud attenuation for one day class."""

    def __init__(self, day_class: DayClass, rng: np.random.Generator):
        self.day_class = day_class
        self.rng = rng
        self._probs = np.array(_STATE_PROBS[day_class])
        # The draw Generator.choice(3, p=probs) makes: one uniform against
        # the normalised cumulative distribution.
        cdf = self._probs.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()
        self._atten = _STATE_ATTENUATION[day_class]
        self._sojourn_s = _STATE_SOJOURN_S[day_class]
        self._state = self._draw_state()
        self._remaining_s = self._draw_sojourn()
        # Normalise so the expected attenuation equals the class clearness.
        expected = float(np.dot(self._probs, self._atten))
        self._scale = DAY_CLEARNESS[day_class] / expected if expected > 0 else 1.0

    def _draw_state(self) -> int:
        return bisect.bisect_right(self._cdf, self.rng.random())

    def _draw_sojourn(self) -> float:
        return float(self.rng.exponential(self._sojourn_s))

    def _level(self) -> float:
        return clamp(self._atten[self._state] * self._scale, 0.0, 1.05)

    def attenuations(self, dt: float, n_steps: int) -> List[float]:
        """Attenuation factors for the next ``n_steps`` steps of ``dt``
        seconds, advancing the chain one constant run per cloud-state
        segment. Values are clipped to [0, 1.05] (brief cloud-edge
        over-irradiance is real but small)."""
        out: List[float] = []
        remaining = self._remaining_s
        while len(out) < n_steps:
            # Steps left in this segment: the chain redraws on the step
            # whose decrement takes the sojourn to <= 0, and that step
            # already sees the new state.
            run = 0
            while run < n_steps - len(out):
                remaining -= dt
                if remaining <= 0.0:
                    break
                run += 1
            out.extend([self._level()] * run)
            if len(out) < n_steps:
                self._state = self._draw_state()
                remaining = self._draw_sojourn()
                out.append(self._level())
        self._remaining_s = remaining
        return out


@dataclass
class WeatherModel:
    """Samples day classes for a location.

    Attributes
    ----------
    sunshine_fraction:
        The Fig. 14 sweep variable; 0.5 is a temperate default.
    """

    sunshine_fraction: float = 0.5

    def sample_days(self, n_days: int, rng: np.random.Generator) -> list:
        """Sample ``n_days`` day classes i.i.d. from the location mix."""
        probs = day_class_probabilities(self.sunshine_fraction)
        classes = list(probs.keys())
        p = np.array([probs[c] for c in classes])
        p = p / p.sum()
        draws = rng.choice(len(classes), size=n_days, p=p)
        return [classes[i] for i in draws]
