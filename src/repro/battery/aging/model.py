"""Combined aging model: damage accumulation and derived degradation.

:class:`AgingModel` owns the five mechanisms and an :class:`AgingState`
holding cumulative per-mechanism damage. Each battery step feeds one
:class:`~repro.battery.aging.conditions.OperatingConditions` snapshot in;
the model returns the incremental fade and updates the state.

Two modelling choices beyond the raw mechanisms:

- **Synergy/feedback** — an aged battery ages faster (higher resistance
  means more self-heating; degraded plates shed more easily). Mechanism
  rates are multiplied by ``1 + feedback * fade``, which produces the
  accelerating degradation visible in the paper's Fig. 3 (voltage droop
  rate growing from 0.1 to 0.3 V/month).
- **Derived quantities** — capacity fade (sum of damage), resistance growth
  (resistive share of each mechanism, scaled), and coulombic-efficiency
  degradation (gassing worsens with age), which together reproduce the
  Fig. 3/4/5 measurements. A battery reads them several times per step,
  so the model derives them once per change to the damage record (see
  :meth:`AgingModel.derived`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.battery.aging.conditions import OperatingConditions
from repro.battery.aging.mechanisms import (
    EOL_FADE,
    AgingMechanism,
    default_mechanisms,
)
from repro.battery.params import FEEDBACK_GAIN

#: Multiplier translating resistive damage into fractional resistance growth.
RESISTANCE_GROWTH_GAIN = 3.0

#: Coulombic efficiency multiplier lost per unit fade (aged plates gas more).
COULOMBIC_DEGRADATION = 0.5


@dataclass
class AgingState:
    """Cumulative aging damage of one battery.

    ``damage`` maps mechanism name to its accumulated capacity-fade
    fraction. All derived properties are pure functions of this record, so
    the state is trivially serialisable and comparable.
    """

    damage: Dict[str, float] = field(default_factory=dict)
    #: Raw (unweighted) discharged charge, in Ah — numerator of Eq. 1.
    discharged_ah: float = 0.0
    #: Raw charged charge, in Ah (terminal, incl. gassing losses).
    charged_ah: float = 0.0

    def total_fade(self) -> float:
        """Total capacity-fade fraction (0 = new)."""
        return sum(self.damage.values())

    def copy(self) -> "AgingState":
        """An independent snapshot of this state."""
        return AgingState(
            damage=dict(self.damage),
            discharged_ah=self.discharged_ah,
            charged_ah=self.charged_ah,
        )


class AgingModel:
    """Accumulates aging damage and derives degradation quantities."""

    def __init__(
        self,
        mechanisms: Optional[List[AgingMechanism]] = None,
        eol_fade: float = EOL_FADE,
        feedback_gain: float = FEEDBACK_GAIN,
    ):
        self.mechanisms = (
            mechanisms if mechanisms is not None else default_mechanisms()
        )
        self.eol_fade = eol_fade
        self.feedback_gain = feedback_gain
        # Pre-seed every mechanism's damage entry so dict iteration (and
        # therefore the float summation order of total_fade/resistance
        # growth) is the fixed mechanism order rather than first-fire
        # order, which varied with each battery's history.
        self.state = AgingState(damage={m.name: 0.0 for m in self.mechanisms})
        self._resistance_shares = {m.name: m.resistance_share for m in self.mechanisms}
        # derived() cache: the damage items it was computed from, and the
        # (total fade, capacity fade, resistance growth) it computed.
        self._derived_key: Optional[tuple] = None
        self._derived_values: Tuple[float, float, float] = (0.0, 0.0, 0.0)
        #: Stratification accumulated since the last full charge — the
        #: portion a completing charge can still stir away.
        self._recoverable_stratification = 0.0

    def step(self, cond: OperatingConditions, dt: float) -> float:
        """Apply ``dt`` seconds of the given conditions; return added fade."""
        if dt < 0:
            raise ValueError("dt must be non-negative")
        feedback = 1.0 + self.feedback_gain * self.derived()[0]
        added = 0.0
        for mech in self.mechanisms:
            d = mech.damage(cond, dt) * feedback
            if d < 0:
                raise ValueError(f"mechanism {mech.name} produced negative damage")
            if d:
                self.state.damage[mech.name] = self.state.damage.get(mech.name, 0.0) + d
                added += d
                if mech.name == "stratification":
                    self._recoverable_stratification += d
        if cond.is_discharging:
            self.state.discharged_ah += cond.current * dt / 3600.0
        elif cond.is_charging:
            self.state.charged_ah += -cond.current * dt / 3600.0
        return added

    # ------------------------------------------------------------------
    # Derived degradation quantities
    # ------------------------------------------------------------------
    def derived(self) -> Tuple[float, float, float]:
        """``(total fade, capacity fade, resistance growth)`` of the
        present damage record.

        Recomputed only when the damage changed since the last call. The
        cache key is the damage items themselves, so every writer is seen
        without hooks: :meth:`step`, :meth:`recover_stratification`, a
        direct ``state.damage[name] = value`` write, or a whole new
        ``state``. The floats are those of the plain formulas: the total
        sums ``damage.values()`` in dict (mechanism) order.
        """
        key = tuple(self.state.damage.items())
        if key != self._derived_key:
            total = sum(self.state.damage.values())
            shares = self._resistance_shares
            resistive = sum([d * shares.get(name, 0.0) for name, d in key])
            self._derived_values = (
                total,
                max(0.0, min(0.95, total)),
                RESISTANCE_GROWTH_GAIN * resistive,
            )
            self._derived_key = key
        return self._derived_values

    @property
    def capacity_fade(self) -> float:
        """Fraction of nominal capacity permanently lost (capped at 95 %)."""
        return self.derived()[1]

    @property
    def resistance_growth(self) -> float:
        """Fractional internal-resistance increase due to aging."""
        return self.derived()[2]

    @property
    def coulombic_efficiency_factor(self) -> float:
        """Multiplier (<= 1) on the fresh coulombic efficiency."""
        return max(0.3, min(1.0, 1.0 - COULOMBIC_DEGRADATION * self.derived()[1]))

    @property
    def is_end_of_life(self) -> bool:
        """True once fade reaches the 80 %-of-nominal-capacity floor."""
        return self.derived()[0] >= self.eol_fade

    @property
    def health(self) -> float:
        """State of health in [0, 1]: 1 = new, 0 = at end-of-life fade."""
        return max(0.0, min(1.0, 1.0 - self.derived()[0] / self.eol_fade))

    def recover_stratification(self, fraction: float = 0.25) -> float:
        """Partially reverse stratification damage after a full charge.

        The gassing at the end of a full charge stirs the electrolyte,
        undoing part of the density gradient — the physical reason
        periodic full (equalisation) charges are prescribed for lead-acid
        banks, and why the paper's stratification mechanism only bites
        batteries that are "rarely fully recharged". Sulphation that
        stratification already caused is *not* recovered (it is
        irreversible); only the stratification term itself shrinks.

        Returns the amount of fade recovered.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        current = self.state.damage.get("stratification", 0.0)
        recovered = min(current, self._recoverable_stratification * fraction)
        if recovered > 0.0:
            self.state.damage["stratification"] = current - recovered
        # Whatever was not stirred away this time has consolidated into
        # sulphated plate area — permanently unrecoverable.
        self._recoverable_stratification = 0.0
        return recovered

    def damage_breakdown(self) -> Dict[str, float]:
        """Per-mechanism share of total damage (sums to 1; empty if new)."""
        total = self.derived()[0]
        if total <= 0.0:
            return {}
        return {name: d / total for name, d in self.state.damage.items()}
