"""CC-CV battery charger model.

The prototype's power module charges batteries from solar or utility power
under controller command. Lead-acid charging follows the classic
constant-current / constant-voltage (absorption) profile with a float
stage:

- **Bulk (CC)** — below the gassing region the battery accepts up to the
  charger's current limit (conventionally C/5 for VRLA);
- **Absorption (CV)** — approaching full charge the acceptance current
  tapers roughly linearly to the float level as the terminal voltage is
  held at the absorption setpoint;
- **Float** — a trickle that offsets self-discharge; prolonged float is an
  aging driver (corrosion, water loss) that the charge-factor metric (CF,
  Eq. 2) senses.

The charger also models *coulombic efficiency*: some charge current goes
into gassing rather than stored charge, increasingly so above the gassing
SoC. This is why a healthy lead-acid charge factor sits in the 1-1.3 band
the paper quotes from Svoboda et al.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.battery.params import BatteryParams
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ChargerParams:
    """Configuration for a CC-CV charger attached to one battery.

    Attributes
    ----------
    max_current_fraction_c:
        Bulk current limit as a fraction of capacity per hour (0.2 = C/5).
    float_current_fraction_c:
        Float/trickle current as a fraction of C (offsets self-discharge).
    taper_start_soc:
        SoC where CV taper begins; at and above this the acceptance limit
        falls linearly to the float current at 100 % SoC.
    """

    max_current_fraction_c: float = 0.20
    float_current_fraction_c: float = 0.002
    taper_start_soc: float = 0.85

    def __post_init__(self) -> None:
        if self.max_current_fraction_c <= 0:
            raise ConfigurationError("max_current_fraction_c must be positive")
        if self.float_current_fraction_c < 0:
            raise ConfigurationError("float_current_fraction_c must be >= 0")
        if not 0.0 < self.taper_start_soc < 1.0:
            raise ConfigurationError("taper_start_soc must be in (0, 1)")


class Charger:
    """Computes the acceptable charge current for a battery state.

    Stateless with respect to the battery; the battery unit calls
    :meth:`acceptance_current` each step with its current SoC.
    """

    def __init__(self, battery: BatteryParams, params: ChargerParams | None = None):
        self.battery = battery
        self.params = params or ChargerParams()

    @property
    def max_current(self) -> float:
        """Bulk-stage current limit in amperes."""
        return self.params.max_current_fraction_c * self.battery.capacity_ah

    @property
    def float_current(self) -> float:
        """Float-stage trickle current in amperes."""
        return self.params.float_current_fraction_c * self.battery.capacity_ah

    def acceptance_current(self, soc: float, capacity_fade: float = 0.0) -> float:
        """Maximum current (A) the battery will accept at the given SoC.

        An aged battery's acceptance shrinks proportionally with its
        remaining capacity: less active mass means less material available
        to convert, so bulk current scales by ``(1 - fade)``.
        """
        soc = max(0.0, min(1.0, soc))
        bulk = self.max_current * (1.0 - max(0.0, min(1.0, capacity_fade)))
        start = self.params.taper_start_soc
        if soc < start:
            return bulk
        if soc >= 1.0:
            return self.float_current
        # Linear taper from bulk at taper_start_soc to float at SoC = 1.
        frac = (soc - start) / (1.0 - start)
        return bulk + (self.float_current - bulk) * frac

    def coulombic_efficiency(self, soc: float) -> float:
        """Fraction of charge current converted to stored charge.

        Below the gassing SoC the nominal efficiency applies; above it the
        efficiency falls linearly toward ~60 % at full charge as more of
        the current drives electrolysis. The lost fraction is what pushes
        the charge factor (Eq. 2) above 1 during normal cycling.
        """
        soc = max(0.0, min(1.0, soc))
        base = self.battery.coulombic_efficiency
        gas = self.battery.gassing_soc
        if soc <= gas:
            return base
        frac = (soc - gas) / max(1e-9, 1.0 - gas)
        floor = 0.60
        return base + (floor - base) * frac
