"""Lead-acid battery simulator.

This package is the physical substrate the paper measures: sealed 12 V /
35 Ah VRLA blocks used as distributed per-server energy buffers. It provides

- :class:`~repro.battery.params.BatteryParams` — datasheet-style parameters;
- :class:`~repro.battery.unit.BatteryUnit` — a stateful battery with SoC
  tracking, terminal voltage, thermal behaviour, and five aging mechanisms;
- :mod:`~repro.battery.cycle_life` — manufacturer cycle-life-vs-DoD data
  (Fig. 10) and fitted curves;
- :class:`~repro.battery.charger.Charger` — CC-CV charging with gassing
  taper and coulombic efficiency.
"""

from repro.battery.params import BatteryParams
from repro.battery.voltage import VoltageModel
from repro.battery.thermal import ThermalModel
from repro.battery.peukert import peukert_factor
from repro.battery.charger import Charger, ChargerParams
from repro.battery.cycle_life import (
    CycleLifeCurve,
    MANUFACTURER_CURVES,
)
from repro.battery.aging import AgingModel, AgingState, OperatingConditions
from repro.battery.unit import BatteryUnit, StepResult

__all__ = [
    "BatteryParams",
    "VoltageModel",
    "ThermalModel",
    "peukert_factor",
    "Charger",
    "ChargerParams",
    "CycleLifeCurve",
    "MANUFACTURER_CURVES",
    "AgingModel",
    "AgingState",
    "OperatingConditions",
    "BatteryUnit",
    "StepResult",
]
