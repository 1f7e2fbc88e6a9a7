"""Phase timers: wall-clock instrumentation feeding the metric registry.

Two forms:

- :class:`StepPhaseTimers` — pre-resolved histogram handles for the
  engine's four step phases (control, power-path, VM advance, record)
  and, for the fleet stepper, the power phase's kernels
  (``phase/power/<kernel>``). The engine and the fleet power path time
  inline with ``perf_counter`` stamps guarded on ``REGISTRY.enabled``;
  this class only removes the per-step name lookup.
- :func:`time_phase` — a context manager for coarser, non-hot-loop
  phases (campaign cells, experiment sweeps).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Tuple

from repro.obs.metrics import Histogram, MetricRegistry

#: Engine step phases, in execution order.
STEP_PHASES = ("control", "power", "advance", "record")

#: The fleet stepper's power-phase kernels, in execution order; ``derived``
#: is the step's shared aging-derived electrical pass.
POWER_KERNELS = (
    "derived",
    "restart",
    "demand",
    "allocate",
    "discharge",
    "charge",
    "battery_advance",
    "server_advance",
    "observe",
)


class StepPhaseTimers:
    """Histogram handles for the engine's per-step phases (seconds).

    With ``power_kernels``, ``power_kernels`` holds one
    ``phase/power/<kernel>`` handle per :data:`POWER_KERNELS` entry, in
    that order; only the fleet stepper times kernels, so they are opt-in.
    """

    __slots__ = ("control", "power", "advance", "record", "power_kernels")

    def __init__(self, registry: MetricRegistry, power_kernels: bool = False):
        self.control: Histogram = registry.histogram("phase/control")
        self.power: Histogram = registry.histogram("phase/power")
        self.advance: Histogram = registry.histogram("phase/advance")
        self.record: Histogram = registry.histogram("phase/record")
        self.power_kernels: Tuple[Histogram, ...] = tuple(
            registry.histogram(f"phase/power/{name}")
            for name in (POWER_KERNELS if power_kernels else ())
        )


@contextmanager
def time_phase(registry: MetricRegistry, name: str) -> Iterator[None]:
    """Time a block into ``phase/<name>`` when the registry is enabled."""
    if not registry.enabled:
        yield
        return
    hist = registry.histogram(f"phase/{name}")
    t0 = perf_counter()
    try:
        yield
    finally:
        hist.observe(perf_counter() - t0)
