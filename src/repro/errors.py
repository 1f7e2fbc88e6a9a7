"""Exception hierarchy for the BAAT reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate configuration mistakes from runtime
conditions (for example, a battery reaching its cut-off voltage).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A model or simulation was constructed with invalid parameters."""


class BatteryError(ReproError):
    """Base class for battery-related runtime errors."""


class BatteryCutoffError(BatteryError):
    """Raised when a discharge request would push the battery past its
    cut-off state of charge or minimum terminal voltage.

    The power path normally *handles* exhaustion gracefully (server
    checkpoint, zero throughput); this exception is only raised by the raw
    battery API when the caller asked for an infeasible discharge with
    ``strict=True``.
    """


class SchedulingError(ReproError):
    """Raised when a workload placement request cannot be satisfied, e.g.
    no server has enough resource headroom for a VM."""


class MigrationError(SchedulingError):
    """Raised when a VM migration is requested but cannot be performed
    (source missing the VM, destination lacking capacity, or the VM pinned).
    """


class SimulationError(ReproError):
    """Raised when the simulation engine reaches an inconsistent state,
    such as a negative power balance that the power path cannot route."""


class TraceError(ReproError):
    """Raised when a trace (solar, workload, or sensor log) is malformed,
    e.g. non-monotonic timestamps or mismatched lengths."""
