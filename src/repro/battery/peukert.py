"""Peukert rate-capacity effect.

Lead-acid capacity depends strongly on discharge rate: the charge
deliverable at high current is smaller than the nameplate (20-hour-rate)
capacity because acid cannot diffuse to the plates fast enough. Peukert's
empirical law captures this:

    t = H * (C / (I * H)) ** k

where ``H`` is the reference discharge duration, ``C`` the nominal
capacity, ``I`` the discharge current and ``k`` the Peukert exponent
(1.10-1.25 for VRLA). We express the effect as a multiplicative *drain
factor* on coulomb counting: discharging at current ``I`` removes
``I * peukert_factor(I) * dt`` ampere-seconds of *effective* charge, so
that integrating a constant-current discharge empties the battery in
exactly the Peukert time. The factor is 1 at or below the reference
current — gentler-than-nominal rates are not credited with extra capacity,
a common conservative convention in system simulators.
"""

from __future__ import annotations

import numpy as np

from repro.battery.params import BatteryParams
from repro.errors import ConfigurationError
from repro.numerics import scalar_pow


def peukert_factor(current: float, params: BatteryParams) -> float:
    """Effective-drain multiplier for a discharge at ``current`` amperes.

    Returns 1.0 for currents at or below the reference (20-hour) rate and
    ``(I / I_ref) ** (k - 1)`` above it.
    """
    if current < 0:
        raise ConfigurationError("peukert_factor expects a discharge current >= 0")
    i_ref = params.reference_current
    if current <= i_ref or i_ref <= 0:
        return 1.0
    return (current / i_ref) ** (params.peukert_exponent - 1.0)


def peukert_factor_array(current, i_ref, k_minus_1):
    """Vector :func:`peukert_factor` over numpy arrays.

    The ratio is one array division (IEEE-exact, like the scalar's) and
    the pow is :func:`~repro.numerics.scalar_pow`, Python's scalar float
    pow, so each element is bit-identical to the scalar function — the
    contract the fleet fast path's equivalence tests rely on. Currents at
    or below the (positive) reference rate map to 1.0.
    """
    out = np.ones(len(current))
    hot = np.nonzero((current > i_ref) & (i_ref > 0.0))[0]
    if len(hot):
        out[hot] = scalar_pow(current[hot] / i_ref[hot], k_minus_1[hot])
    return out

