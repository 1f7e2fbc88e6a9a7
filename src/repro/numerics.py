"""Elementwise math that is bit-identical to Python's scalar operators.

numpy's array ``**`` may take a vectorised kernel that rounds some
results differently from Python's float ``**``; the battery and server
models compute with the scalar operator, and the fleet stepper must
match them bit for bit (see :mod:`repro.sim.fleet`). :func:`scalar_pow`
keeps the scalar operator and drops the Python loop around it.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np


def scalar_pow(base, exponent) -> np.ndarray:
    """``np.array([b ** e for b, e in ...])``, bit for bit, at C speed.

    Either operand may be one float (broadcast) or a 1-D array or list;
    two sequences must have the same length. Builtin :func:`pow` on
    Python floats is the same C ``float_pow`` that ``b ** e`` calls, and
    mapping it into :func:`numpy.fromiter` runs no bytecode per element
    and builds no intermediate list.
    """
    if isinstance(base, np.ndarray):
        base = base.tolist()
    if isinstance(exponent, np.ndarray):
        exponent = exponent.tolist()
    # float() turns a numpy scalar into a Python float: numpy's scalar
    # power is another kernel.
    if isinstance(base, (int, float)):
        n = len(exponent)
        base = repeat(float(base))
    elif isinstance(exponent, (int, float)):
        n = len(base)
        exponent = repeat(float(exponent))
    else:
        n = len(base)
    return np.fromiter(map(pow, base, exponent), float, n)
