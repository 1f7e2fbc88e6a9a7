"""`scalar_pow` is Python's scalar float ``**``, bit for bit.

The fleet stepper's bit-compatibility rests on every per-element pow
giving the floats the scalar models' ``b ** e`` gives; these properties
compare bit patterns, so a helper that rounded one operand differently
(numpy's array ``pow``, ``exp(e * log(b))``) fails them.
"""

from __future__ import annotations

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.params import BatteryParams
from repro.battery.peukert import peukert_factor, peukert_factor_array
from repro.battery.voltage import OCV_FADE_EXPONENT
from repro.datacenter.server import DVFS_POWER_EXPONENT
from repro.numerics import scalar_pow

PARAMS = BatteryParams()
PEUKERT_K_MINUS_1 = PARAMS.peukert_exponent - 1.0
#: The exponents the fleet kernels raise to: OCV fade, active-mass
#: Arrhenius (sqrt) and rate stress, Peukert, DVFS power.
EXPONENTS = (OCV_FADE_EXPONENT, 0.5, 0.25, PEUKERT_K_MINUS_1, DVFS_POWER_EXPONENT)

SMALLEST_SUBNORMAL = 5e-324
LARGEST_SUBNORMAL = sys.float_info.min - SMALLEST_SUBNORMAL

bases = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=4.0, allow_subnormal=True),
        st.sampled_from((0.0, SMALLEST_SUBNORMAL, LARGEST_SUBNORMAL, 1.0)),
    ),
    max_size=64,
)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestScalarPow:
    @settings(max_examples=200, deadline=None)
    @given(base=bases, exponent=st.sampled_from(EXPONENTS))
    def test_array_base_equals_scalar_pow(self, base, exponent):
        want = [b ** exponent for b in base]
        assert bits(scalar_pow(np.array(base), exponent)) == bits(want)
        assert bits(scalar_pow(base, exponent)) == bits(want)

    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(st.floats(min_value=-3.0, max_value=6.0), max_size=64))
    def test_powers_of_two_equal_scalar_pow(self, x):
        assert bits(scalar_pow(2.0, np.array(x))) == bits([2.0 ** v for v in x])

    @settings(max_examples=100, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=4.0, allow_subnormal=True),
                st.floats(min_value=0.0, max_value=0.5),
            ),
            max_size=64,
        )
    )
    def test_elementwise_exponents(self, pairs):
        base = np.array([b for b, _ in pairs])
        exponent = np.array([e for _, e in pairs])
        assert bits(scalar_pow(base, exponent)) == bits([b ** e for b, e in pairs])

    def test_numpy_scalar_operand_is_the_python_float(self):
        x = np.array([0.5, 1.5])
        assert bits(scalar_pow(np.float64(2.0), x)) == bits([2.0 ** 0.5, 2.0 ** 1.5])
        assert scalar_pow([], 0.5).shape == (0,)


@settings(max_examples=100, deadline=None)
@given(currents=st.lists(st.floats(min_value=0.0, max_value=70.0), max_size=32))
def test_peukert_array_equals_scalar(currents):
    n = len(currents)
    got = peukert_factor_array(
        np.array(currents, dtype=float),
        np.full(n, PARAMS.reference_current),
        np.full(n, PEUKERT_K_MINUS_1),
    )
    assert bits(got) == bits([peukert_factor(c, PARAMS) for c in currents])
