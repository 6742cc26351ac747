import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootperc.scaled import ScaledFloat, scaled_sum


def test_roundtrip_ordinary_values():
    for v in (1.0, 0.25, 0.7499, 3.5e-108, 123456.789):
        s = ScaledFloat(v)
        assert 1.0 <= s.mantissa < 2.0
        assert float(s) == pytest.approx(v, rel=1e-15)


def test_zero():
    z = ScaledFloat(0.0)
    assert z.is_zero()
    assert float(z) == 0.0
    assert z.log2() == -math.inf
    assert (z + ScaledFloat(2.0)).mantissa == 1.0


def test_survives_below_double_underflow():
    tiny = ScaledFloat.from_ln(-5000.0)
    assert float(tiny) == 0.0  # not representable as a double
    assert tiny.ln() == pytest.approx(-5000.0, rel=1e-14)
    assert not tiny.is_zero()
    doubled = tiny + tiny
    assert doubled.ln() == pytest.approx(-5000.0 + math.log(2), rel=1e-14)


def test_addition_matches_floats():
    a, b = 3.25e-5, 7.5e-7
    s = ScaledFloat(a) + ScaledFloat(b)
    assert float(s) == pytest.approx(a + b, rel=1e-15)
    # adding something 2^-1100 smaller is a no-op
    big = ScaledFloat(1.0)
    small = ScaledFloat(1.0, exponent=-2000)
    assert (big + small) == big


def test_multiplication():
    s = ScaledFloat(3.0) * ScaledFloat(7.0)
    assert float(s) == pytest.approx(21.0)
    assert float(ScaledFloat(0.5) * 4.0) == pytest.approx(2.0)
    deep = ScaledFloat.from_ln(-2000.0) * ScaledFloat.from_ln(-3000.0)
    assert deep.ln() == pytest.approx(-5000.0, rel=1e-12)


def test_ordering():
    assert ScaledFloat(1e-300) < ScaledFloat(2e-300)
    assert ScaledFloat.from_ln(-900.0) < ScaledFloat.from_ln(-800.0)
    assert ScaledFloat(0.0) < ScaledFloat.from_ln(-10000.0)


def test_scaled_sum():
    vals = [ScaledFloat(0.125)] * 8
    assert float(scaled_sum(vals)) == pytest.approx(1.0, rel=1e-15)


def test_rejects_negative():
    with pytest.raises(ValueError):
        ScaledFloat(-1.0)
    with pytest.raises(ValueError):
        ScaledFloat(1.0) * (-2.0)


# log values down to -5000 reach far below the double range (ln 1e-308
# is about -709); the tolerance is a few ulps of the log magnitudes
LN_VALUES = st.floats(-5000.0, 700.0)


def _close(got, want, *logs):
    return abs(got - want) <= 8 * 2.0**-52 * (1.0 + sum(map(abs, logs)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(LN_VALUES, LN_VALUES)
def test_arithmetic_matches_log_space_references(x, y):
    a, b = ScaledFloat.from_ln(x), ScaledFloat.from_ln(y)
    assert _close((a + b).ln(), float(np.logaddexp(x, y)), x, y)
    assert _close((a * b).ln(), x + y, x, y)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(LN_VALUES, st.floats(min_value=0.0, max_value=1e300))
def test_scalar_product_matches_log_space_reference(x, c):
    got = ScaledFloat.from_ln(x) * c
    if c == 0.0:
        assert got.is_zero()
    else:
        assert _close(got.ln(), x + math.log(c), x, math.log(c))
