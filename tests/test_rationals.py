"""``ComplexRational`` against a reference on pairs of ``Fraction``s.

The reference is the textbook arithmetic of (re, im) pairs, written here
without the library, so the scalars' own form (how the parts are held and
normalized) is checked only through what they return.
"""
import json
import struct
from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

from bcalc.rationals import ComplexRational as CR


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_div(x, y):
    den = y[0] * y[0] + y[1] * y[1]
    if not den:
        raise ZeroDivisionError
    return (x[0] * y[0] + x[1] * y[1]) / den, (x[1] * y[0] - x[0] * y[1]) / den


def ref_str(x):
    if x[1] == 0:
        return str(x[0])
    return f"{x[0]}{'+' if x[1] >= 0 else '-'}{abs(x[1])}i"


def pair(z):
    return z.re, z.im


# small parts, so zero, equal parts and shared denominators are common, and
# parts with numerators and denominators far past 2^53, so float rounding shows
small = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
large = st.builds(F, st.integers(-2**90, 2**90), st.integers(1, 2**80))
parts = st.one_of(small, small, large)
pairs = st.tuples(parts, parts)


@given(pairs, pairs)
def test_arithmetic_matches_the_fraction_pair_reference(x, y):
    zx, zy = CR(*x), CR(*y)
    assert pair(zx) == x
    assert pair(zx + zy) == ref_add(x, y)
    assert pair(zx - zy) == ref_sub(x, y)
    assert pair(zx * zy) == ref_mul(x, y)
    assert pair(-zx) == (-x[0], -x[1])
    if y == (0, 0):
        with pytest.raises(ZeroDivisionError):
            zx / zy
    else:
        assert pair(zx / zy) == ref_div(x, y)
    assert bool(zx) == (x != (0, 0))
    assert zx.is_real == (x[1] == 0)


@given(pairs, st.integers(-5, 5))
def test_ints_and_fractions_mix_in_on_the_right(x, n):
    z = CR(*x)
    assert pair(z + n) == ref_add(x, (n, 0))
    assert pair(z - F(n, 3)) == ref_sub(x, (F(n, 3), 0))
    assert pair(z * n) == ref_mul(x, (n, 0))
    if n:
        assert pair(z / n) == ref_div(x, (n, 0))
    else:
        with pytest.raises(ZeroDivisionError):
            z / n


@given(pairs, st.integers(1, 7))
def test_equal_values_built_different_ways_are_equal_and_hash_equal(x, k):
    z = CR(*x)
    scaled = CR(F(x[0].numerator * k, x[0].denominator * k),
                F(x[1].numerator * k, x[1].denominator * k))
    through = (z * k + k) / k - 1  # the same value after exact arithmetic
    parsed = CR.of(str(x[0]), str(x[1]))
    for w in (scaled, through, parsed, CR.of(z)):
        assert w == z and not w != z
        assert hash(w) == hash(z)
    assert len({z, scaled, through, parsed}) == 1


def test_equal_parts_as_ints_or_fractions():
    assert CR(F(2, 4)) == CR(F(1, 2))
    assert hash(CR(F(2, 4))) == hash(CR(F(1, 2)))
    for re, im in ((1, -2), (0, 0), (-3, 5)):
        a, b = CR(re, im), CR(F(re), F(im))
        assert a == b and hash(a) == hash(b)
        assert str(a) == str(b) and a.to_jsonable() == b.to_jsonable()
    assert CR() == CR(0) == CR(F(0), F(0)) == CR.of(0)
    assert CR(1, 2) != CR(2, 1) and CR(F(1, 2)) != CR(F(1, 3))


@given(pairs)
def test_str_and_json_round_trip(x):
    z = CR(*x)
    assert str(z) == ref_str(x)
    data = z.to_jsonable()
    assert data == {"re": str(x[0]), "im": str(x[1])}
    assert CR.from_jsonable(json.loads(json.dumps(data))) == z
    assert CR.from_jsonable(str(x[0])) == CR(x[0])


@given(pairs)
def test_as_complex_is_bit_equal_to_the_parts_as_floats(x):
    want = complex(float(x[0])) + 1j * complex(float(x[1]))
    got = CR(*x).as_complex()
    assert struct.pack("<dd", got.real, got.imag) == struct.pack("<dd", want.real, want.imag)
