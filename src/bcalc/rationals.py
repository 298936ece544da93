"""Exact complex-rational scalars, on the package's one Gaussian-integer core.

All exponents and exact coefficients in the package are Gaussian rationals,
each held in one normal form: the ints (a, b, d) of (a + bi)/d, with
gcd(a, b, d) = 1 and d > 0.  Their arithmetic is written once, on (re, im)
int pairs (``_gmul``, ``_gadd``, ``_gsub``, ``_gquo``, ``_ggcd``), the root
finder's polynomial core too.  ``re`` and ``im`` build the parts as
``Fraction``s on each read, so printing reads the ints (``_ratio``); the
output order used everywhere is lexicographic in (re, im), which the
index-set sorts compare as ints over a common denominator.

No float is rounded into a Fraction by the library: ``as_fraction`` refuses
a float, and the root finder stores an inexact root as the rational nearest
its exact Newton refinement (to 2^-128), never as the float it started from.
``ComplexRational.rounded`` is the one rounding rule: the root finder applies
it to each cluster centre, and ``model_inverse`` to its coefficients when a
root is inexact.  ``ComplexRational.from_complex`` rounds a float by the same
rule for callers outside the library; nothing in bcalc calls it.  This module
holds the only JSON codec for a scalar (``to_jsonable``/``from_jsonable``).
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

from .records import Record, _set

_FLOAT_RATIONALIZE_DEN = 10**12
# Python's own int-string limit; Fraction would expand a larger decimal
# exponent into an exact integer, at a cost that grows without bound
_STR_LIMIT = 4300


def as_fraction(value) -> Fraction:
    """Read an int, Fraction, or decimal/ratio string exactly as a Fraction.

    A float has no exact value here and is refused with ``ValueError``.  A
    bool is not a number here.  A string longer than ``_STR_LIMIT``
    characters, or with a decimal exponent above it in magnitude, is refused
    with ``ValueError`` before ``Fraction`` sees it.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValueError(f"cannot read the float {value!r} as an exact rational")
    if isinstance(value, str):
        exponent = re.search(r"[eE]([-+]?[\d_]+)", value)
        if len(value) > _STR_LIMIT or exponent and abs(int(exponent.group(1))) > _STR_LIMIT:
            raise ValueError(
                f"scalar {value[:20]!r}... is longer than {_STR_LIMIT} characters "
                f"or has a decimal exponent above {_STR_LIMIT} in magnitude"
            )
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


# Gaussian integers: (re, im) pairs of ints


def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gadd(a, b):
    return a[0] + b[0], a[1] + b[1]


def _gsub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _gquo(a, b):
    """The Gaussian integer nearest to a / b: the exact quotient when b divides a."""
    if b[1]:
        n = b[0] * b[0] + b[1] * b[1]
        a = (a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1])
    else:  # a real divisor, as in every subresultant step on real input, is not squared
        n = b[0]
    return (2 * a[0] + n) // (2 * n), (2 * a[1] + n) // (2 * n)


def _ggcd(a, b):
    while b != (0, 0):
        a, b = b, _gsub(a, _gmul(_gquo(a, b), b))
    return a


def _ratio(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, printed from the ints."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class ComplexRational(Record):
    """(a + bi)/d in ints, gcd(a, b, d) = 1, d > 0, from int or Fraction parts: (re + i im)/d."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0, d=1):
        n = math.lcm(re.denominator, im.denominator)
        a, b, d = re.numerator * n // re.denominator, im.numerator * n // im.denominator, n * d
        if not d:
            raise ZeroDivisionError("division by zero ComplexRational")
        g = math.gcd(a, b, d) if d > 0 else -math.gcd(a, b, d)
        _set(self, "a", a // g)
        _set(self, "b", b // g)
        _set(self, "d", d // g)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @classmethod
    def of(cls, value, im=None) -> "ComplexRational":
        if im is None and isinstance(value, ComplexRational):
            return value
        return cls(as_fraction(value), 0 if im is None else as_fraction(im))

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexRational":
        return cls(Fraction(float(z.real)), Fraction(float(z.imag))).rounded()

    def rounded(self) -> "ComplexRational":
        """The closest parts with denominators at most ``_FLOAT_RATIONALIZE_DEN``."""
        return ComplexRational(self.re.limit_denominator(_FLOAT_RATIONALIZE_DEN),
                               self.im.limit_denominator(_FLOAT_RATIONALIZE_DEN))

    def to_jsonable(self) -> dict:
        return {"re": _ratio(self.a, self.d), "im": _ratio(self.b, self.d)}

    @classmethod
    def from_jsonable(cls, data) -> "ComplexRational":
        """Read ``"p/q"``, a number, or ``{"re": ..., "im": ...}`` (``im`` optional)."""
        if isinstance(data, dict):
            return cls(as_fraction(data["re"]), as_fraction(data.get("im", 0)))
        return cls(as_fraction(data))

    @property
    def is_real(self) -> bool:
        return self.b == 0

    def key(self):
        return (self.re, self.im)

    def as_complex(self) -> complex:
        return complex(self.a / self.d) + 1j * complex(self.b / self.d)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __add__(self, other) -> "ComplexRational":
        o = ComplexRational.of(other)
        num = _gadd((self.a * o.d, self.b * o.d), (o.a * self.d, o.b * self.d))
        return ComplexRational(*num, self.d * o.d)

    def __sub__(self, other) -> "ComplexRational":
        return self + -ComplexRational.of(other)

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.a, -self.b, self.d)

    def __mul__(self, other) -> "ComplexRational":
        o = ComplexRational.of(other)
        return ComplexRational(*_gmul((self.a, self.b), (o.a, o.b)), self.d * o.d)

    def __truediv__(self, other) -> "ComplexRational":
        o = ComplexRational.of(other)
        num = _gmul((self.a * o.d, self.b * o.d), (o.a, -o.b))
        return ComplexRational(*num, self.d * (o.a * o.a + o.b * o.b))

    def __str__(self) -> str:
        if self.b == 0:
            return _ratio(self.a, self.d)
        sign = "+" if self.b >= 0 else "-"
        return f"{_ratio(self.a, self.d)}{sign}{_ratio(abs(self.b), self.d)}i"


ZERO = ComplexRational()
ONE = ComplexRational(1)
