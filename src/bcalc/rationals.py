"""Exact complex-rational scalars.

All exponents and exact coefficients in the package are Gaussian rationals:
pairs of ``fractions.Fraction``.  Equality is decidable, arithmetic is exact,
and the total output order used everywhere is lexicographic in (re, im).

No float is rounded into a Fraction by the library: ``as_fraction`` refuses
a float, and the root finder stores an inexact root as the rational nearest
its exact Newton refinement (to 2^-128), never as the float it started from.
``ComplexRational.rounded`` is the one rounding rule: the root finder applies
it to each cluster centre, and ``model_inverse`` to its coefficients when a
root is inexact.  ``ComplexRational.from_complex`` rounds a float by the same
rule for callers outside the library; nothing in bcalc calls it.  This module
holds the only JSON codec for a scalar
(``ComplexRational.to_jsonable``/``from_jsonable``).
"""
from __future__ import annotations

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


class ComplexRational(Record):
    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        _set(self, "re", re)
        _set(self, "im", im)

    @classmethod
    def of(cls, value, im=None) -> "ComplexRational":
        if im is not None:
            return cls(as_fraction(value), as_fraction(im))
        if isinstance(value, ComplexRational):
            return value
        return cls(as_fraction(value))

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexRational":
        return cls(Fraction(float(z.real)), Fraction(float(z.imag))).rounded()

    def rounded(self) -> "ComplexRational":
        """The closest parts with denominators at most ``_FLOAT_RATIONALIZE_DEN``."""
        return ComplexRational(self.re.limit_denominator(_FLOAT_RATIONALIZE_DEN),
                               self.im.limit_denominator(_FLOAT_RATIONALIZE_DEN))

    def to_jsonable(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    @classmethod
    def from_jsonable(cls, data) -> "ComplexRational":
        """Read ``"p/q"``, a number, or ``{"re": ..., "im": ...}`` (``im`` optional)."""
        if isinstance(data, dict):
            return cls(as_fraction(data["re"]), as_fraction(data.get("im", 0)))
        return cls(as_fraction(data))

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def key(self):
        return (self.re, self.im)

    def as_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __add__(self, other) -> "ComplexRational":
        o = ComplexRational.of(other)
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexRational":
        o = ComplexRational.of(other)
        return ComplexRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other) -> "ComplexRational":
        return ComplexRational.of(other) - self

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other) -> "ComplexRational":
        o = ComplexRational.of(other)
        return ComplexRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexRational":
        o = ComplexRational.of(other)
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
        )

    def __rtruediv__(self, other) -> "ComplexRational":
        return ComplexRational.of(other) / self

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = ComplexRational()
ONE = ComplexRational(Fraction(1))
