"""b-differential operators on the half-line and their calculus bookkeeping.

An operator sum_j a_j(x) (x d/dx)^j is stored with truncated power series
coefficients over exact complex rationals.  Freezing the coefficients at
x = 0 gives the indicial polynomial; its roots with multiplicities form the
boundary spectrum, whose entries (z, l), l < multiplicity, govern which
x^z log^l x terms can appear in solutions.  A root is exact when it is a
Gaussian rational, verified on the exact polynomial; otherwise it is the
rational nearest (denominator at most 10^12) to the root refined by exact
Newton steps to 2^-128.  No float is rounded into a stored root:
``ComplexRational.from_complex`` is called nowhere.

A weight parameter splits the spectrum into left/right boundary index sets
and selects one model inverse, realized here by residue (Mellin) inversion:
the kernel acts as (Qv)(x) = int k(x'/x) v(x') dx'/x'.  The orientation
convention (which half plane feeds which side, sign of the log argument) is
pinned by the first-order model: p(z) = z + c with weight above -Re c must
produce k(s) = s^c on the s < 1 side, and is enforced numerically by
``apply_check``.

Descriptor-level composition/action implement the index bookkeeping of the
full calculus, including the Neumann parametrix iteration.

The exact bookkeeping loads no NumPy, and neither does the float root
finder for indicial factors of degree two or more (``rootfinder``,
imported when such a factor first appears); ``apply_check`` and
``hs_front_face_criterion`` import NumPy and ``numeric`` when they run.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Optional

from .errors import (
    CompositionUndefined,
    InadmissibleWeight,
    NotBElliptic,
    QuadratureError,
    SchemaError,
)
from .indexsets import EMPTY, IndexEntry, IndexSet
from .rationals import ONE, ZERO, ComplexRational, as_fraction
from .records import Record, _set


# ---------------------------------------------------------------------------
# exact polynomial core over the Gaussian integers: a coefficient is an
# (re, im) pair of ints, a polynomial a tuple of them, ascending
# ---------------------------------------------------------------------------


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


def _primitive(p):
    """p (nonzero) divided by a Gaussian gcd of its coefficients."""
    n = math.gcd(*[x for c in p for x in c])  # the rational-integer part, fast
    p = tuple([(a // n, b // n) for a, b in p])
    g = (0, 0)
    for c in p:
        g = _ggcd(c, g)
    return tuple([_gquo(c, g) for c in p])


def _gaussian(poly):
    """The Z[i] polynomial of an exact one: denominators cleared once."""
    den = math.lcm(*[x.denominator for c in poly for x in (c.re, c.im)])
    return tuple([(int(c.re * den), int(c.im * den)) for c in poly])


def _prem(p, q):
    """The pseudo-remainder of p by q: lc(q)^(deg p - deg q + 1) p mod q."""
    rem = list(p)
    dq = len(q) - 1
    while len(rem) > dq:
        c = rem.pop()
        rem = [_gmul(q[-1], x) for x in rem]
        for j, y in enumerate(q[:-1], len(rem) - dq):
            rem[j] = _gsub(rem[j], _gmul(c, y))
    while rem and rem[-1] == (0, 0):
        rem.pop()
    return tuple(rem)


def _pquo(p, q):
    """The quotient p / q, for q dividing p."""
    rem = list(p)
    dq = len(q) - 1
    quo = []
    while len(rem) > dq:
        c = _gquo(rem.pop(), q[-1])
        quo.append(c)
        for j, y in enumerate(q[:-1], len(rem) - dq):
            rem[j] = _gsub(rem[j], _gmul(c, y))
    return tuple(quo[::-1])


def _gpow(a, k):
    out = (1, 0)
    for _ in range(k):
        out = _gmul(out, a)
    return out


def _pgcd(p, q):
    """The primitive gcd of primitive p and q: the subresultant PRS of Knuth,
    TAOCP vol. 2, 4.6.1, Algorithm C (delta is 0 only in step one, where h is 1)."""
    if len(p) < len(q):
        p, q = q, p
    g = h = (1, 0)
    while q:
        delta = len(p) - len(q)
        d = _gmul(g, _gpow(h, delta))
        r = tuple([_gquo(c, d) for c in _prem(p, q)])
        p, q = q, r
        g = p[-1]
        h = _gquo(_gpow(g, delta), _gpow(h, delta - 1))
    return _primitive(p)


def _squarefree(p):
    """Musser's square-free decomposition of a primitive p of degree >= 1,
    [(primitive factor, multiplicity)], by gcds and exact quotients only: the
    float root finder then sees only simple roots (a double root would be
    smeared by ~1e-8 in floating point, far beyond the cluster tolerance)."""
    c = _pgcd(p, _primitive(tuple([(i * a, i * b) for i, (a, b) in enumerate(p) if i])))
    w = _pquo(p, c)
    out = []
    i = 1
    while len(c) > 1:
        y = _pgcd(w, c)
        if len(w) > len(y):
            out.append((_pquo(w, y), i))
        c = _pquo(c, y)
        w = y
        i += 1
    return out + [(w, i)]


_CLUSTER_TOL = 1e-9


class Root(Record):
    __slots__ = ("value", "multiplicity", "exact")


def _scaled_horner(factor, w, bits):
    """2^(nP) factor(w / 2^P) and 2^((n-1)P) factor'(w / 2^P), P = ``bits``, by Horner."""
    f, df = factor[-1], (0, 0)
    for k, c in enumerate(reversed(factor[:-1]), 1):
        df = _gadd(_gmul(df, w), f)
        f = _gadd(_gmul(f, w), (c[0] << k * bits, c[1] << k * bits))
    return f, df


def _vanishes_at(factor, w, d):
    """Whether factor(w / d) = 0: the Horner sum of c_k w^k d^(n-k) over the
    Gaussian integers, d nonzero."""
    f, scale = factor[-1], (1, 0)
    for c in reversed(factor[:-1]):
        scale = _gmul(scale, d)
        f = _gadd(_gmul(f, w), _gmul(c, scale))
    return f == (0, 0)


def _exact_ratio(factor, z):
    """factor(z) / factor'(z) at the float z, from exact Horner sums over the
    Gaussian integers, rounded once per part."""
    (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    bits = max(xd, yd).bit_length() - 1  # the denominators are powers of two
    w = (xn << bits + 1 - xd.bit_length(), yn << bits + 1 - yd.bit_length())
    f, df = _scaled_horner(factor, w, bits)
    num = _gmul(f, (df[0], -df[1]))  # f / df = 2^bits factor(z) / factor'(z)
    den = (df[0] * df[0] + df[1] * df[1]) << bits
    return complex(num[0] / den, num[1] / den)


def _refine(factor, r, radius):
    """(z, P): the root of a primitive factor near the float r as z / 2^P.

    z is r refined by Newton's method on the exact factor, in Gaussian
    integers scaled by 2^P, to absolute precision 2^-P with P at least 128
    and at least eight bits beyond the size of a_n.  It stops early at a step
    longer than ``radius``, which leaves r's root.
    """
    lead = factor[-1]
    target = max(128, max(abs(lead[0]), abs(lead[1])).bit_length() + 8)
    bits = 64  # beyond the float's own precision; doubled while below target
    z = (round(Fraction(r.real) * (1 << bits)), round(Fraction(r.imag) * (1 << bits)))
    for _ in range(target.bit_length() + 8):
        f, df = _scaled_horner(factor, z, bits)
        if df == (0, 0):
            break
        step = _gquo(f, df)
        if max(abs(step[0]), abs(step[1])).bit_length() > bits + math.frexp(radius)[1]:
            break
        z = _gsub(z, step)
        if bits < target:
            shift = min(bits, target - bits)
            z = (z[0] << shift, z[1] << shift)
            bits += shift
        elif step == (0, 0):
            break
    return z, bits


def _squarefree_roots(factor):
    """Roots of a primitive square-free factor, each exact or marked inexact.

    A degree-one factor is solved exactly, others by ``rootfinder.aberth``
    (imported when first needed), and each float root r is refined by
    ``_refine`` to z within 2^-128.  A Gaussian-rational root of a primitive
    factor has a denominator dividing its leading coefficient a_n, so r gets
    one candidate w / a_n, w = round(a_n z).  It is kept if it is closer to
    r than half the distance to the nearest other float root and the factor
    vanishes there exactly; otherwise z itself is returned, inexact.  Monic
    coefficients beyond the float range, and a factor on which the float
    iteration does not converge, are refused with ``ValueError``.
    """
    deg = len(factor) - 1
    lead = factor[-1]
    a_n = ComplexRational.of(*lead)
    if deg == 1:
        return [(-ComplexRational.of(*factor[0]) / a_n, True)]
    from . import rootfinder

    try:
        numeric = rootfinder.aberth(factor, lambda w: _exact_ratio(factor, w))
    except OverflowError:
        raise ValueError(f"a coefficient of the degree-{deg} indicial factor is "
                         f"too large for the float root finder") from None
    if numeric is None:
        raise ValueError(f"the float root finder did not converge on the degree-{deg} "
                         f"indicial factor")
    out = []
    for i, r in enumerate(numeric):
        radius = min(abs(r - s) for j, s in enumerate(numeric) if j != i) / 2
        z, bits = _refine(factor, r, radius)
        w = _gquo(_gmul(lead, z), (1 << bits, 0))
        cand = ComplexRational.of(*w) / a_n
        if abs(cand.as_complex() - r) < radius and _vanishes_at(factor, w, lead):
            out.append((cand, True))
        else:
            scale = 1 << bits
            out.append((ComplexRational(Fraction(z[0], scale), Fraction(z[1], scale)), False))
    return out


def _cluster_numeric(roots):
    """Greedy clustering of refined inexact roots within ``_CLUSTER_TOL``; each
    cluster centre is rounded once, by ``ComplexRational.rounded``."""
    roots = sorted(roots, key=lambda rm: rm[0].key())
    clusters = []
    for z, mult in roots:
        if clusters and abs((z - clusters[-1][0][-1]).as_complex()) <= _CLUSTER_TOL:
            clusters[-1][0].append(z)
            clusters[-1][1].append(mult)
        else:
            clusters.append(([z], [mult]))
    out = []
    for zs, mults in clusters:
        total = sum(mults)
        center = ComplexRational(sum(z.re * m for z, m in zip(zs, mults)) / total,
                                 sum(z.im * m for z, m in zip(zs, mults)) / total)
        out.append(Root(center.rounded(), total, False))
    return out


#: Most bits, and most degree^2 x bits, of a polynomial ``polynomial_roots``
#: will factor, with bits the sum of 1 + the bit length of each coefficient
#: over the Gaussian integers: the gcds of the square-free step cost about
#: degree^2 x bits, and the Gaussian gcd of two coefficients about bits^2.
_BITS_BUDGET = 50_000
_DEGREE_BITS_BUDGET = 2_000_000


def polynomial_roots(poly) -> tuple:
    """Roots with multiplicities of an exact polynomial, leading coefficient nonzero.

    Square-free factors over the Gaussian integers first; each exact root is
    found by the a_n rule of ``_squarefree_roots``, and the refined inexact
    roots left are clustered at tolerance 1e-9, each cluster stored as the
    rational nearest its centre with denominator at most 10^12.  A
    polynomial beyond ``_BITS_BUDGET`` or ``_DEGREE_BITS_BUDGET`` is refused
    with ``ValueError`` before any gcd is taken.
    """
    if len(poly) < 2:
        return ()
    p = _gaussian(poly)
    deg = len(p) - 1
    bits = sum(max(abs(a).bit_length(), abs(b).bit_length()) + 1 for a, b in p)
    if bits > _BITS_BUDGET or deg * deg * bits > _DEGREE_BITS_BUDGET:
        raise ValueError(f"the degree-{deg} indicial polynomial has {bits} coefficient bits "
                         f"(degree^2 x bits = {deg * deg * bits}), beyond the budget of "
                         f"{_BITS_BUDGET} bits and {_DEGREE_BITS_BUDGET} for degree^2 x bits")
    exact_roots, numeric_roots = [], []
    for factor, mult in _squarefree(_primitive(p)):
        for value, is_exact in _squarefree_roots(factor):
            if is_exact:
                exact_roots.append(Root(value, mult, True))
            else:
                numeric_roots.append((value, mult))
    roots = exact_roots + _cluster_numeric(numeric_roots)
    return tuple(sorted(roots, key=lambda r: r.value.key()))


# ---------------------------------------------------------------------------
# operators, indicial data, boundary spectrum
# ---------------------------------------------------------------------------


class BDiffOp(Record):
    """sum_j a_j(x) (x d/dx)^j with truncated power-series coefficients."""

    # coeffs[j] = series of a_j, ascending, ComplexRational; trunc = its truncation degree
    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs: tuple, trunc: int):
        if not coeffs:
            raise ValueError("an operator needs at least one coefficient")
        if not any(coeffs[-1]):
            raise ValueError("leading coefficient series is identically zero")
        if type(trunc) is not int or trunc < 0:
            raise ValueError(f"truncation degree must be a non-negative integer, got {trunc!r}")
        _set(self, "coeffs", coeffs)
        _set(self, "trunc", trunc)

    @classmethod
    def from_lists(cls, coeff_lists, trunc: Optional[int] = None) -> "BDiffOp":
        series = tuple(
            [tuple([ComplexRational.of(c) for c in lst]) or (ZERO,) for lst in coeff_lists]
        )
        if trunc is None:
            trunc = max(len(s) - 1 for s in series)
        return cls(series, trunc)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def constant_term(self, j: int) -> ComplexRational:
        s = self.coeffs[j]
        return s[0] if s else ZERO

    @property
    def has_constant_coefficients(self) -> bool:
        return all(all(not c for c in s[1:]) for s in self.coeffs)

    def to_jsonable(self) -> dict:
        # a real coefficient is written as a bare "p/q" string
        coeffs = [[str(c) if c.is_real else c.to_jsonable() for c in s] for s in self.coeffs]
        return {"coeffs": coeffs, "trunc": self.trunc}

    @classmethod
    def from_jsonable(cls, data: dict) -> "BDiffOp":
        coeffs = data["coeffs"]
        if not isinstance(coeffs, list) or not all(isinstance(s, list) for s in coeffs):
            raise SchemaError(f"'coeffs' must be a list of coefficient lists, got {coeffs!r}")
        series = [[ComplexRational.from_jsonable(c) for c in s] for s in coeffs]
        return cls.from_lists(series, data.get("trunc"))


class IndicialData(Record):
    """Indicial polynomial sum a_j(0) z^j, its roots, and the boundary spectrum.

    The spectrum is the raw entry list {(z, l) : 0 <= l < multiplicity of z};
    it is not completed (it is not an index set).
    """

    __slots__ = ("polynomial", "roots", "spec_b")  # roots of Root, spec_b of IndexEntry


def indicial(op: BDiffOp) -> IndicialData:
    """Freeze coefficients at x = 0 and factor the resulting polynomial."""
    if not op.constant_term(op.order):
        raise NotBElliptic("leading coefficient vanishes at x = 0")
    poly = tuple([op.constant_term(j) for j in range(op.order + 1)])
    roots = polynomial_roots(poly)
    assert sum(r.multiplicity for r in roots) == op.order
    entries = [
        IndexEntry(r.value, l) for r in roots for l in range(r.multiplicity)
    ]
    return IndicialData(poly, roots, tuple(sorted(entries, key=IndexEntry.sort_key)))


_WEIGHT_GAP = 1e-9


def _check_admissible(ind: IndicialData, gamma: Fraction):
    """The real weight selecting a model inverse must avoid all root real parts.

    An exact root is compared by equality, an inexact one within ``_WEIGHT_GAP``.
    """
    for r in ind.roots:
        if abs(r.value.re - gamma) <= (0 if r.exact else _WEIGHT_GAP):
            relation = "equals" if r.exact else f"is within {_WEIGHT_GAP} of"
            raise InadmissibleWeight(f"weight {gamma} {relation} root Re z = {r.value.re}")


def split_spec(ind: IndicialData, gamma) -> tuple:
    """Split the boundary spectrum by a weight into (E_lb, E_rb).

    Roots with Re z above the weight feed the left-boundary set as they
    stand; roots below feed the right-boundary set negated.  Both sets are
    completed.  The orientation reproduces the first-order model: a single
    root at -c with weight above -Re c gives E_lb empty, E_rb = {(c, 0)}.
    """
    gamma = as_fraction(gamma)
    _check_admissible(ind, gamma)
    lb, rb = [], []
    for r in ind.roots:
        entries = [(r.value, l) for l in range(r.multiplicity)]
        if r.value.re > gamma:
            lb.extend(entries)
        else:
            rb.extend([(-z, l) for z, l in entries])
    return IndexSet.from_entries(lb), IndexSet.from_entries(rb)


# ---------------------------------------------------------------------------
# model inverse by residue inversion
# ---------------------------------------------------------------------------


class KernelTerm(Record):
    """One term of a model kernel, in the ratio variable s = x'/x.

    side "rb": coeff * s^z * log^p(1/s) on 0 < s < 1;
    side "lb": coeff * (1/s)^z * log^p(s) on s > 1 (mirrored in 1/s).
    """

    # the cache _floats: evaluate's float forms of coeff and of the power of s
    # (z on the rb side, -z on the lb side), converted once per term, not per call
    __slots__ = ("z", "p", "side", "coeff", "_floats")

    def __init__(self, z: ComplexRational, p: int, side: str, coeff: ComplexRational):
        if type(p) is not int or p < 0:
            raise ValueError(f"log power must be a non-negative integer, got {p!r}")
        if side not in ("lb", "rb"):
            raise ValueError(f"kernel term side must be 'lb' or 'rb', got {side!r}")
        _set(self, "z", z)
        _set(self, "p", p)
        _set(self, "side", side)
        _set(self, "coeff", coeff)

    def evaluate(self, s: float) -> complex:
        if self.side == "rb":
            if not 0.0 < s < 1.0:
                return 0.0
            base = math.log(1.0 / s)
        else:
            if s <= 1.0:
                return 0.0
            base = math.log(s)
        try:
            coeff, power = self._floats
        except AttributeError:
            zc = self.z.as_complex()
            coeff, power = self.coeff.as_complex(), zc if self.side == "rb" else -zc
            _set(self, "_floats", (coeff, power))
        return coeff * s ** power * base ** self.p


class ModelKernel(Record):
    """Finite-term kernel acting by (Qv)(x) = int k(x'/x) v(x') dx'/x'."""

    __slots__ = ("terms",)

    @property
    def support(self) -> tuple:
        """(lo, hi) in s: (0, 1) from the rb terms, (1, inf) from the lb terms."""
        sides = {t.side for t in self.terms}
        return (0.0 if "rb" in sides else 1.0, math.inf if "lb" in sides else 1.0)

    def evaluate(self, s: float) -> float:
        return sum(t.evaluate(s) for t in self.terms).real if self.terms else 0.0

    def to_jsonable(self) -> dict:
        return {
            "terms": [
                {"z": t.z.to_jsonable(), "p": t.p, "side": t.side, "coeff": t.coeff.to_jsonable()}
                for t in self.terms
            ]
        }


def _series_inverse(b, n):
    """First n coefficients of 1 / sum b_i w^i (b[0] != 0)."""
    out = [ONE / b[0]]
    for k in range(1, n):
        s = ZERO
        for i in range(1, k + 1):
            s = s + b[i] * out[k - i]
        out.append(-s / b[0])
    return out


def _partial_fraction_block(root: Root, all_roots, lc):
    """Coefficients A_j, j = 1..k, of 1/poly = sum_j A_j / (z - z0)^j + ...

    A_j is the coefficient of w^(k-j) in 1/deflated(z0 + w), where
    deflated(z0 + w) = lc * prod (w + z0 - z_i)^(m_i) over the other stored
    roots, kept to its first k coefficients (k the multiplicity of z0).  The
    arithmetic is exact on the stored roots.
    """
    k = root.multiplicity
    deflated = [lc] + [ZERO] * (k - 1)
    for other in all_roots:
        if other is not root:
            d = root.value - other.value
            for _ in range(other.multiplicity):  # times (w + d), to k coefficients
                deflated = [d * c + lower for c, lower in zip(deflated, [ZERO] + deflated)]
    return _series_inverse(deflated, k)[::-1]


def model_inverse(ind: IndicialData, gamma) -> ModelKernel:
    """Kernel of the weighted inverse of the indicial operator.

    Partial fractions of 1/polynomial feed residue terms: a root z0 below
    the weight contributes s^(-z0) log-power terms on the s < 1 side, a root
    above the weight contributes mirrored terms on s > 1 (with the sign from
    closing the contour the other way).  Reproduces k(s) = s^c H(1-s) for
    the first-order model.  The partial fractions are exact on the stored
    roots; when a root is inexact, each coefficient is rounded once, by
    ``ComplexRational.rounded``.
    """
    gamma = as_fraction(gamma)
    _check_admissible(ind, gamma)
    if len(ind.polynomial) < 2:
        raise ValueError("indicial polynomial is constant; nothing to invert")
    lc = ind.polynomial[-1]
    exact = all(r.exact for r in ind.roots)
    terms = []
    for root in ind.roots:
        blocks = _partial_fraction_block(root, ind.roots, lc)
        for j, a_j in enumerate(blocks, start=1):
            if root.value.re < gamma:
                z, side, coeff = -root.value, "rb", a_j
            else:  # the contour closes the other way: -A_j for odd j
                z, side, coeff = root.value, "lb", a_j if j % 2 == 0 else -a_j
            coeff = coeff / math.factorial(j - 1)
            if not exact:
                coeff = coeff.rounded()
            if coeff:
                terms.append(KernelTerm(z, j - 1, side, coeff))
    terms.sort(key=lambda t: (t.side, t.z.key(), t.p))
    return ModelKernel(tuple(terms))


# ---------------------------------------------------------------------------
# numeric validation of a kernel against its operator
# ---------------------------------------------------------------------------


class ApplyCheckReport(Record):
    """The residual of an apply check and what it cost: ``grid_points``
    grid points ``log_step`` apart in log x, and ``nodes`` Gauss-Legendre
    nodes on each side of the kernel jump at each of them."""

    __slots__ = ("max_residual", "grid_points", "log_step", "nodes")

    def to_jsonable(self):
        return {"max_residual": self.max_residual, "grid_points": self.grid_points,
                "log_step": self.log_step, "nodes": self.nodes}


#: Largest log-x step of ``apply_check``'s grid.  The residual is the
#: truncation error of ``numeric``'s twelfth-order stencil; for case 9 (the
#: default support, 1,244 points here):
#:
#:     step      0.004    0.003    0.0025   0.002    0.0015   0.001
#:     residual  3.9e-7   4.2e-8   1.1e-8   1.6e-9   1.3e-10  2.4e-12
_LOG_STEP = 0.002
#: Gauss-Legendre nodes on each side of the kernel jump x' = x; u = Kv
#: matches adaptive quadrature at tolerance 1e-14 to about 1e-14 relative.
_NODES = 200
#: Grid points integrated together, so each temporary holds _BLOCK x _NODES
#: floats (12.8 kB).  Blocks of 64 took a third less time but raised the
#: peak RSS of the benchmark's oracle ops by about 0.7 MB.
_BLOCK = 8
#: Most grid points ``apply_check`` will integrate at: it refuses b/a above
#: about 2.67e12, as 20,000 points at step 0.0015 did.  The default support
#: (1, 3) needs 1,244.
_GRID_BUDGET = 15_000


def _kernel_side(kernel: ModelKernel, side: str):
    """The real part of the kernel's terms on one side of the jump, as a
    function of an array of log s, or None when that side has no term."""
    import numpy as np

    sign = -1.0 if side == "rb" else 1.0  # rb: s^z log^p(1/s); lb: s^-z log^p(s)
    terms = [(t.coeff.as_complex(), -sign * t.z.as_complex(), t.p)
             for t in kernel.terms if t.side == side]
    if not terms:
        return None
    if not any(c.imag or w.imag for c, w, _ in terms):
        terms = [(c.real, w.real, p) for c, w, p in terms]

    def k(log_s):
        total = 0.0
        for coeff, power, p in terms:
            term = coeff * np.exp(power * log_s)
            total = total + (term * (sign * log_s) ** p if p else term)
        return np.real(total)
    return k


def _apply_kernel(kernel: ModelKernel, v: Callable, support: tuple, x_grid):
    """u(x) = int_a^b k(x'/x) v(x') dx'/x' at each point of x_grid, with v
    supported in [a, b]: ``_NODES``-point Gauss-Legendre in log x' on each
    side of the jump x' = x, ``_BLOCK`` points at a time."""
    import numpy as np

    from . import numeric as num

    nodes, weights = num.gauss_legendre(_NODES)
    to_lo, to_hi = (1.0 - nodes) / 2.0, (1.0 + nodes) / 2.0
    # s = x'/x < 1 (log s < 0) is the rb side, s > 1 the lb side
    sides = [(clamp, k) for clamp, k in ((np.minimum, _kernel_side(kernel, "rb")),
                                         (np.maximum, _kernel_side(kernel, "lb")))
             if k is not None]
    a, b = support
    log_a, log_b = math.log(a), math.log(b)
    u = np.zeros(len(x_grid))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(x_grid), _BLOCK):
            x = x_grid[start:start + _BLOCK, None]
            log_x = np.log(x)
            for clamp, k in sides:
                # this side's part of [log a, log b] in log s, empty when it misses
                first, last = clamp(log_a - log_x, 0.0), clamp(log_b - log_x, 0.0)
                log_s = first * to_lo + last * to_hi
                # a row sum, not BLAS: its first call alone raised peak RSS by 0.15 MB
                u[start:start + _BLOCK] += (last - first)[:, 0] / 2.0 * (
                    k(log_s) * v(x * np.exp(log_s)) * weights).sum(axis=1)
    return u


def apply_check(op: BDiffOp, kernel: ModelKernel, v: Callable, support: tuple) -> ApplyCheckReport:
    """Check numerically that the kernel inverts a constant-coefficient operator.

    Computes u = Kv on a geometric grid over [a/2, 2b], applies the operator
    by twelfth-order log-grid stencils, and reports the maximum deviation from
    v on the trimmed grid, with the cost.  v takes an ndarray of points and
    returns an ndarray of values, or one scalar for all of them (as
    ``numeric.smooth_bump`` and ``lambda t: 0.0`` do).  u is fixed-order
    Gauss-Legendre (``_apply_kernel``), so no SciPy is loaded.  The log step
    is at most ``_LOG_STEP``, where the residual is the stencil's truncation
    error (about 1.6e-9 for case 9), not the quadrature's.  Repeated
    differencing amplifies rounding like eps / step^order, which limits the
    operator order the check can judge: order x 1e-6 bounds the residual up
    to order 3 (at most 1.9e-8 measured), at order 4 only on some operators
    ((z+1)...(z+4) reads 1.6e-6, (z+1/2)(z+1)(z+3/2)(z+2) 1.3e-5), and not
    at order 5 ((z+1/2)(z+1)...(z+5/2) reads 1.1e-2), all at gamma = 0.
    A support that needs more than ``_GRID_BUDGET`` grid points
    (b/a above about 2.67e12) is refused with ``ValueError`` before any is
    built.  Like the rest of the numeric oracle the check is real-only: an
    operator with a non-real coefficient is refused with ``ValueError``,
    since ``ModelKernel.evaluate`` keeps only the real part of the kernel.
    An operator coefficient, kernel exponent or kernel coefficient beyond
    the float range is refused with ``ValueError`` as well, and a kernel
    that overflows the float range on the grid raises ``QuadratureError``.
    """
    import numpy as np

    from . import numeric as num

    if not op.has_constant_coefficients:
        raise ValueError("apply_check expects a constant-coefficient operator")
    if not all(c.is_real for s in op.coeffs for c in s):
        raise ValueError("apply_check expects real coefficients; a complex kernel stays symbolic")
    scalars = [c for s in op.coeffs for c in s] + [x for t in kernel.terms for x in (t.z, t.coeff)]
    if any(max(abs(c.re), abs(c.im)) > sys.float_info.max for c in scalars):
        raise ValueError("apply_check expects operator and kernel scalars within the float range")
    a, b = support
    if not 0 < a < b < math.inf:
        raise ValueError(f"support must satisfy 0 < a < b < inf, got ({a}, {b})")
    lo, hi = a / 2.0, b * 2.0
    width = math.log(4.0 * (b / a))  # log(hi / lo), which may be inf
    if width / _LOG_STEP > _GRID_BUDGET - 1:
        raise ValueError(f"support ({a}, {b}) needs more than the budget of "
                         f"{_GRID_BUDGET} grid points")
    n = int(math.ceil(width / _LOG_STEP)) + 1
    x_grid = num.geometric_grid(hi, (lo / hi) ** (1.0 / (n - 1)), n)
    u = _apply_kernel(kernel, v, support, x_grid)
    x_out, applied = num.apply_bop_numeric(op, u, x_grid)
    residual = float(np.max(np.abs(applied - v(x_out))))
    if not math.isfinite(residual):
        raise QuadratureError("the kernel overflows the float range on the apply-check grid")
    return ApplyCheckReport(residual, n, width / (n - 1), _NODES)


# ---------------------------------------------------------------------------
# full-calculus descriptors: composition, action, parametrix
# ---------------------------------------------------------------------------


class FullCalcDescriptor(Record):
    """(order, E_lb, E_rb): the index data of a full-calculus operator.

    A full-calculus kernel decomposes into a near-diagonal (small-calculus)
    part, a boundary-expansion part carrying (E_lb, 0, E_rb), and a residual
    part smooth before blow-up; all bookkeeping here consumes only the order
    and the two boundary sets, so the three-part split stays implicit.
    """

    __slots__ = ("order", "E_lb", "E_rb")

    def __init__(self, order: float, E_lb: IndexSet, E_rb: IndexSet):
        # a finite order, or -inf for a residual (smoothing) part
        if type(order) not in (int, float) or not -math.inf <= order < math.inf:
            raise ValueError(f"order must be a finite number or -inf, got {order!r}")
        _set(self, "order", float(order))
        _set(self, "E_lb", E_lb)
        _set(self, "E_rb", E_rb)

    def to_jsonable(self) -> dict:
        order = "-inf" if self.order == -math.inf else self.order
        return {"order": order, "E_lb": self.E_lb.to_jsonable(), "E_rb": self.E_rb.to_jsonable()}

    @classmethod
    def from_jsonable(cls, data: dict) -> "FullCalcDescriptor":
        order = -math.inf if data["order"] == "-inf" else data["order"]
        return cls(order, IndexSet.from_jsonable(data["E_lb"]), IndexSet.from_jsonable(data["E_rb"]))


IDENTITY_DESCRIPTOR = FullCalcDescriptor(0.0, EMPTY, EMPTY)


def _inf_sum_positive(e: IndexSet, f: IndexSet) -> bool:
    a, b = e.inf_re(), f.inf_re()
    if a == math.inf or b == math.inf:
        return True
    return a + b > 0


def compose_descriptors(p: FullCalcDescriptor, q: FullCalcDescriptor) -> FullCalcDescriptor:
    """Index data of a composition: orders add, boundary sets extend-union.

    Requires inf E_rb(p) + inf E_lb(q) > 0; at or below the threshold the
    composition integral diverges and the descriptor is undefined.
    """
    if not _inf_sum_positive(p.E_rb, q.E_lb):
        raise CompositionUndefined(
            f"inf E_rb + inf F_lb = {p.E_rb.inf_re()} + {q.E_lb.inf_re()} <= 0"
        )
    return FullCalcDescriptor(
        p.order + q.order,
        p.E_lb.extended_union(q.E_lb),
        p.E_rb.extended_union(q.E_rb),
    )


def descriptor_sum(p: FullCalcDescriptor, q: FullCalcDescriptor) -> FullCalcDescriptor:
    """Index data of an operator sum: max order, plain unions."""
    return FullCalcDescriptor(
        max(p.order, q.order), p.E_lb.union(q.E_lb), p.E_rb.union(q.E_rb)
    )


def action_index(p: FullCalcDescriptor, f: IndexSet) -> IndexSet:
    """Index set of P w for w with index set f: E_lb extended-union f."""
    if not _inf_sum_positive(p.E_rb, f):
        raise CompositionUndefined(
            f"inf E_rb + inf F = {p.E_rb.inf_re()} + {f.inf_re()} <= 0"
        )
    return p.E_lb.extended_union(f)


class ParametrixReport(Record):
    __slots__ = ("parametrix", "remainder", "steps")

    def to_jsonable(self):
        return {
            "parametrix": self.parametrix.to_jsonable(),
            "remainder": self.remainder.to_jsonable(),
            "steps": list(self.steps),
        }


#: Most Neumann steps ``parametrix_indices`` will take; each adds a log power.
_STEP_BUDGET = 10_000


def parametrix_indices(op: BDiffOp, gamma, steps: int) -> ParametrixReport:
    """Predicted index sets of the Neumann-iterated parametrix.

    Step 0 is the small-calculus parametrix (trivial boundary sets, smoothing
    remainder).  Step 1 adds the boundary correction carrying the weight
    split of the spectrum; further steps compose with powers of the
    remainder, raising log powers through repeated extended unions.  More
    than ``_STEP_BUDGET`` steps are refused with ``ValueError``.
    """
    if not 0 <= steps <= _STEP_BUDGET:
        raise ValueError(f"steps must be between 0 and {_STEP_BUDGET}, got {steps}")
    ind = indicial(op)
    m = float(op.order)
    small = FullCalcDescriptor(-m, EMPTY, EMPTY)
    if steps == 0:
        return ParametrixReport(
            small, FullCalcDescriptor(-math.inf, EMPTY, EMPTY), ("small-calculus parametrix only",)
        )
    e_lb, e_rb = split_spec(ind, gamma)
    q = FullCalcDescriptor(-m, e_lb, e_rb)
    r = FullCalcDescriptor(-math.inf, e_lb, e_rb)
    log = [f"weight split: E_lb={e_lb}, E_rb={e_rb}"]
    neumann = IDENTITY_DESCRIPTOR
    r_power = r
    for j in range(1, steps):
        neumann = descriptor_sum(neumann, r_power)
        r_power = compose_descriptors(r_power, r)
        log.append(f"Neumann term {j} accumulated")
    parametrix = compose_descriptors(q, neumann)
    log.append(f"parametrix after {steps} step(s)")
    return ParametrixReport(parametrix, r_power, tuple(log))


# ---------------------------------------------------------------------------
# front-face (non-)compactness criterion
# ---------------------------------------------------------------------------


class HsReport(Record):
    """Hilbert-Schmidt norm growth of a localized smoothing kernel.

    The truncated squared norm over x in [eps, C] grows like
    slope * log(1/eps); the slope equals the squared ds/s norm of the
    front-face restriction, so slope 0 iff the kernel vanishes there.
    """

    __slots__ = ("slope", "reference", "eps", "norms")

    def to_jsonable(self):
        return {"slope": self.slope, "reference": self.reference,
                "eps": self.eps, "norms": self.norms}


_HS_LADDER = 4  # lower cutoffs eps, eps/10, ... in the slope regression
#: Gauss-Legendre nodes on each piece of the ds/s integral.  Over [1/C, 1]
#: and [1, C] at C = 4 the unit-width bump's slope reads 2.5e-11 low with
#: 200 nodes and within 1e-14 with 400: the bump's C^infinity edges fall
#: inside those pieces.
_HS_NODES = 400
#: Nodes on a caller's s-support, at whose ends a kernel vanishes to all
#: orders: 200 read the bump's slope within 1e-14 at every C.
_HS_SUPPORT_NODES = 200
#: Nodes on each piece of the dx/x integral.  For the bump and x * bump at
#: C = 4, 1e3 and 1e10, 100 nodes read every norm within 1e-15 relative of
#: 1,000 nodes.
_HS_X_NODES = 100
#: x values whose kernel rows one call evaluates, so a temporary holds at
#: most _HS_BLOCK x (s nodes) floats (100 kB over [1/C, C]).  The bump and
#: x * bump probes at C = 4 raised peak RSS by 0.5 MB in blocks of 16, 0.9 MB
#: in blocks of 32 (and took twice as long) and 4.0 MB unblocked.
_HS_BLOCK = 16
#: Largest accepted support_c.  At C = 1e10 the x-bump norms near 1e19
#: swamp their 1e-7 increments, and its slope reads 0.
_HS_MAX_C = 1e10


def hs_front_face_criterion(p: Callable, support_c: float, eps: float,
                            s_support: Optional[tuple] = None) -> HsReport:
    """Probe the squared Hilbert-Schmidt norm of phi(x) p(x, s) for divergence.

    p must be supported in x <= C, 1/C <= s <= C, and take an (x column) x
    (s row) pair of arrays, returning an array of their broadcast shape or
    one scalar for all of them.  The cutoff phi is a smooth plateau with
    phi(0) = 1, 1 up to C/4 and 0 from C/2.  Norms are accumulated over a
    geometric ladder of ``_HS_LADDER`` lower cutoffs and regressed against
    log(1/eps).  Both integrals are fixed-order Gauss-Legendre, so no SciPy
    is loaded: the ds/s integral on ``_HS_NODES`` nodes in u = log s on each
    of [-log C, 0] and [0, log C], or on ``_HS_SUPPORT_NODES`` nodes in u
    over ``s_support = (lo, hi)``, an interval inside [1/C, C] off which p
    vanishes; the dx/x integral on ``_HS_X_NODES`` nodes in t = log x on
    each ladder interval, split at C/4 and C/2.  p is called on at most
    ``_HS_BLOCK`` x values at a time.  Anything but 0 < eps < C and
    1 < C <= ``_HS_MAX_C``, or an s-support not inside [1/C, C], is refused
    with ``ValueError``; a norm that is not finite raises ``QuadratureError``.
    """
    import numpy as np

    from . import numeric as num

    if not (0 < eps < support_c <= _HS_MAX_C and support_c > 1):
        raise ValueError(f"need 0 < eps < support_c and 1 < support_c <= {_HS_MAX_C:g}, "
                         f"got eps={eps}, support_c={support_c}")
    if s_support is None:
        log_c = math.log(support_c)
        s_pieces, s_nodes = ((-log_c, 0.0), (0.0, log_c)), _HS_NODES
    else:
        lo, hi = s_support
        if not 1.0 / support_c <= lo < hi <= support_c:
            raise ValueError(f"s_support {s_support} is not inside [1/C, C] for C = {support_c}")
        s_pieces, s_nodes = ((math.log(lo), math.log(hi)),), _HS_SUPPORT_NODES

    def rule(pieces, n):
        # Gauss-Legendre nodes and weights on each piece [a, b], joined
        x, w = num.gauss_legendre(n)
        return (np.concatenate([(a + b) / 2.0 + (b - a) / 2.0 * x for a, b in pieces]),
                np.concatenate([(b - a) / 2.0 * w for a, b in pieces]))

    log_s, s_weights = rule(s_pieces, s_nodes)
    s = np.exp(log_s)[None, :]
    phi = num.plateau_cutoff(support_c / 4.0, support_c / 2.0)

    def inner(x):
        # the squared ds/s norm of phi(x) p(x, .) at each of the x values
        out = np.empty(len(x))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(x), _HS_BLOCK):
                block = x[start:start + _HS_BLOCK, None]
                values = np.broadcast_to(p(block, s), (len(block), s.shape[1]))
                out[start:start + _HS_BLOCK] = (values * values * s_weights).sum(axis=1)
        return phi(x) ** 2 * out

    def outer(a, b):
        # the dx/x integral over [a, b] in t = log x; phi vanishes from C/2
        cuts = [a] + [c for c in (support_c / 4.0, support_c / 2.0) if a < c < b]
        cuts.append(min(b, support_c / 2.0))
        pieces = [(math.log(lo), math.log(hi)) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
        if not pieces:
            return 0.0
        log_x, x_weights = rule(pieces, _HS_X_NODES)
        return float((inner(np.exp(log_x)) * x_weights).sum())

    eps_list = [eps * 10.0 ** (-k) for k in range(_HS_LADDER)]
    total = outer(eps_list[0], support_c)
    norms = [total]
    for e_prev, e_next in zip(eps_list, eps_list[1:]):
        total += outer(e_next, e_prev)
        norms.append(total)
    reference = float(inner(np.zeros(1))[0])
    if not all(map(math.isfinite, norms + [reference])):
        raise QuadratureError("the Hilbert-Schmidt norm is not finite on the probe's nodes")
    slope = num.line_slope([math.log(1.0 / e) for e in eps_list], norms)
    return HsReport(slope, reference, tuple(eps_list), tuple(norms))
