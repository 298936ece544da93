"""Indicial roots, exact and inexact, with their multiplicities.

``polynomial_roots`` splits an exact polynomial into square-free factors
over the Gaussian integers; ``aberth`` finds the float roots of a factor of
degree two or more by the Aberth-Ehrlich iteration on Python ``complex``,
and ``_squarefree_roots`` refines each one exactly.  ``sturm_chain`` and
``cauchy_index`` work on real int polynomials: ``real_root_count`` tells
how many roots of a real factor lie on the real axis.  Nothing here rounds
a float into a stored root, and nothing loads NumPy.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

from .rationals import ZERO, ComplexRational, _gadd, _ggcd, _gmul, _gquo, _gsub
from .records import Record


# ---------------------------------------------------------------------------
# exact polynomial core over the Gaussian integers of ``rationals``: a
# polynomial is a tuple of (re, im) int pairs, ascending
# ---------------------------------------------------------------------------


def _primitive(p):
    """p (nonzero) divided by a Gaussian gcd of its coefficients."""
    n = math.gcd(*[x for c in p for x in c])  # the rational-integer part, fast
    p = tuple([(a // n, b // n) for a, b in p])
    g = (0, 0)
    for c in p:
        g = _ggcd(c, g)
    return tuple([_gquo(c, g) for c in p])


def _gaussian(poly):
    """The Z[i] polynomial of an exact one: the denominators d cleared once, by their lcm."""
    den = math.lcm(*[c.d for c in poly])
    return tuple([(c.a * (den // c.d), c.b * (den // c.d)) for c in poly])


def _prem(p, q):
    """The pseudo-remainder of p by q: lc(q)^k p mod q, k = max(deg p - deg q + 1, 0)."""
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


def sturm_chain(p, q):
    """The Sturm chain p, q, -rem(p, q), ... of two real int polynomials
    (ascending int tuples, q nonzero), up to the last nonzero remainder.

    Each remainder is ``_prem``'s times the sign of its factor lc(q)^k, so a
    positive multiple of the Euclidean one, with its integer content divided
    out: every member has the sign pattern of the Euclidean one."""
    chain = [tuple(p), tuple(q)]
    while True:
        a, b = chain[-2:]
        rem = [x for x, _ in _prem([(x, 0) for x in a], [(x, 0) for x in b])]
        if not rem:
            return chain
        sign = (1 if b[-1] > 0 else -1) ** max(len(a) - len(b) + 1, 0)
        g = math.gcd(*rem)
        chain.append(tuple([-sign * x // g for x in rem]))


def cauchy_index(p, q):
    """The Cauchy index of q / p over the whole real line: the sign changes
    of the Sturm chain of p and q at -infinity minus those at +infinity."""
    chain = sturm_chain(p, q)
    at_pos = [f[-1] > 0 for f in chain]
    at_neg = [(f[-1] > 0) == (len(f) % 2 == 1) for f in chain]  # lc times (-1)^degree
    return _sign_changes(at_neg) - _sign_changes(at_pos)


def _sign_changes(signs):
    return sum(s != t for s, t in zip(signs, signs[1:]))


def real_root_count(p):
    """The number of distinct real roots of a real int polynomial p, by Sturm's theorem."""
    return cauchy_index(p, [k * c for k, c in enumerate(p) if k])


#: Most sweeps of one phase of ``aberth``; the float phase takes about ten at
#: degrees 12 to 60.
ABERTH_SWEEPS = 100
#: A root is frozen once its Newton correction is below this times |z|.
ABERTH_STEP = 1e-14


def _float_ratio(a):
    """The Newton ratio of p with complex coefficients ``a`` (ascending), as
    ``_sweeps`` takes it: z -> (p(z) / p'(z), None).

    When |p(z)| is within the rounding error of its Horner sum, z is a root as
    far as floats can tell, and (0, e) is returned instead, e the correction
    that rounding error allows: large near a cluster of roots.  Outside the
    unit disc p is evaluated through its reversal at y = 1/z, so no power of
    z can overflow."""
    n = len(a) - 1
    tol = 4 * n * sys.float_info.epsilon
    ascending, descending = (a, [abs(c) for c in a]), (a[::-1], [abs(c) for c in reversed(a)])
    total = sum(ascending[1])

    def ratio(z):
        inside = abs(z) <= 1
        y = z if inside else 1 / z
        coeffs, sizes = descending if inside else ascending
        p = dp = 0j
        for c in coeffs:
            dp = dp * y + p
            p = p * y + c
        # p / p', or z q / (n q - y q') from p(z) = z^n q(y)
        m, der = (1, dp) if inside else (z, n * p - y * dp)
        if abs(p) <= tol * total:  # the rounding error is at most tol sum |a_k| |y|^k
            ay, bound = abs(y), 0.0
            for size in sizes:
                bound = bound * ay + size
            if abs(p) <= tol * bound:
                return 0j, tol * bound * abs(m) / abs(der) if der else math.inf
        return m * p / der, None

    return ratio


def _sweeps(z, active, ratio):
    """Aberth-Ehrlich sweeps, Gauss-Seidel, over the indices ``active`` of z
    until each Newton correction is below ``ABERTH_STEP`` |z|; ``ratio(w)``
    is ``_float_ratio``'s pair.  The (index, error) pairs of the roots
    frozen at the rounding level, or None when ``ABERTH_SWEEPS`` sweeps do
    not suffice."""
    rough = []
    for _ in range(ABERTH_SWEEPS):
        moving = []
        for i in active:
            zi = z[i]
            r, err = ratio(zi)
            if err is not None:
                rough.append((i, err))
                continue
            pull = sum([1 / (zi - w) for w in z[:i]]) + sum([1 / (zi - w) for w in z[i + 1:]])
            z[i] = zi - r / (1 - r * pull)
            if not abs(r) <= ABERTH_STEP * abs(zi):
                moving.append(i)
        active = moving
        if not active:
            return rough
    return None


def aberth(factor):
    """The float roots of a primitive factor (ascending (re, im) int pairs,
    degree >= 1) by the Aberth-Ehrlich iteration (Aberth 1973, Ehrlich
    1967), or None when the iteration does not converge or a root is not
    finite.

    The iteration runs on the monic coefficients, each part one correctly
    rounded int / int division, scaled by a power of two (exactly, barring
    underflow) to parts below 1 so that no Horner sum of ``_float_ratio``
    overflows; a coefficient beyond the float range raises OverflowError.
    Zero low coefficients give exact zero roots.  The starting points lie on
    circles whose radii come from the Newton polygon of log|a_k| (Bini,
    Numer. Algorithms 13, 1996).  A root is frozen once its Newton
    correction is below ``ABERTH_STEP`` |z|, or at the rounding level of
    the floats.  A root frozen there with an error above 1/16 of the
    distance to the nearest other root, more than the exact refinement can
    take from it (as in a cluster the floats cannot resolve), is then
    polished by sweeps that use ``_exact_ratio``, exact on the factor.

    For a factor with real monic coefficients, a Sturm count on the integer
    factor says how many roots are real, and that many float roots, those
    nearest the axis in units of their errors, are put on it: near-double
    real roots (acceptance case 8's 1 +- 1.4e-10) stay real instead of
    splitting into a conjugate pair at ~sqrt(machine eps), which the exact
    refinement could not bring back."""
    lead = factor[-1]
    norm = lead[0] * lead[0] + lead[1] * lead[1]
    a = [complex((x * lead[0] + y * lead[1]) / norm, (y * lead[0] - x * lead[1]) / norm)
         for x, y in factor]  # c / lead = c conj(lead) / |lead|^2
    scale = -math.frexp(max(abs(x) for c in a for x in (c.real, c.imag)))[1]
    a = [complex(math.ldexp(c.real, scale), math.ldexp(c.imag, scale)) for c in a]
    zeros = next(k for k, c in enumerate(a) if c)
    a = a[zeros:]
    n = len(a) - 1
    hull = []
    for pt in ((k, math.log(abs(c))) for k, c in enumerate(a) if c):
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])):
            hull.pop()  # the upper convex hull: keep right turns only
        hull.append(pt)
    z = []
    for (i, log_i), (j, log_j) in zip(hull, hull[1:]):
        radius = math.exp((log_i - log_j) / (j - i))
        angles = (2 * math.pi * (t / (j - i) + i / n) + 0.7 for t in range(j - i))
        z += [complex(radius * math.cos(t), radius * math.sin(t)) for t in angles]
    try:
        noisy = _sweeps(z, range(n), _float_ratio(a))
        if noisy is None:
            return None
        errors = [max(ABERTH_STEP * abs(w), sys.float_info.min) for w in z]
        rough = []
        for i, err in noisy:
            if 16 * err > min([abs(z[i] - w) for w in z[:i] + z[i + 1:]], default=math.inf):
                rough.append(i)
            else:
                errors[i] = max(errors[i], err)
        if _sweeps(z, rough, lambda w: (_exact_ratio(factor, w), None)) is None:
            return None
    except (ZeroDivisionError, OverflowError):
        return None
    if not all(math.isfinite(x) for w in z for x in (w.real, w.imag)):
        return None
    z, errors = [0j] * zeros + z, [1.0] * zeros + errors
    if all(y * lead[0] == x * lead[1] for x, y in factor):  # real monic coefficients
        nearest = sorted(range(len(z)), key=lambda i: abs(z[i].imag) / errors[i])
        real = [x * lead[0] + y * lead[1] for x, y in factor]  # lead's conjugate times factor
        for i in nearest[:real_root_count(real)]:
            z[i] = complex(z[i].real)
    return z


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

    A degree-one factor is solved exactly, others by ``aberth``, and each
    float root r is refined by ``_refine`` to z within 2^-128.  A
    Gaussian-rational root of a primitive
    factor has a denominator dividing its leading coefficient a_n, so r gets
    one candidate w / a_n, w = round(a_n z).  It is kept if it is closer to
    r than half the distance to the nearest other float root and the factor
    vanishes there exactly; otherwise z itself is returned, inexact.  Monic
    coefficients beyond the float range, and a factor on which the float
    iteration does not converge, are refused with ``ValueError``.
    """
    deg = len(factor) - 1
    lead = factor[-1]
    a_n = ComplexRational(*lead)
    if deg == 1:
        return [(-ComplexRational(*factor[0]) / a_n, True)]
    try:
        numeric = aberth(factor)
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
        cand = ComplexRational(*w) / a_n
        if abs(cand.as_complex() - r) < radius and _vanishes_at(factor, w, lead):
            out.append((cand, True))
        else:
            out.append((ComplexRational(*z, 1 << bits), False))
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
        center = sum([z * m for z, m in zip(zs, mults)], ZERO) / total
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
