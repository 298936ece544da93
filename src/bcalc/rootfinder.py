"""The float root finder of the indicial calculus, and exact real-root counts.

``aberth`` finds the float roots of a primitive square-free factor over the
Gaussian integers by the Aberth-Ehrlich iteration on Python ``complex``;
``boperators._squarefree_roots`` refines each one exactly.  ``sturm_chain``
and ``cauchy_index`` work on real int polynomials: ``real_root_count`` tells
how many roots of a real factor lie on the real axis.  Nothing here rounds
a float into a stored root, and nothing loads NumPy.
"""
from __future__ import annotations

import math
import sys


def sturm_chain(p, q):
    """The Sturm chain p, q, -rem(p, q), ... of two real int polynomials
    (ascending int tuples, q nonzero), up to the last nonzero remainder.

    Each remainder is a pseudo-remainder by multiples of |lc| rather than lc,
    so it is a positive multiple of the true one, and its integer content
    is divided out: every member has the sign pattern of the Euclidean one."""
    chain = [tuple(p), tuple(q)]
    while True:
        rem, b = list(chain[-2]), chain[-1]
        lc, sign = abs(b[-1]), 1 if b[-1] > 0 else -1
        low = b[:-1]
        while len(rem) >= len(b):
            c = sign * rem.pop()
            top = len(rem) - len(low)
            rem = [lc * x for x in rem[:top]] + [lc * x - c * y for x, y in zip(rem[top:], low)]
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            return chain
        g = math.gcd(*rem)
        chain.append(tuple([-x // g for x in rem]))


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


def aberth(factor, exact_ratio):
    """The float roots of a primitive factor (ascending (re, im) int pairs,
    degree >= 1) by the Aberth-Ehrlich iteration (Aberth 1973, Ehrlich
    1967), or None when the iteration does not converge or a root is not
    finite.  ``exact_ratio(z)`` is factor(z) / factor'(z), evaluated exactly.

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
    polished by sweeps that use ``exact_ratio``.

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
        if _sweeps(z, rough, lambda w: (exact_ratio(w), None)) is None:
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
