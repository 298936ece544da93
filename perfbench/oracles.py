"""Independent oracles for every op class the benchmark times.

Nothing here imports bcalc.  Exponents are plain tuples ``(a, s, d, im)``
meaning ``a + s*sqrt(d) + i*im`` with Fractions ``a, s, im`` and a
square-free integer ``d`` (``s == d == 0`` for Gaussian rationals), so
integer gaps between quadratic irrationals are decided exactly.  Index sets
are checked by brute force: every member ``(z, p)`` with ``Re z <= N`` is
enumerated, and a completed set is a dict ``z -> largest log power``.
"""
from __future__ import annotations

import math
from fractions import Fraction

ZERO = Fraction(0)


def ex(a, im=0):
    """A Gaussian-rational exponent."""
    return (Fraction(a), ZERO, 0, Fraction(im))


def ex_irr(a, s, d):
    """The real quadratic irrational a + s*sqrt(d)."""
    return (Fraction(a), Fraction(s), int(d), ZERO)


def shift(z, k):
    return (z[0] + k, z[1], z[2], z[3])


def neg(z):
    return (-z[0], -z[1], z[2], -z[3])


def add(z, w):
    if z[1] and w[1] and z[2] != w[2]:
        raise ValueError("cannot add quadratic irrationals over different fields")
    d = z[2] or w[2]
    return (z[0] + w[0], z[1] + w[1], d if z[1] + w[1] else 0, z[3] + w[3])


def re_sign(z) -> int:
    """Exact sign of Re z = a + s*sqrt(d)."""
    a, s, d = z[0], z[1], z[2]
    sa = (a > 0) - (a < 0)
    ss = (s > 0) - (s < 0)
    if ss == 0 or sa == ss:
        return sa or ss
    if sa == 0:
        return ss
    # opposite signs: compare a^2 with s^2 d
    big = (a * a > s * s * d) - (a * a < s * s * d)
    return sa * big


def inf_sum_positive(e, f) -> bool:
    """inf Re E + inf Re F > 0, exactly; +inf for an empty set."""
    if not e or not f:
        return True
    low_e = min(e, key=re_float)
    low_f = min(f, key=re_float)
    if low_e[1] and low_f[1] and low_e[2] != low_f[2]:
        # a + s sqrt(d) + b + t sqrt(d') with d != d' square-free is never 0
        return re_float(low_e) + re_float(low_f) > 0
    return re_sign(add(low_e, low_f)) > 0


def re_float(z) -> float:
    return float(z[0]) + float(z[1]) * math.sqrt(z[2])


def value(z) -> complex:
    return complex(re_float(z), float(z[3]))


def residue_class(z):
    """Two exponents differ by an integer iff their classes agree."""
    return (z[1], z[2], z[3], z[0] - math.floor(z[0]))


# ---------------------------------------------------------------------------
# completed index sets by member enumeration
# ---------------------------------------------------------------------------


def members(entries, bound) -> dict:
    """All members with Re z <= bound of the completion of raw entries."""
    out = {}
    for z, p in entries:
        k = 0
        while re_float(z) + k <= bound:
            key = shift(z, k)
            if out.get(key, -1) < p:
                out[key] = p
            k += 1
    return out


def union(a: dict, b: dict) -> dict:
    out = dict(a)
    for z, p in b.items():
        if out.get(z, -1) < p:
            out[z] = p
    return out


def extended_union(a: dict, b: dict) -> dict:
    """Union plus (z, p' + p'' + 1) wherever z lies in both sets."""
    out = union(a, b)
    for z, p in a.items():
        if z in b:
            out[z] = max(out[z], p + b[z] + 1)
    return out


def set_sum(a_entries, b_entries, bound) -> dict:
    """Members of {(z + w, k + l)} with Re <= bound, from both completions."""
    if not a_entries or not b_entries:
        return {}
    min_a = min(re_float(z) for z, _ in a_entries)
    min_b = min(re_float(z) for z, _ in b_entries)
    ma = members(a_entries, bound - min_b + 1e-9)  # a little over: the sum is cut below
    mb = members(b_entries, bound - min_a + 1e-9)
    out = {}
    for z, p in ma.items():
        for w, q in mb.items():
            zw = add(z, w)
            if re_float(zw) <= bound and out.get(zw, -1) < p + q:
                out[zw] = p + q
    return out


def canonical(entries) -> list:
    """Canonical generators: per residue class, sweep by Re z and keep an
    entry only when its log power beats every earlier one."""
    by_class = {}
    for z, p in entries:
        by_class.setdefault(residue_class(z), []).append((z, p))
    out = []
    for group in by_class.values():
        group.sort(key=lambda e: (e[0][0], -e[1]))
        best = -1
        for z, p in group:
            if p > best:
                out.append((z, p))
                best = p
    return sorted(out, key=lambda e: (re_float(e[0]), e[0][3], e[1]))


def set_mismatch(got_gens, expected_members: dict, bound) -> str | None:
    """Compare a program result (its generators) with oracle members.

    The result must be canonical, and its completion truncated at ``bound``
    must equal the oracle's member set.  Returns None or a reason.
    """
    if len(canonical(got_gens)) != len(got_gens):
        return "generators are not canonical"
    got = members(got_gens, bound)
    if got != expected_members:
        missing = len(set(expected_members.items()) - set(got.items()))
        extra = len(set(got.items()) - set(expected_members.items()))
        return f"members up to Re z = {bound} differ ({missing} missing, {extra} extra)"
    return None


def gens_mismatch(got, expected, tol=1e-9) -> str | None:
    """Match (z, k) lists numerically: program values [(complex z, k)]
    against exact oracle entries [(z, k)], where k is a log power or a root
    multiplicity; used where the program stores irrational values inexactly."""
    exp = sorted(((value(z), k) for z, k in expected), key=lambda e: (e[0].real, e[0].imag, e[1]))
    got = sorted(got, key=lambda e: (e[0].real, e[0].imag, e[1]))
    if len(got) != len(exp):
        return f"{len(got)} entries, expected {len(exp)}"
    for (gz, gk), (ez, ek) in zip(got, exp):
        if gk != ek or abs(gz - ez) > tol * (1 + abs(ez)):
            return f"({gz:.6g}, {gk}) where ({ez:.6g}, {ek}) was expected"
    return None


# ---------------------------------------------------------------------------
# operators built from known roots
# ---------------------------------------------------------------------------


def poly_from_roots(roots, lead=1):
    """Ascending coefficients of lead * prod (z - r)^m for exact roots.

    Quadratic irrationals must come as conjugate pairs (a +- s sqrt d),
    which are multiplied as the rational factor (z - a)^2 - s^2 d.
    Coefficients are (re, im) pairs of Fractions.
    """
    poly = [(Fraction(lead), ZERO)]

    def mul(p, q):
        out = [(ZERO, ZERO)] * (len(p) + len(q) - 1)
        for i, (ar, ai) in enumerate(p):
            for j, (br, bi) in enumerate(q):
                cr, ci = out[i + j]
                out[i + j] = (cr + ar * br - ai * bi, ci + ar * bi + ai * br)
        return out

    pending = {}
    for z, m in roots:
        if z[1]:
            key = (z[0], abs(z[1]), z[2], m)
            pending[key] = pending.get(key, 0) + 1
            continue
        for _ in range(m):
            poly = mul(poly, [(-z[0], -z[3]), (Fraction(1), ZERO)])
    for (a, s, d, m), count in pending.items():
        if count != 2:
            raise ValueError("irrational roots must come in conjugate pairs")
        quad = [(a * a - s * s * d, ZERO), (-2 * a, ZERO), (Fraction(1), ZERO)]
        for _ in range(m):
            poly = mul(poly, quad)
    return poly


def _close(a: complex, b: complex, tol=1e-9) -> bool:
    return abs(a - b) <= tol * (1 + abs(b))


def snap_explains(got, roots) -> bool:
    """Whether program roots ``got`` [(complex, multiplicity)] are the exact
    ``roots`` with at least one of them snapped onto another.

    The snap: a numeric root of a square-free factor is first rounded to
    denominator 1 (Re and Im separately, to a nearest integer) and kept when
    that integer is a root of the same factor, i.e. another root of the
    same multiplicity.
    """
    def targets(z, m):
        v = value(z)
        out = [v]
        for w, k in roots:
            u = value(w)
            if (k == m and w != z and not w[1] and w[0].denominator == 1 and w[3].denominator == 1
                    and abs(v.real - u.real) <= 0.5 + 1e-9 and abs(v.imag - u.imag) <= 0.5 + 1e-9):
                out.append(u)
        return out

    if len(got) != len(roots):
        return False
    options = [(m, targets(z, m)) for z, m in roots]

    def match(i, free, snapped):
        if i == len(options):
            return snapped
        m, tv = options[i]
        for j in free:
            gz, gm = got[j]
            for n, t in enumerate(tv):
                if gm == m and _close(gz, t) and match(i + 1, free - {j}, snapped or n > 0):
                    return True
        return False

    return match(0, frozenset(range(len(got))), False)


def weight_split(roots, gamma):
    """(E_lb raw entries, E_rb raw entries) of the weight split."""
    lb, rb = [], []
    for z, m in roots:
        if re_float(z) > gamma:
            lb += [(z, l) for l in range(m)]
        else:
            rb += [(neg(z), l) for l in range(m)]
    return lb, rb


def ext_power(entries, k, bound) -> dict:
    """k-fold extended union of a set with itself (k >= 1)."""
    base = members(entries, bound)
    out = base
    for _ in range(k - 1):
        out = extended_union(out, base)
    return out


def generators_of(member_dict) -> list:
    return canonical(member_dict.items())


def kernel_mismatch(terms, roots, coeffs, gamma, tol=1e-7) -> str | None:
    """Check a model kernel through the partial-fraction identity.

    terms: [(side, z complex, p, coeff complex)].  A root r below the
    weight must appear as side "rb" with z = -r, one above as side "lb"
    with z = r; term p carries A_{p+1}/p! (times (-1)^(p+1) on "lb").  The
    reconstructed sum of A_j/(t - r)^j must equal 1/P(t) at test points;
    with ``coeffs`` None only the placement of the terms is checked.
    """
    for side, z, p, c in terms:
        r = -z if side == "rb" else z
        if not any(abs(r - value(w)) <= 1e-7 * (1 + abs(r)) for w, _ in roots):
            return f"term at z = {z:.6g} matches no indicial root"
        below = r.real < gamma
        if below != (side == "rb"):
            return f"root {r:.6g} placed on side {side} for weight {gamma}"
    if coeffs is None:
        return None
    points = (0.31 + 0.77j, -1.13 + 0.29j, 2.41 - 0.53j, -0.07 - 1.9j)
    for t in points:
        expected = 1.0 / sum(complex(float(a), float(b)) * t ** i for i, (a, b) in enumerate(coeffs))
        got = 0j
        for side, z, p, c in terms:
            r = -z if side == "rb" else z
            a_j = c * math.factorial(p) * (1 if side == "rb" else (-1) ** (p + 1))
            got += a_j / (t - r) ** (p + 1)
        if abs(got - expected) > tol * (1 + abs(expected)):
            return f"partial fractions give {got:.8g} at t = {t}, 1/P(t) = {expected:.8g}"
    return None


# ---------------------------------------------------------------------------
# geometry: face counts of iterated blow-ups
# ---------------------------------------------------------------------------

#: Faces (the whole space included) after blowing up every codimension-2
#: face of the k-quadrant, in any order.
BLOWUP_FACES = {4: 68, 5: 232, 6: 792}


def blowup_counts(k: int) -> dict:
    """Known counts after the codim-2 blow-ups of the k-quadrant."""
    return {
        "faces": BLOWUP_FACES[k],
        "bhs": k + k * (k - 1) // 2,
        "corners": 2 ** (k - 1),  # faces of codimension k
    }


#: Blow-down exponent tables: source bhs -> target bhs it maps into (order 1).
X2B_BLOWDOWN = {"lb": ("Hx",), "rb": ("Hy",), "ff": ("Hx", "Hy")}
X3B_BLOWDOWN = {
    "bf1": ("bf1",), "bf2": ("bf2",), "bf3": ("bf3",),
    "ff1": ("bf2", "bf3"), "ff2": ("bf1", "bf3"), "ff3": ("bf1", "bf2"),
    "fff": ("bf1", "bf2", "bf3"),
}


def pull_back(table, family, bound) -> dict:
    """Monomial substitution: a product of x_H^{z_H} log^{p_H} x_H over the
    H a source face maps into has exponent sum z_H and log power sum p_H."""
    out = {}
    for g, hs in table.items():
        combos = [((ZERO, ZERO, 0, ZERO), 0)]
        for h in hs:
            combos = [(add(z, w), p + q) for z, p in combos for w, q in family[h]]
        out[g] = members(combos, bound)
    return out


def lifted_projection_preimages(i: int) -> dict:
    """X3b -> X2b, forgetting coordinate i: the two bhs over each target bhs."""
    r1, r2 = [j for j in (1, 2, 3) if j != i]
    return {
        "lb": (f"bf{r1}", f"ff{r2}"),
        "rb": (f"bf{r2}", f"ff{r1}"),
        "ff": ("fff", f"ff{i}"),
    }


def push_forward(i, family, bound):
    """Push-forward along the lifted projection: each target set is the
    extended union of its two (intersecting) preimage sets; bf_i maps to
    the interior and must have inf Re z > 0."""
    result = {
        h: extended_union(members(family[a], bound), members(family[b], bound))
        for h, (a, b) in lifted_projection_preimages(i).items()
    }
    interior = family[f"bf{i}"]
    violating = [f"bf{i}"] if interior and min(re_float(z) for z, _ in interior) <= 0 else []
    return result, violating


# ---------------------------------------------------------------------------
# closed forms for the numeric oracle
# ---------------------------------------------------------------------------


def hypot_fiber(x: float) -> float:
    """int_0^1 sqrt(x^2 + y^2) dy."""
    r = math.sqrt(x * x + 1.0)
    return 0.5 * r + 0.5 * x * x * (math.log(1.0 + r) - math.log(x))


#: Coefficient of x^2 log x in the fiber integral above.
HYPOT_LOG_COEFF = -0.5


def self_convolution(s: float, c: float) -> float:
    """(k * k)(s) for k(s) = s^c on s < 1: s^c log(1/s)."""
    return s ** c * math.log(1.0 / s) if s < 1.0 else 0.0


def divergent_fiber(x: float, beta: float) -> float:
    """int_0^1 (1 + x) y^(-beta) dy for beta < 1 (at beta >= 1 it diverges)."""
    return (1.0 + x) / (1.0 - beta)
