"""Seeded input generator.

Every input is drawn from ``random.Random(seed)`` streams, so one seed gives
the same inputs on every run.  Exponents use the oracle's exact tuples
(see ``oracles``); the workloads convert them into program objects.  The
``*_props`` helpers summarise the input properties each workload depends
on, and the run prints them.
"""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F

from oracles import ex, ex_irr, poly_from_roots, re_float

SQUAREFREE = (2, 3, 5, 6, 7)


def stream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def shape_stream(name: str) -> random.Random:
    """Structure draws shared by every seed (sizes, chain lengths, root kinds)."""
    return random.Random(f"shape:{name}")


def canonical_set(rng, n, lo=-2, share=(), shared=0, shape=None):
    """n canonical generators spread over residue classes (Im z, Re z mod 1).

    Each class holds a chain with strictly increasing Re z and log power, so
    no generator implies another; chain lengths vary from 1 to 6.  The
    first ``shared`` classes are taken from ``share`` (shared classes are
    where extended unions add logs), and no other class is in ``share``.
    ``shape`` draws the structure (chain lengths), ``rng`` the values;
    passing a fixed ``shape`` keeps the work an op does the same from seed
    to seed while its values change.
    """
    shape = shape or rng
    pool = rng.sample(list(share), min(shared, len(share)))
    gens, used = [], set(share) - set(pool)
    while len(gens) < n:
        if pool:
            im, frac = pool.pop()
        else:
            im = F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
            frac = F(rng.randrange(24), 24)
        if (im, frac) in used:
            continue
        used.add((im, frac))
        length = min(shape.choice((1, 1, 1, 2, 2, 3, 4, 6)), n - len(gens))
        re = rng.randint(lo, lo + 3) + frac
        p = shape.randint(0, 1)
        for _ in range(length):
            gens.append((ex(re, im), p))
            re += rng.randint(1, 2)
            p += 1
    return gens


def classes_of(gens):
    return sorted({(z[3], z[0] % 1) for z, _ in gens})


def with_implied(rng, gens, shape):
    """Raw entry list: the generators plus entries they already imply."""
    raw = list(gens)
    for z, p in gens:
        if shape.random() < 0.5:
            k = rng.randint(0, 2)
            raw.append(((z[0] + k, z[1], z[2], z[3]), rng.randint(0, p)))
    rng.shuffle(raw)
    return raw


def set_props(gens) -> dict:
    per_class = Counter((z[3], z[0] % 1) for z, _ in gens)
    return {
        "generators": len(gens),
        "classes": len(per_class),
        "per_class": dict(sorted(Counter(per_class.values()).items())),
    }


# ---------------------------------------------------------------------------
# operators from known roots
# ---------------------------------------------------------------------------


def root_pattern(shape, degree):
    """The kinds and multiplicities of an operator's roots, summing to degree.

    Rational roots (multiplicity 1-3), real quadratic irrational pairs
    a +- s sqrt(d) (sometimes with a copy shifted by an integer, the pattern
    of ROADMAP item 3), Gaussian-rational conjugate pairs, and the odd lone
    complex root.
    """
    items, remaining = [], degree
    while remaining > 0:
        kind = shape.random()
        if remaining >= 2 and kind < 0.25:
            m = 2 if remaining >= 4 and shape.random() < 0.25 else 1
            shifted = remaining >= 4 * m and shape.random() < 0.5
            items.append(("irrational", m, shifted))
            remaining -= 2 * m * (1 + shifted)
        elif remaining >= 2 and kind < 0.35:
            items.append(("conjugate", 1, False))
            remaining -= 2
        elif kind < 0.38:
            items.append(("complex", 1, False))
            remaining -= 1
        else:
            m = min(shape.choice((1, 1, 1, 2, 2, 3)), remaining)
            items.append(("rational", m, False))
            remaining -= m
    return items


def operator_roots(rng, pattern):
    """Exact roots with multiplicities for a pattern; values from ``rng``."""
    roots, seen = [], set()

    def take(*zs):
        if any(z in seen for z in zs):
            return False
        seen.update(zs)
        return True

    for kind, m, shifted in pattern:
        while True:
            if kind == "irrational":
                a = F(rng.randint(-4, 4), rng.choice((1, 2)))
                s, d = rng.choice((1, F(1, 2))), rng.choice(SQUAREFREE)
                k = rng.choice((1, 2, -1))
                shifts = (0, k) if shifted else (0,)
                zs = [ex_irr(a + t, sign * s, d) for t in shifts for sign in (1, -1)]
            elif kind == "conjugate":
                z = ex(F(rng.randint(-6, 6), rng.choice((1, 2))), F(rng.randint(1, 4), rng.choice((1, 2))))
                zs = [z, (z[0], z[1], z[2], -z[3])]
            elif kind == "complex":
                zs = [ex(F(rng.randint(-6, 6), 2), F(rng.randint(1, 3), 2))]
            else:
                zs = [ex(F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))))]
            if take(*zs):
                roots += [(z, m) for z in zs]
                break
    return roots


def weight_for(rng, roots):
    """A rational weight at least 1/16 away from every root's real part."""
    while True:
        gamma = F(rng.randint(-28, 28), 8)
        if all(abs(re_float(z) - float(gamma)) >= 1 / 16 for z, _ in roots):
            return gamma


def has_integer_gap_irrationals(roots) -> bool:
    irr = [z for z, _ in roots if z[1]]
    return any(
        z != w and (z[1], z[2], z[3]) == (w[1], w[2], w[3]) and (z[0] - w[0]).denominator == 1
        for z in irr for w in irr
    )


def operator(rng, shape, degree):
    """Roots, weight and x-dependent coefficient series of one operator.

    ``shape`` fixes the root pattern and the parametrix step count, ``rng``
    the values.  The series a_j(x) = c_j + e_j x carry an x-term so that
    the indicial map (freezing at x = 0) does real work.
    """
    roots = operator_roots(rng, root_pattern(shape, degree))
    steps = shape.choice((1, 2, 3))
    lead = rng.choice((1, 2, 3))
    coeffs = poly_from_roots(roots, lead)
    series = [[c, (F(rng.randint(-2, 2)), F(0))] for c in coeffs]
    return {
        "roots": roots,
        "lead": lead,
        "coeffs": coeffs,
        "series": series,
        "gamma": weight_for(rng, roots),
        "steps": steps,
        "item3": has_integer_gap_irrationals(roots),
    }


def operator_props(ops) -> dict:
    patterns = Counter()
    for op in ops:
        patterns["+".join(str(m) for _, m in sorted(op["roots"], key=lambda r: -r[1]))] += 1
    kinds = Counter()
    for op in ops:
        for z, m in op["roots"]:
            kinds["irrational" if z[1] else "complex" if z[3] else "rational"] += m
    return {
        "degrees": sorted(len(op["coeffs"]) - 1 for op in ops),
        "multiplicity_patterns": dict(sorted(patterns.items())),
        "root_kinds": dict(sorted(kinds.items())),
        "integer_gap_irrational_ops": sum(op["item3"] for op in ops),
    }


def family(rng, shape, names, size=(2, 4), positive=()):
    """Index family: a small canonical set per bhs name.  Names in
    ``positive`` get inf Re z > 0 except with probability 1/5."""
    out = {}
    for name in names:
        lo = -2
        if name in positive:
            lo = 1 if rng.random() >= 0.2 else -1
        out[name] = canonical_set(rng, shape.randint(*size), lo=lo, shape=shape)
    return out
