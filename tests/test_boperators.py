import ast
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings

from bcalc import boperators as bop
from bcalc import numeric as num
from bcalc import rootfinder
from bcalc.errors import (
    CompositionUndefined,
    InadmissibleWeight,
    NotBElliptic,
    QuadratureError,
)
from bcalc.indexsets import EMPTY, SMOOTH, IndexEntry, IndexSet, residue_class
from bcalc.rationals import ComplexRational as CR


def S(*entries):
    return IndexSet.from_entries(entries)


def op_from(*coeff_lists):
    return bop.BDiffOp.from_lists(coeff_lists)


# -- operators and indicial data ----------------------------------------------


def test_operator_validation():
    with pytest.raises(ValueError):
        bop.BDiffOp.from_lists([[1], [0]])  # leading coefficient vanishes identically
    op = bop.BDiffOp.from_lists([[1, 2], [0, 1]])
    assert op.order == 1
    assert not op.has_constant_coefficients
    assert bop.BDiffOp.from_lists([[3], [5]]).has_constant_coefficients
    assert bop.BDiffOp.from_lists([[1], [1]], 0).trunc == 0
    for trunc in (-1, 1.0, True, "2"):
        with pytest.raises(ValueError):
            bop.BDiffOp.from_lists([[1], [1]], trunc)


def test_kernel_term_validation():
    assert bop.KernelTerm(CR.of(1), 0, "lb", CR.of(1)).evaluate(2.0) == 0.5
    for side in ("up", "", None, ["rb"]):
        with pytest.raises(ValueError):
            bop.KernelTerm(CR.of(1), 0, side, CR.of(1))
    for p in (-1, 1.0, True, [1]):
        with pytest.raises(ValueError):
            bop.KernelTerm(CR.of(1), p, "lb", CR.of(1))


def test_indicial_requires_boundary_ellipticity():
    with pytest.raises(NotBElliptic):
        bop.indicial(op_from([1], [0, 1]))  # a_1 = x vanishes at 0


def test_spec_b_first_order():
    for c in (Fraction(1), Fraction(-1, 2), Fraction(7, 3)):
        ind = bop.indicial(op_from([c], [1]))
        assert ind.spec_b == (IndexEntry(CR.of(-c), 0),)


def test_spec_b_double_root():
    ind = bop.indicial(op_from([0], [0], [1]))  # z^2
    assert {(e.z.re, e.p) for e in ind.spec_b} == {(0, 0), (0, 1)}
    assert ind.roots[0].multiplicity == 2 and ind.roots[0].exact


def test_spec_b_with_multiplicity():
    ind = bop.indicial(op_from([0], [0], [1], [1]))  # z^2 (z + 1)
    assert {(e.z.re, e.p) for e in ind.spec_b} == {(-1, 0), (0, 0), (0, 1)}
    assert sum(r.multiplicity for r in ind.roots) == 3


def test_exact_rational_root_recovery():
    # (z - 1)^2 (z + 1) = z^3 - z^2 - z + 1
    ind = bop.indicial(op_from([1], [-1], [-1], [1]))
    roots = {(r.value.re, r.multiplicity, r.exact) for r in ind.roots}
    assert roots == {(Fraction(1), 2, True), (Fraction(-1), 1, True)}


def test_gaussian_rational_roots_verified_exactly():
    ind = bop.indicial(op_from([1], [0], [1]))  # z^2 + 1
    roots = {(r.value.re, r.value.im, r.exact) for r in ind.roots}
    assert roots == {(Fraction(0), Fraction(1), True), (Fraction(0), Fraction(-1), True)}


def test_irrational_roots_stay_numeric():
    ind = bop.indicial(op_from([-2], [0], [1]))  # z^2 - 2
    assert all(not r.exact for r in ind.roots)
    for r in ind.roots:
        assert abs(float(r.value.re) ** 2 - 2.0) < 1e-9


def _mul(p, q):
    out = [CR.of(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _product(roots):
    """Ascending coefficients of prod (z - r)^m over {r: m}."""
    poly = [CR.of(1)]
    for r, m in roots.items():
        for _ in range(m):
            poly = _mul(poly, [-r, CR.of(1)])
    return poly


rational_roots = st.dictionaries(
    st.builds(lambda n, d: CR.of(Fraction(n, d)), st.integers(-12, 12), st.integers(1, 8)),
    st.integers(1, 3), min_size=1, max_size=5,
)


@settings(max_examples=80, deadline=None)
@example({CR.of(0): 1, CR.of(Fraction(1, 2)): 1})  # (x d/dx)(x d/dx - 1/2)
@example({CR.of(0): 2, CR.of(Fraction(1, 2)): 2, CR.of(1): 1})
@given(rational_roots)
def test_indicial_recovers_rational_roots_exactly(roots):
    # a rounded candidate must not snap a root onto a neighbour of the same
    # square-free factor, e.g. 1/2 onto 0
    ind = bop.indicial(op_from(*[[c] for c in _product(roots)]))
    assert {(r.value, r.multiplicity, r.exact) for r in ind.roots} == {
        (z, m, True) for z, m in roots.items()
    }


def test_tiny_constant_term_gives_two_exact_simple_roots():
    # z^2 + 10^-20: the float roots +-10^-10 i are read exactly off a_n = 10^20
    ind = bop.indicial(op_from([Fraction(1, 10**20)], [0], [1]))
    assert {(r.value, r.multiplicity, r.exact) for r in ind.roots} == {
        (CR.of(0, Fraction(s, 10**10)), 1, True) for s in (-1, 1)
    }


def test_root_with_a_large_denominator_is_exact():
    # (z - 1)(z - 1/q): the denominator q divides the leading coefficient of
    # the primitive integer polynomial q z^2 - (q + 1) z + 1
    q = 1000000007
    ind = bop.indicial(op_from([Fraction(1, q)], [-Fraction(q + 1, q)], [1]))
    assert {(r.value, r.multiplicity, r.exact) for r in ind.roots} == {
        (CR.of(1), 1, True), (CR.of(Fraction(1, q)), 1, True)
    }


@pytest.mark.parametrize("other", [
    [CR.of(1), CR.of(Fraction(1, 10**20)), CR.of(1)],  # z^2 + 10^-20 z + 1
    [CR.of(Fraction(-1, 10**20)), CR.of(1)],  # z - 10^-20
])
def test_root_stays_exact_beside_a_large_leading_coefficient(other):
    # the primitive factor (3z - 1) * 10^20 * other has a_n = 3 * 10^20, so the
    # float error of the root 1/3 alone moves round(a_n r) by thousands
    p = _mul([CR.of(Fraction(-1, 3)), CR.of(1)], other)
    roots = {r.value: r for r in bop.polynomial_roots(tuple(p))}
    assert roots[CR.of(Fraction(1, 3))].exact


gaussian_rationals = st.builds(lambda a, b, d: CR.of(Fraction(a, d), Fraction(b, d)),
                               st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 4))
# dense factors of degree 1-2, and sparse z^k + c, whose remainder sequences skip degrees
base_factors = (st.lists(gaussian_rationals, min_size=2, max_size=3).filter(lambda f: f[-1])
                | st.builds(lambda c, k: [c] + [CR.of(0)] * k + [CR.of(1)],
                            gaussian_rationals, st.integers(1, 3)))


def _shifted(p, shift):
    """Ascending coefficients of p(z + shift)."""
    out = [p[-1]]
    for c in reversed(p[:-1]):
        out = _mul(out, [shift, CR.of(1)])
        out[0] = out[0] + c
    return out


def _monic(f):
    """A Gaussian-integer polynomial of the core as monic exact coefficients."""
    return tuple(CR.of(*c) / CR.of(*f[-1]) for c in f)


def _to_sympy(p):
    z = sympy.Symbol("z")
    coeffs = [sympy.Rational(str(c.re)) + sympy.I * sympy.Rational(str(c.im)) for c in reversed(p)]
    return sympy.Poly(coeffs, z, domain=sympy.QQ_I)


def _from_sympy(f):
    coeffs = reversed(f.monic().all_coeffs())
    return tuple(CR.of(str(sympy.re(c)), str(sympy.im(c))) for c in coeffs)


@settings(max_examples=50, deadline=None)
@given(st.lists(base_factors, min_size=1, max_size=2),
       st.lists(st.tuples(st.integers(0, 1), gaussian_rationals, st.integers(1, 3)),
                min_size=1, max_size=3),
       gaussian_rationals.filter(bool))
def test_squarefree_and_gcd_agree_with_sympy(bases, terms, lead):
    # products of shifted copies of a few Gaussian-rational factors
    factors = [(_shifted(bases[k % len(bases)], shift), m) for k, shift, m in terms]
    p = [lead]
    for f, m in factors:
        for _ in range(m):
            p = _mul(p, f)
    got = rootfinder._squarefree(rootfinder._primitive(rootfinder._gaussian(p)))
    got = {(_monic(f), m) for f, m in got}
    _, want = _to_sympy(p).sqf_list()
    assert got == {(_from_sympy(f), m) for f, m in want}
    q = _mul(factors[0][0], bases[-1])
    gcd = rootfinder._pgcd(rootfinder._primitive(rootfinder._gaussian(p)),
                          rootfinder._primitive(rootfinder._gaussian(q)))
    assert _monic(gcd) == _from_sympy(sympy.gcd(_to_sympy(p), _to_sympy(q)))


def test_perturbed_double_root_clusters():
    eps = Fraction(2, 10**20)
    ind = bop.indicial(op_from([1 - eps], [-2], [1]))
    assert len(ind.roots) == 1
    root = ind.roots[0]
    assert root.multiplicity == 2 and not root.exact
    assert abs(float(root.value.re) - 1.0) <= 1e-9
    assert {(e.z.re, e.p) for e in ind.spec_b} == {(Fraction(1), 0), (Fraction(1), 1)}


def test_irrational_roots_an_integer_apart_form_one_chain():
    # (z^2 - 2)(z^2 - 2z - 1): sqrt(2) and 1 + sqrt(2) differ by exactly 1
    ind = bop.indicial(op_from([2], [4], [-3], [-2], [1]))
    lb, rb = bop.split_spec(ind, Fraction(-1, 2))
    assert len(lb.generators) == 2 and len(rb.generators) == 1
    sqrt2_lb, _ = bop.split_spec(bop.indicial(op_from([-2], [0], [1])), Fraction(-1, 2))
    assert max(g.p for g in lb.extended_union(sqrt2_lb).generators) == 1


def _near_double(c, eps):
    """(z - c)^2 - eps: the real roots c +- sqrt(eps) for eps > 0, close together for a small eps."""
    return [CR.of(c * c - eps), CR.of(-2 * c), CR.of(1)]


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
quadratics = (st.lists(st.builds(CR.of, small_rationals), min_size=3, max_size=3)
              | st.lists(gaussian_rationals, min_size=3, max_size=3)
              | st.lists(st.builds(CR.of, st.integers(-20, 20), st.integers(-20, 20)),
                         min_size=3, max_size=3)
              # near-double real pairs, their roots 2.8e-7 to 2e-5 apart
              | st.builds(lambda c, k, e: _near_double(c, Fraction(k, 10**e)), small_rationals,
                          st.integers(2, 99), st.integers(12, 14))).filter(lambda q: q[-1])


@settings(max_examples=40, deadline=None)
@example([CR.of(2, 2), CR.of(2, 19), CR.of(-11, -15)], 1)  # Im z near 1855144/24888421
@given(quadratics, st.sampled_from([1, 2, 3]))
def test_shifted_irrational_roots_are_accurate_and_share_a_class(q, a):
    # q(z) q(z - a), with q irreducible over the Gaussian rationals: each
    # part of a root is stored as the rational nearest it with denominator
    # at most 10^12 (about 1e-24 from a generic root, but 1.6e-20 from the
    # example's, whose imaginary part lies beside 1855144/24888421; two such
    # rationals can tie to 1e-50, as for sqrt 2, so ties within the 2^-128
    # refinement pass), and rounding commutes with the integer shift
    (factor, _), *rest = _to_sympy(q).factor_list()[1]
    assume(factor.degree() == 2 and not rest)
    roots = bop.polynomial_roots(tuple(_mul(q, _shifted(q, CR.of(-a)))))
    assert len(roots) == 4 and all(r.multiplicity == 1 and not r.exact for r in roots)
    want = _to_sympy(q).nroots(n=40)
    want += [w + a for w in want]
    for r in roots:
        z = sympy.Rational(str(r.value.re)) + sympy.I * sympy.Rational(str(r.value.im))
        w = min(want, key=lambda w: abs(sympy.N(z - w, 40)))
        for stored, part in ((r.value.re, sympy.re(w)), (r.value.im, sympy.im(w))):
            x = Fraction(str(part))
            nearest = x.limit_denominator(10**12)
            assert abs(x - stored) <= abs(x - nearest) + Fraction(1, 10**35), (r.value, w)
    classes = {residue_class(r.value) for r in roots}
    assert len(classes) == 2


real_factors = st.lists(st.integers(-20, 20), min_size=2, max_size=6).filter(lambda f: f[-1])
# (z - c)^2 - eps with |eps| from 10^-26 to 10^-12: a real pair (eps > 0) or a conjugate
# pair (eps < 0) as close as 2e-13 apart, well inside the floats' sqrt(machine eps)
near_double_factors = st.builds(
    lambda c, k, e: [x.re * c.denominator ** 2 for x in _near_double(c, Fraction(k, 10**e))],
    small_rationals, st.integers(-99, 99).filter(bool), st.integers(12, 26))


@settings(max_examples=60, deadline=None)
@example([[-2, 0, 1], [-1 - 2 * 10**20, -2 * 10**20, 10**20]])  # sqrt(2); case 8's factor
# z (z^2 + 10^-18) ((z - 1)^2 - 2 10^-12): the non-real pair +-10^-9 i lies nearer the
# axis than the float errors of the real pair 1 +- 1.4e-6
@example([[0, 1], [Fraction(1, 10**18), 0, 1], [1 - Fraction(2, 10**12), -2, 1]])
@given(st.lists(real_factors | near_double_factors, min_size=1, max_size=3))
def test_real_factors_have_exactly_their_real_roots_on_the_axis(factors):
    # the float root finder puts as many roots of a real square-free factor on
    # the real axis as it has real roots, and no more
    z = sympy.Symbol("z")
    p = [CR.of(1)]
    for f in factors:
        p = _mul(p, [CR.of(c) for c in f])
    for factor, _ in rootfinder._squarefree(rootfinder._primitive(rootfinder._gaussian(p))):
        real = [b for _, b in factor]
        real = [a for a, _ in factor] if not any(real) else real
        want = sympy.Poly(list(reversed(real)), z).count_roots()
        assert rootfinder.real_root_count(real) == want
        if len(factor) > 2:
            values = [v for v, _ in rootfinder._squarefree_roots(factor)]
            assert sum(v.im == 0 for v in values) == want, factor


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=9).filter(lambda f: f[-1]),
       st.integers(1, 3))
def test_sturm_count_agrees_with_sympy(f, power):
    # distinct real roots, also of a polynomial with repeated factors
    p = [1]
    for _ in range(power):
        p = [sum(p[j] * f[k - j] for j in range(len(p)) if 0 <= k - j < len(f))
             for k in range(len(p) + len(f) - 1)]
    want = sympy.Poly(list(reversed(p)), sympy.Symbol("z")).count_roots()
    assert rootfinder.real_root_count(p) == want


def test_indicial_rounds_no_float_into_a_fraction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("indicial rounded a float")

    monkeypatch.setattr(CR, "from_complex", refuse)
    for coeffs in (([-2], [0], [1]),  # +-sqrt(2)
                   ([CR.of(Fraction(1, 3))], [CR.of(1, 1)], [1]),  # complex, irrational
                   ([1 - Fraction(2, 10**20)], [-2], [1])):  # case 8's near-double root
        ind = bop.indicial(op_from(*coeffs))
        assert sum(r.multiplicity for r in ind.roots) == 2
        assert not any(r.exact for r in ind.roots)


def test_operator_json_roundtrip():
    op = op_from([Fraction(1, 2), 3], [CR.of(2, 1)])
    again = bop.BDiffOp.from_jsonable(json.loads(json.dumps(op.to_jsonable())))
    assert again.coeffs == op.coeffs


# -- weight splits ---------------------------------------------------------------


def test_split_first_order_both_sides():
    c = Fraction(2, 3)
    ind = bop.indicial(op_from([c], [1]))  # root -c
    e_lb, e_rb = bop.split_spec(ind, -c + 1)  # above -Re c
    assert e_lb == EMPTY and e_rb == S((c, 0))
    e_lb, e_rb = bop.split_spec(ind, -c - 1)  # below -Re c
    assert e_lb == S((-c, 0)) and e_rb == EMPTY


def test_split_symmetric_second_order():
    ind = bop.indicial(op_from([-1], [0], [1]))  # roots +-1
    e_lb, e_rb = bop.split_spec(ind, 0)
    assert e_lb == S((1, 0)) and e_rb == S((1, 0))


def test_split_rejects_weight_on_root():
    c = Fraction(2, 3)
    ind = bop.indicial(op_from([c], [1]))
    with pytest.raises(InadmissibleWeight, match="weight -2/3 equals root Re z = -2/3"):
        bop.split_spec(ind, -c)
    # an exact root is compared by equality, an inexact one within 1e-9
    assert bop.split_spec(ind, -c + Fraction(1, 10**10)) == (EMPTY, S((c, 0)))
    ind = bop.indicial(op_from([-2], [0], [1]))  # roots +-sqrt(2), stored inexactly
    near = max(r.value.re for r in ind.roots) + Fraction(1, 10**10)
    with pytest.raises(InadmissibleWeight, match="is within 1e-09 of root"):
        bop.split_spec(ind, near)


def test_split_locally_constant_between_roots():
    ind = bop.indicial(op_from([Fraction(-1, 2)], [Fraction(1, 2)], [1]))  # roots 1/2, -1
    assert bop.split_spec(ind, Fraction(-1, 4)) == bop.split_spec(ind, Fraction(1, 4))
    assert bop.split_spec(ind, Fraction(-1, 4)) != bop.split_spec(ind, 2)


def test_split_reassembles_spectrum():
    # roots in different integer chains so completion loses nothing
    ind = bop.indicial(op_from([Fraction(-1, 2)], [Fraction(1, 2)], [1]))  # (z+1)(z-1/2)
    for gamma in (Fraction(-3), Fraction(0), Fraction(4)):
        e_lb, e_rb = bop.split_spec(ind, gamma)
        rebuilt = set()
        for g in e_lb.generators:
            rebuilt.update((g.z, q) for q in range(g.p + 1))
        for g in e_rb.generators:
            rebuilt.update((-g.z, q) for q in range(g.p + 1))
        assert rebuilt == {(e.z, e.p) for e in ind.spec_b}


# -- model inverses ----------------------------------------------------------------


def _kernel_value(kernel, s):
    """k(s) by the scalar reference: the real part of the sum of ``KernelTerm.evaluate``."""
    return sum([t.evaluate(s) for t in kernel.terms], 0.0).real


def test_model_kernel_first_order():
    c = Fraction(1, 2)
    kernel = bop.model_inverse(bop.indicial(op_from([c], [1])), 0)
    assert kernel.terms == (bop.KernelTerm(CR.of(c), 0, "rb", CR.of(1)),)
    assert _kernel_value(kernel, 0.25) == pytest.approx(0.5)
    assert _kernel_value(kernel, 2.0) == 0.0


def test_model_kernel_complex_coefficient():
    c = CR.of(2, 1)
    kernel = bop.model_inverse(bop.indicial(op_from([c], [1])), -1)  # above -Re c = -2
    assert kernel.terms == (bop.KernelTerm(c, 0, "rb", CR.of(1)),)


def test_model_kernel_double_root_makes_log():
    kernel = bop.model_inverse(bop.indicial(op_from([1], [2], [1])), 0)  # (z+1)^2
    assert kernel.terms == (bop.KernelTerm(CR.of(1), 1, "rb", CR.of(1)),)
    s = 0.3
    assert _kernel_value(kernel, s) == pytest.approx(s * math.log(1 / s))


def test_model_kernel_two_sided():
    kernel = bop.model_inverse(bop.indicial(op_from([-1], [0], [1])), 0)  # z^2 - 1
    sides = {(t.side, t.z.re, t.coeff.re) for t in kernel.terms}
    assert sides == {("rb", Fraction(1), Fraction(-1, 2)), ("lb", Fraction(1), Fraction(-1, 2))}
    assert _kernel_value(kernel, 0.5) == pytest.approx(-0.25)
    assert _kernel_value(kernel, 2.0) == pytest.approx(-0.25)


def test_double_root_kernel_matches_self_convolution():
    c = Fraction(1, 2)
    k1 = bop.model_inverse(bop.indicial(op_from([c], [1])), 0)
    kd = bop.model_inverse(bop.indicial(op_from([c * c], [2 * c], [1])), 0)  # (z+c)^2
    grid = np.linspace(0.05, 0.95, 10)
    conv = num.convolve_model_kernels(k1, k1, grid)
    expected = np.array([_kernel_value(kd, s) for s in grid])
    assert np.max(np.abs(conv.values - expected)) < 1e-9


def test_model_kernel_for_irrational_roots():
    op = op_from([-2], [0], [1])  # roots +-sqrt(2), numeric partial fractions
    kernel = bop.model_inverse(bop.indicial(op), 0)
    amp = 1.0 / (2.0 * math.sqrt(2.0))
    for t in kernel.terms:
        assert abs(float(t.z.re) - math.sqrt(2.0)) < 1e-9
        assert abs(float(t.coeff.re) + amp) < 1e-12
    report = num.apply_check(op, kernel, num.smooth_bump(2.0, 1.0), (1.0, 3.0))
    assert report.max_residual < 2e-5


def _partial_fractions(kernel):
    """{(z0, j): A_j} with 1/p(z) = sum A_j / (z - z0)^j, read off the kernel terms."""
    out = {}
    for t in kernel.terms:
        j = t.p + 1
        a = t.coeff * math.factorial(t.p)
        if t.side == "rb":
            out[(-t.z, j)] = a
        else:
            out[(t.z, j)] = a if j % 2 == 0 else -a
    return out


exact_roots = st.dictionaries(
    st.builds(lambda a, b, d: CR.of(Fraction(a, d), Fraction(b, d)),
              st.integers(-9, 9), st.sampled_from([0, 0, 1, -2]), st.integers(1, 4)),
    st.integers(1, 3), min_size=1, max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(exact_roots, st.integers(-3, 3), st.sampled_from([CR.of(1), CR.of(-2), CR.of(1, 1)]))
def test_exact_partial_fractions_sum_to_inverse_polynomial(roots, k, lead):
    poly = [lead * c for c in _product(roots)]
    ind = bop.indicial(op_from(*[[c] for c in poly]))
    assert all(r.exact for r in ind.roots)
    # no root has real part k + 1/1009 (root denominators are at most 4)
    blocks = _partial_fractions(bop.model_inverse(ind, Fraction(k) + Fraction(1, 1009)))
    for w in (CR.of(Fraction(1, 1013)), CR.of(Fraction(-7, 11), Fraction(2, 13))):
        p_w = lead
        for z, m in roots.items():
            for _ in range(m):
                p_w = p_w * (w - z)
        total = CR.of(0)
        for (z, j), a in blocks.items():
            den = CR.of(1)
            for _ in range(j):
                den = den * (w - z)
            total = total + a / den
        assert total == CR.of(1) / p_w


def _mpq(q):
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def _mp(c):
    return mpmath.mpc(_mpq(c.re), _mpq(c.im))


# (square-free rational factors ascending, with multiplicities), leading
# coefficient, weight: irrational roots stored inexactly beside rational ones
_QUAD, _HALF = [Fraction(7, 2), 4, 1], [Fraction(-1, 2), 0, 1]  # -2 +- sqrt(1/2), +-sqrt(1/2)
_MIXED_ROOTS = (
    # the pair -2 +- sqrt(1/2) sits 0.04 from a triple root; weight between them
    ([(_QUAD, 1), ([Fraction(4, 3), 1], 3)], 1, Fraction(-13, 10)),
    # the same cluster with four more roots nearby (perfbench's INEXACT operator)
    ([(_QUAD, 1), (_HALF, 1), ([Fraction(4, 3), 1], 3), ([Fraction(8, 3), 1], 1),
      ([Fraction(5, 2), 1], 1)], 3, Fraction(-9, 8)),
)


def _mixed_operator(factors, lead):
    poly = [CR.of(lead)]
    for coeffs, m in factors:
        for _ in range(m):
            poly = _mul(poly, [CR.of(c) for c in coeffs])
    return op_from(*[[c] for c in poly])


def test_mixed_roots_partial_fractions_match_mpmath_residues():
    for factors, lead, gamma in _MIXED_ROOTS:
        ind = bop.indicial(_mixed_operator(factors, lead))
        assert not all(r.exact for r in ind.roots)
        kernel = bop.model_inverse(ind, gamma)
        assert {t.side for t in kernel.terms} == {"lb", "rb"}
        got = _partial_fractions(kernel)

        mpmath.mp.dps = 50
        roots = [(r, m) for coeffs, m in factors
                 for r in mpmath.polyroots([_mpq(c) for c in reversed(coeffs)], extraprec=200)]

        def rest(z, skip=None):  # lead * prod (z - r)^m over the roots but ``skip``
            out = mpmath.mpf(lead)
            for r, m in roots:
                if r is not skip:
                    out *= (z - r) ** m
            return out

        want = {}
        for r, m in roots:
            taylor = mpmath.taylor(lambda z, r=r: 1 / rest(z, r), r, m - 1)  # of (z - r)^m / P(z)
            want.update({(r, j): taylor[m - j] for j in range(1, m + 1)})
        assert len(got) == len(want)
        for (z, j), a in got.items():
            (wa,) = [wa for (wz, wj), wa in want.items() if wj == j and abs(wz - _mp(z)) < 1e-9]
            assert abs(_mp(a) - wa) <= 1e-9 * abs(wa)
        # the kernel rebuilds 1/P, with P from its exact coefficients
        for w in (mpmath.mpc(0.31, 0.77), mpmath.mpc(-1.13, 0.29), mpmath.mpc(2.41, -0.53),
                  mpmath.mpc(-0.07, -1.9)):
            p_w = lead * mpmath.fprod(mpmath.polyval([_mpq(c) for c in reversed(coeffs)], w) ** m
                                      for coeffs, m in factors)
            total = sum(_mp(a) / (w - _mp(z)) ** j for (z, j), a in got.items())
            assert abs(total * p_w - 1) <= 1e-10


def test_model_inverse_rounds_without_floats(monkeypatch):
    # the partial fractions run on the stored roots: no float enters or leaves
    factors, lead, gamma = _MIXED_ROOTS[1]
    ind = bop.indicial(_mixed_operator(factors, lead))

    def refuse(*args, **kwargs):
        raise AssertionError("model_inverse converted a float")

    monkeypatch.setattr(CR, "as_complex", refuse)
    monkeypatch.setattr(CR, "from_complex", refuse)
    kernel = bop.model_inverse(ind, gamma)
    assert len(kernel.terms) == 9
    assert all(max(t.coeff.re.denominator, t.coeff.im.denominator) <= 10**12 for t in kernel.terms)


def test_model_inverse_rejects_weight_on_root():
    with pytest.raises(InadmissibleWeight):
        bop.model_inverse(bop.indicial(op_from([1], [1])), -1)


# -- apply_check ----------------------------------------------------------------------


def test_boperators_is_exact_code_only():
    # the float oracle is numeric's; boperators names two of its entry points
    # in a module __getattr__, and imports nothing float anywhere else
    tree = ast.parse(Path(bop.__file__).read_text())
    hook = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"]
    assert len(hook) == 1
    hooked = {id(node) for node in ast.walk(hook[0])}
    imported = set()
    for node in ast.walk(tree):
        if id(node) not in hooked and isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif id(node) not in hooked and isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" if node.module else alias.name
                            for alias in node.names)
    assert not {name for name in imported if "numpy" in name or "numeric" in name}, imported
    proc = subprocess.run([sys.executable, "-c", "import sys, bcalc.boperators; "
                           "print([m for m in ('numpy', 'bcalc.numeric') if m in sys.modules])"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr
    assert bop.apply_check is num.apply_check
    assert bop.hs_front_face_criterion is num.hs_front_face_criterion
    for name in ("_apply_kernel", "ApplyCheckReport", "HsReport", "_HS_NODES", "integrate"):
        assert not hasattr(bop, name), name



def test_apply_check_inverts_first_order():
    op = op_from([1], [1])
    kernel = bop.model_inverse(bop.indicial(op), 0)
    v = num.smooth_bump(2.0, 1.0)
    report = num.apply_check(op, kernel, v, (1.0, 3.0))
    assert report.max_residual < 1e-6


def test_apply_check_flags_wrong_side():
    op = op_from([1], [1])
    kernel = bop.model_inverse(bop.indicial(op), 0)
    swapped = bop.ModelKernel(tuple(
        bop.KernelTerm(t.z, t.p, "lb" if t.side == "rb" else "rb", t.coeff)
        for t in kernel.terms
    ))
    v = num.smooth_bump(2.0, 1.0)
    report = num.apply_check(op, swapped, v, (1.0, 3.0))
    assert report.max_residual > 0.01


def test_apply_check_zero_input():
    op = op_from([1], [1])
    kernel = bop.model_inverse(bop.indicial(op), 0)
    report = num.apply_check(op, kernel, lambda t: 0.0, (1.0, 3.0))
    assert report.max_residual == 0.0


def test_apply_check_rejects_variable_coefficients():
    op = op_from([1, 1], [1])
    kernel = bop.model_inverse(bop.indicial(op), 0)
    with pytest.raises(ValueError):
        num.apply_check(op, kernel, lambda t: 0.0, (1.0, 3.0))


def test_apply_check_rejects_non_real_coefficients():
    # z + 1 + i has a complex kernel; reading its real part gave a residual of 0.43
    op = op_from([CR.of(1, 1)], [1])
    kernel = bop.model_inverse(bop.indicial(op), 0)
    with pytest.raises(ValueError, match="real"):
        num.apply_check(op, kernel, num.smooth_bump(2.0, 1.0), (1.0, 3.0))
    # a real operator with the conjugate roots -1 +- i has a real kernel and is checked
    op = op_from([2], [2], [1])
    kernel = bop.model_inverse(bop.indicial(op), 0)
    assert num.apply_check(op, kernel, num.smooth_bump(2.0, 1.0), (1.0, 3.0)).max_residual < 1e-5


# case 9's three first-order kernels and (z+5/4)(z+11/4) below, between and
# above its roots
_FAST_PATH_CASES = [(op_from([c], [1]), 1 - Fraction(c)) for c in (1, Fraction(1, 2), 2)] + [
    (op_from([Fraction(55, 16)], [4], [1]), gamma) for gamma in (0, -2, -3)]


@pytest.mark.parametrize("op, gamma", _FAST_PATH_CASES)
def test_apply_check_kernel_integral_matches_adaptive_quadrature(op, gamma):
    import warnings

    import scipy.integrate

    kernel = bop.model_inverse(bop.indicial(op), gamma)
    v = num.smooth_bump(2.0, 1.0)
    x = np.geomspace(0.6, 5.5, 7)
    u = num._apply_kernel(kernel, v, (1.0, 3.0), x)
    reference = []
    for xi in x:
        with warnings.catch_warnings():  # QUADPACK may warn of roundoff at 1e-14
            warnings.simplefilter("ignore")
            reference.append(scipy.integrate.quad(
                lambda t: _kernel_value(kernel, t / xi) * v(t) / t, 1.0, 3.0,
                points=[xi] if 1.0 < xi < 3.0 else None, epsabs=1e-14, epsrel=1e-14,
                limit=500)[0])
    reference = np.array(reference)
    assert np.max(np.abs(u - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_apply_check_separates_a_kernel_off_by_one_part_in_ten_million():
    op = op_from([1], [1])
    kernel = bop.model_inverse(bop.indicial(op), 0)
    (term,) = kernel.terms
    scaled = bop.ModelKernel((bop.KernelTerm(
        term.z, term.p, term.side, term.coeff * CR.of(1 + Fraction(1, 10 ** 7))),))
    v = num.smooth_bump(2.0, 1.0)
    exact = num.apply_check(op, kernel, v, (1.0, 3.0))
    assert exact.max_residual < 2e-8
    assert num.apply_check(op, scaled, v, (1.0, 3.0)).max_residual > 5e-8
    assert (exact.grid_points, exact.nodes) == (1244, 200)
    assert exact.log_step == pytest.approx(math.log(12.0) / 1243) and exact.log_step <= 0.002


def test_apply_check_separates_a_kernel_off_by_one_part_in_a_hundred_million():
    # the sixth-order stencil read 1.103e-8 for both kernels
    op = op_from([1], [1])
    kernel = bop.model_inverse(bop.indicial(op), 0)
    (term,) = kernel.terms
    scaled = bop.ModelKernel((bop.KernelTerm(
        term.z, term.p, term.side, term.coeff * CR.of(1 + Fraction(1, 10 ** 8))),))
    v = num.smooth_bump(2.0, 1.0)
    assert num.apply_check(op, kernel, v, (1.0, 3.0)).max_residual < 2e-9
    assert num.apply_check(op, scaled, v, (1.0, 3.0)).max_residual > 8e-9


def test_apply_check_budget_refuses_the_supports_it_always_refused():
    # b/a above about 2.67e12 needs more than _GRID_BUDGET points at log step 0.002
    op = op_from([1], [1])
    kernel = bop.model_inverse(bop.indicial(op), 0)
    report = num.apply_check(op, kernel, lambda t: 0.0, (1.0, 2e12))
    assert report.max_residual == 0.0 and report.grid_points == 14857
    with pytest.raises(ValueError, match="budget of 15000 grid points"):
        num.apply_check(op, kernel, lambda t: 0.0, (1.0, 3e12))


def test_apply_check_below_both_roots_reads_the_stencil_floor():
    # the kernel grows like s^(11/4) on s > 1; adaptive quadrature read 8.6e-5 here
    op = op_from([Fraction(55, 16)], [4], [1])
    report = num.apply_check(op, bop.model_inverse(bop.indicial(op), -3),
                             num.smooth_bump(2.0, 1.0), (1.0, 3.0))
    assert report.max_residual < 1e-7


def test_apply_check_refuses_a_kernel_that_overflows_the_grid():
    # weight -3000 below the root -2000: the kernel grows like s^2000 on s > 1
    op = op_from([2000], [1])
    with pytest.raises(QuadratureError, match="overflow"):
        num.apply_check(op, bop.model_inverse(bop.indicial(op), -3000),
                        num.smooth_bump(2.0, 1.0), (1.0, 3.0))


# -- descriptor algebra ------------------------------------------------------------------


def test_compose_descriptors_model_inverse_squared():
    c = Fraction(2, 3)
    q = bop.FullCalcDescriptor(-1.0, EMPTY, S((c, 0)))
    qq = bop.compose_descriptors(q, q)
    assert qq.order == -2.0
    assert qq.E_lb == EMPTY
    assert qq.E_rb == S((c, 0), (c, 1))


def test_compose_descriptors_identity_neutral():
    p = bop.FullCalcDescriptor(2.0, S((1, 0)), S((Fraction(1, 2), 1)))
    assert bop.compose_descriptors(p, bop.IDENTITY_DESCRIPTOR) == p
    assert bop.compose_descriptors(bop.IDENTITY_DESCRIPTOR, p) == p


def test_compose_descriptors_threshold():
    p = bop.FullCalcDescriptor(0.0, EMPTY, S((0, 0)))
    q = bop.FullCalcDescriptor(0.0, S((0, 0)), EMPTY)
    with pytest.raises(CompositionUndefined):
        bop.compose_descriptors(p, q)


def test_compose_log_growth_bounded():
    a = S((1, 1))
    p = bop.FullCalcDescriptor(0.0, a, a)
    pp = bop.compose_descriptors(p, p)
    for entry in pp.E_rb.truncate(5):
        base = a.max_log_power(entry.z)
        assert entry.p <= 2 * base + 1


def test_action_index_examples():
    c = Fraction(2, 3)
    q = bop.FullCalcDescriptor(-1.0, EMPTY, S((c, 0)))
    assert bop.action_index(q, SMOOTH) == SMOOTH
    w = Fraction(1, 5)
    assert bop.action_index(q, S((w, 0))) == S((w, 0))
    with pytest.raises(CompositionUndefined):
        bop.action_index(q, S((-c, 0)))


def test_descriptor_json_roundtrip():
    d = bop.FullCalcDescriptor(-math.inf, S((1, 0)), EMPTY)
    again = bop.FullCalcDescriptor.from_jsonable(json.loads(json.dumps(d.to_jsonable())))
    assert again == d


# -- parametrix bookkeeping -----------------------------------------------------------------


def test_parametrix_step_zero_is_small_calculus():
    op = op_from([Fraction(1, 2)], [1])
    report = bop.parametrix_indices(op, 0, 0)
    assert report.parametrix == bop.FullCalcDescriptor(-1.0, EMPTY, EMPTY)
    assert report.remainder.E_lb == EMPTY and report.remainder.E_rb == EMPTY


def test_parametrix_first_step_carries_split():
    c = Fraction(1, 2)
    report = bop.parametrix_indices(op_from([c], [1]), 0, 1)
    assert report.parametrix == bop.FullCalcDescriptor(-1.0, EMPTY, S((c, 0)))
    assert report.remainder.E_rb == S((c, 0))


def test_parametrix_second_step_raises_log_power():
    c = Fraction(1, 2)
    report = bop.parametrix_indices(op_from([c], [1]), 0, 2)
    assert report.parametrix.E_rb == S((c, 0), (c, 1))
    assert report.parametrix.E_lb == EMPTY
    assert report.remainder.E_rb == S((c, 0), (c, 1))
    assert len(report.steps) >= 2


def test_parametrix_split_always_composable():
    # the weight split guarantees inf E_rb + inf E_lb > 0, so deep Neumann
    # iterations never hit the composition threshold
    op = op_from([Fraction(-1, 2)], [Fraction(1, 2)], [1])  # roots 1/2 and -1
    report = bop.parametrix_indices(op, 0, 4)
    assert report.parametrix.E_lb.max_log_power(Fraction(1, 2)) == 3
    assert report.parametrix.E_rb.max_log_power(Fraction(1)) == 3


def test_parametrix_steps_are_bounded():
    # every step adds a log power and a line to the report
    op = op_from([Fraction(-1, 4)], [0], [1])  # (x d/dx)^2 - 1/4
    with pytest.raises(ValueError, match="10000"):
        bop.parametrix_indices(op, 0, 10_001)
    with pytest.raises(ValueError):
        bop.parametrix_indices(op, 0, -1)


@settings(max_examples=60, deadline=None)
@given(rational_roots, st.integers(-13, 12), st.integers(0, 4))
def test_parametrix_never_reaches_the_composition_threshold(roots, k, steps):
    # an admissible weight gives inf E_rb > -gamma and inf E_lb > gamma, so
    # every Neumann composition has a positive threshold sum
    gamma = Fraction(k) + Fraction(1, 1009)  # no root has this real part (denominators <= 8)
    report = bop.parametrix_indices(op_from(*[[c] for c in _product(roots)]), gamma, steps)
    assert report.parametrix.order == -sum(roots.values())


# -- front-face criterion ----------------------------------------------------------------


#: The bump's squared front-face norm, int_{1/2}^{3/2} bump(s)^2 ds/s, by mpmath at 30 digits.
HS_BUMP = 0.50682472638052931


def test_hs_zero_kernel():
    # a scalar kernel value stands for every point of the grid
    report = num.hs_front_face_criterion(lambda x, s: 0.0, 4.0, 1e-3)
    assert report.slope == pytest.approx(0.0, abs=1e-12)
    assert report.reference == pytest.approx(0.0, abs=1e-12)
    assert all(n == pytest.approx(0.0, abs=1e-12) for n in report.norms)


def test_hs_vanishing_restriction_has_bounded_norm():
    bump = num.smooth_bump(1.0, 0.5)
    report = num.hs_front_face_criterion(lambda x, s: x * bump(s), 4.0, 1e-2)
    assert abs(report.slope) < 1e-4
    assert report.reference == pytest.approx(0.0, abs=1e-12)


def test_hs_slopes_match_the_front_face_integrals():
    bump = num.smooth_bump(1.0, 0.5)
    # over [1/C, C], the bump's C^infinity edges inside the pieces
    report = num.hs_front_face_criterion(lambda x, s: bump(s), 4.0, 1e-3)
    assert abs(report.slope - HS_BUMP) < 1e-13
    assert abs(report.reference - HS_BUMP) < 1e-13
    for c in (4.0, 1e3, 1e10):
        report = num.hs_front_face_criterion(lambda x, s: bump(s), c, 1e-3, s_support=(0.5, 1.5))
        assert abs(report.slope - HS_BUMP) < 1e-13, c
    # x * bump: the norms' increments vanish like eps^2, and QUADPACK read the
    # slope of their regression as 3.3125587e-8
    for kwargs in ({}, {"s_support": (0.5, 1.5)}):
        report = num.hs_front_face_criterion(lambda x, s: x * bump(s), 4.0, 1e-3, **kwargs)
        assert report.slope == pytest.approx(3.3125587e-8, rel=1e-5), kwargs


def test_acceptance_case_12_reads_the_bump_slope_to_rounding(monkeypatch):
    from bcalc import verify

    reports, probe = [], bop.hs_front_face_criterion
    monkeypatch.setattr(bop, "hs_front_face_criterion",
                        lambda *args: reports.append(probe(*args)) or reports[-1])
    verify.case_front_face_criterion()
    vanishing, bump = reports
    assert abs(bump.slope - HS_BUMP) < 1e-13
    assert vanishing.slope == pytest.approx(3.3125587e-8, rel=1e-5)


def test_hs_calls_the_kernel_on_blocks_of_x():
    bump = num.smooth_bump(1.0, 0.5)
    for kwargs, s_nodes in (({}, 2 * num._HS_NODES), ({"s_support": (0.5, 1.5)}, num._HS_SUPPORT_NODES)):
        shapes = []

        def kernel(x, s):
            shapes.append(np.broadcast(x, s).shape)
            return x * bump(s)

        num.hs_front_face_criterion(kernel, 4.0, 1e-3, **kwargs)
        # an (x column) x (s row) grid, at most _HS_BLOCK x values to a call
        assert all(len(shape) == 2 and shape[1] == s_nodes for shape in shapes), kwargs
        assert max(shape[0] for shape in shapes) == num._HS_BLOCK <= 32, kwargs


def test_hs_refuses_what_it_cannot_integrate():
    with pytest.raises(QuadratureError):
        num.hs_front_face_criterion(lambda x, s: np.nan * s, 4.0, 1e-3)
    for c, eps, support in ((1.0, 0.5, None), (0.5, 1e-3, None), (4.0, 4.0, None),
                            (1e11, 1e-3, None), (4.0, 1e-3, (5.0, 6.0)), (4.0, 1e-3, (1.0, 1.0)),
                            (1.5, 1e-3, (0.5, 1.5)), (4.0, 1e-3, (0.2, 1.0))):
        with pytest.raises(ValueError):
            num.hs_front_face_criterion(lambda x, s: 0.0, c, eps, s_support=support)
    # the bottom rung eps * 1e-3 needs a finite reciprocal for the regression's log(1/e)
    for eps in (5e-306, 1e-320, 5e-324):
        with pytest.raises(ValueError, match="finite 1/"):
            num.hs_front_face_criterion(lambda x, s: 0.0, 4.0, eps)


def test_polynomial_roots_admits_a_quadratic_with_4000_digit_coefficients():
    # 39,873 bits, inside _BITS_BUDGET, and degree^2 x bits far inside
    # _DEGREE_BITS_BUDGET; test_cli's
    # test_op_actions_refuse_an_indicial_polynomial_beyond_its_budget has the refusals
    k = 10 ** 4000 + 1
    roots = bop.polynomial_roots((CR.of(2 * k), CR.of(-7 * k), CR.of(3 * k)))
    assert [(r.value, r.multiplicity, r.exact) for r in roots] == [
        (CR.of(Fraction(1, 3)), 1, True), (CR.of(2), 1, True)]
