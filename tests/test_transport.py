import math
import random
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bcalc import bmaps
from bcalc import geometry as geo
from bcalc import numeric as num
from bcalc import transport
from bcalc.errors import BMapError, NotBFibration
from bcalc.indexsets import EMPTY, SMOOTH, IndexFamily, IndexSet
from bcalc.rationals import ComplexRational as CR


def S(*entries):
    return IndexSet.from_entries(entries)


LOG_SET = SMOOTH.extended_union(SMOOTH)


def identity(lattice):
    return geo.BMapDescriptor.from_table(lattice, lattice, {(g, g): 1 for g in lattice.bhs_names},
                                         fibration_on_faces=True)


# -- pull-back -----------------------------------------------------------------


def test_pullback_monomial_through_corner_blowdown():
    bd = geo.x2b_blowdown()
    a, b = Fraction(2, 3), Fraction(5, 4)
    fam = IndexFamily.of({"Hx": S((a, 0)), "Hy": S((b, 0))}, bd.target)
    pulled = transport.pull_back_family(bd, fam)
    assert pulled["lb"] == S((a, 0))
    assert pulled["rb"] == S((b, 0))
    assert pulled["ff"] == S((a + b, 0))


def test_pullback_through_second_factor_projection():
    pi2 = bmaps.halfline_projection(2)
    fam = IndexFamily.of({"H": S((Fraction(1, 2), 1))}, pi2.target)
    pulled = transport.pull_back_family(pi2, fam)
    assert pulled["lb"] == SMOOTH  # maps off the boundary: smooth behavior
    assert pulled["ff"] == S((Fraction(1, 2), 1))
    assert pulled["rb"] == S((Fraction(1, 2), 1))


def test_pullback_identity():
    lat = geo.x2b_lattice()
    ident = identity(lat)
    fam = IndexFamily.of({"lb": EMPTY, "rb": S((1, 1)), "ff": SMOOTH}, lat)
    assert transport.pull_back_family(ident, fam) == fam


def test_pullback_empty_factor_gives_empty():
    bd = geo.x2b_blowdown()
    fam = IndexFamily.of({"Hx": EMPTY, "Hy": SMOOTH}, bd.target)
    pulled = transport.pull_back_family(bd, fam)
    assert pulled["ff"].is_empty  # vanishing to infinite order propagates
    assert pulled["lb"].is_empty
    assert pulled["rb"] == SMOOTH


def test_pullback_log_powers_add():
    bd = geo.x2b_blowdown()
    fam = IndexFamily.of({"Hx": S((1, 1)), "Hy": S((2, 2))}, bd.target)
    pulled = transport.pull_back_family(bd, fam)
    assert pulled["ff"] == S((3, 3))


def test_pullback_family_mismatch():
    bd = geo.x2b_blowdown()
    fam = IndexFamily.of({"H": SMOOTH}, geo.halfline())
    with pytest.raises(BMapError):
        transport.pull_back_family(bd, fam)


def test_pullback_inf_is_weighted_sum_of_infs():
    bd = geo.x2b_blowdown()
    for a, b in [(Fraction(1, 2), Fraction(3)), (Fraction(-1), Fraction(2, 5))]:
        fam = IndexFamily.of(
            {"Hx": S((a, 0), (a + 2, 1)), "Hy": S((b, 1))}, bd.target
        )
        pulled = transport.pull_back_family(bd, fam)
        assert pulled["ff"].inf_re() == a + b
        assert pulled["lb"].inf_re() == a
        assert pulled["rb"].inf_re() == b


# -- push-forward to the half-line -------------------------------------------------


def test_pushforward_smooth_data_makes_one_log():
    f = bmaps.halfline_projection(1)
    fam = IndexFamily.of({"lb": SMOOTH, "ff": SMOOTH, "rb": S((1, 0))}, f.source)
    report = transport.push_forward_halfline(f, fam)
    assert report.integrability_ok
    assert report.result == LOG_SET


def test_pushforward_empty_side_stays_smooth():
    f = bmaps.halfline_projection(1)
    fam = IndexFamily.of({"lb": EMPTY, "ff": SMOOTH, "rb": S((1, 0))}, f.source)
    report = transport.push_forward_halfline(f, fam)
    assert report.result == SMOOTH


def test_pushforward_scales_exponents_by_vanishing_order():
    src = geo.model_quadrant(1, 1, ("G",))
    f = geo.BMapDescriptor(src, geo.halfline(), ((2,),), fibration_on_faces=True)
    fam = IndexFamily.of({"G": S((1, 0))}, src)
    report = transport.push_forward_halfline(f, fam)
    # z/2 over z in {1, 2, 3, ...}: both half-integer chains appear
    assert report.result == S((Fraction(1, 2), 0), (1, 0))
    assert report.result.inf_re() == Fraction(1, 2)
    assert report.result.contains(Fraction(3, 2), 0)


def test_pushforward_integrability_flags():
    f = bmaps.halfline_projection(1)
    fam = IndexFamily.of({"lb": SMOOTH, "ff": SMOOTH, "rb": S((0, 0))}, f.source)
    report = transport.push_forward_halfline(f, fam)
    assert not report.integrability_ok
    assert report.violating_bhs == ("rb",)
    assert report.result == LOG_SET  # still computed for inspection


def test_pushforward_needs_halfline_target():
    pi3 = bmaps.lifted_projection(3)
    fam = IndexFamily.of({n: SMOOTH for n in pi3.source.bhs_names}, pi3.source)
    with pytest.raises(BMapError):
        transport.push_forward_halfline(pi3, fam)


def test_face_table_records_every_face():
    f = bmaps.halfline_projection(1)
    fam = IndexFamily.of({"lb": SMOOTH, "ff": SMOOTH, "rb": S((1, 0))}, f.source)
    table = transport.push_forward_halfline(f, fam).face_contributions["H"]
    assert set(table) == set(f.source.proper_faces())
    assert table[frozenset({"rb"})].is_empty
    assert table[frozenset({"lb", "ff"})] == LOG_SET


# -- push-forward along a general b-fibration ----------------------------------------


def test_pushforward_family_identity():
    lat = geo.x2b_lattice()
    ident = identity(lat)
    fam = IndexFamily.of({"lb": S((1, 0)), "rb": S((2, 1)), "ff": SMOOTH}, lat)
    report = transport.push_forward_family(ident, fam)
    assert report.result == fam


def test_pushforward_family_refuses_blowdown():
    bd = geo.x2b_blowdown()
    fam = IndexFamily.of({n: SMOOTH for n in bd.source.bhs_names}, bd.source)
    with pytest.raises(NotBFibration):
        transport.push_forward_family(bd, fam)


def test_pushforward_family_through_lifted_projection():
    pi3 = bmaps.lifted_projection(3)
    fam = IndexFamily.of(
        {n: (EMPTY if n == "bf3" else SMOOTH) for n in pi3.source.bhs_names},
        pi3.source,
    )
    report = transport.push_forward_family(pi3, fam)
    assert report.integrability_ok
    for h in ("lb", "rb", "ff"):
        assert report.result[h] == LOG_SET


def test_pushforward_family_global_integrability():
    pi3 = bmaps.lifted_projection(3)
    fam = IndexFamily.of(
        {n: SMOOTH for n in pi3.source.bhs_names}, pi3.source
    )  # bf3 maps to the interior but has inf 0
    report = transport.push_forward_family(pi3, fam)
    assert not report.integrability_ok
    assert report.violating_bhs == ("bf3",)


def test_pushforward_table_is_the_sorted_fold_per_face():
    pi3 = bmaps.lifted_projection(3)
    rng = random.Random(3)

    def random_set():
        entries = []
        for _ in range(rng.randint(0, 3)):
            z = CR(Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))), Fraction(rng.randint(0, 1)))
            entries.append((z, rng.randint(0, 2)))
        return IndexSet.from_entries(entries)

    fam = IndexFamily.of({n: random_set() for n in pi3.source.bhs_names}, pi3.source)
    report = transport.push_forward_family(pi3, fam)
    for h in pi3.target.bhs_names:
        column = pi3.column(h)
        table = report.face_contributions[h]
        assert set(table) == set(pi3.source.proper_faces())
        union = EMPTY
        for face, got in table.items():
            fold = EMPTY
            for g in sorted(face):
                if column[g] > 0:
                    fold = fold.extended_union(fam[g].scale_down(column[g]))
            assert got == fold, (h, sorted(face))
            union = union | fold
        assert report.result[h] == union


def test_pushforward_functorial_on_permutations():
    q = geo.model_quadrant(3, 3, ("a", "b", "c"))
    swap_ab = geo.BMapDescriptor.from_table(
        q, q, {("a", "b"): 1, ("b", "a"): 1, ("c", "c"): 1}, fibration_on_faces=True
    )
    cycle = geo.BMapDescriptor.from_table(
        q, q, {("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1}, fibration_on_faces=True
    )
    fam = IndexFamily.of({"a": S((1, 0)), "b": S((Fraction(1, 2), 1)), "c": SMOOTH.shift(1)}, q)
    combined = transport.push_forward_family(bmaps.compose(swap_ab, cycle), fam)
    staged = transport.push_forward_family(
        cycle, transport.push_forward_family(swap_ab, fam).result
    )
    assert combined.result == staged.result


# -- symbolic prediction against the quadrature oracle -----------------------------------


def test_symbolic_pushforward_contains_all_fitted_terms():
    # u(x, y) = sqrt(x^2 + y^2) integrated in y over (0, 1]:
    # the b-density coefficient of u dx dy lifts with index sets
    # (lift of {x=0}: 1+N0, front face: 3+N0, lift of {y=0}: 1+N0);
    # pushing forward and undoing the density shift predicts the terms of
    # the integral itself.
    bd = geo.x2b_blowdown()
    xy = transport.pull_back_family(
        bd, IndexFamily.of({"Hx": S((1, 0)), "Hy": S((1, 0))}, bd.target)
    )
    u_sets = IndexFamily.of({"lb": SMOOTH, "ff": S((1, 0)), "rb": SMOOTH}, bd.source)
    coeff_sets = xy.sum_with(u_sets)
    assert coeff_sets["ff"] == S((3, 0))

    pushed = transport.push_forward_halfline(bmaps.halfline_projection(1), coeff_sets)
    assert pushed.integrability_ok
    assert pushed.result == S((1, 0), (3, 1))
    predicted = pushed.result.shift(-1)
    assert predicted == S((0, 0), (2, 1))

    u = num.SampledFunction2D(lambda x, y: math.hypot(x, y), support=1.0)
    grid = num.geometric_grid(0.3, 0.9, 70)
    samples = num.numeric_pushforward(u, num.QuadratureSpec(1e-12, 1e-12, 300), grid)
    fit = num.fit_expansion(grid, samples.values, LOG_SET, 6)
    report = num.compare_with_prediction(fit, predicted, 6)
    assert report["contained"], report
    # and the prediction is sharp where it promises a log
    assert abs(fit.coeff(2, 1) - 0.5) < 1e-4


# -- the half-line push-forward against the exact Mellin transform -------------------
#
# On [0, 1]^k push u = prod_H x_H^(a_H) (1 - x_H)^N dx_H/x_H forward along
# t = prod_H x_H^(e_H).  Its Mellin transform, int_0^1 t^w (pushed u) dt/t, is
# prod_H B(a_H + e_H w, N + 1), and B(s, N + 1) = N!/(s (s + 1) ... (s + N)) has a
# simple pole at each s = 0, -1, ..., -N and no zero.  As int_0^1 t^(z + w)
# log^p(1/t) dt/t = p!/(w + z)^(p + 1), a pole at w = -z of order m is exactly a
# term t^z log^(m - 1)(1/t).  A factor with e_H = 0 is the constant B(a_H, N + 1),
# an integral that converges exactly when a_H > 0: the integrability audit.  The
# expansion of u at H has the exponents a_H + j, j <= N, only, so the index set
# {(a_H, 0)} + N0 is exact below the cut min over e_H > 0 of (a_H + N)/e_H.

MELLIN_N = 12


def mellin_pole_orders(e, a):
    """{z: order of the pole of prod_H B(a_H + e_H w, N + 1) at w = -z}."""
    return Counter((a_h + j) / e_h for e_h, a_h in zip(e, a) if e_h for j in range(MELLIN_N + 1))


@st.composite
def monomial_maps(draw):
    """(e, a): vanishing orders 0..3, not all 0, and rational a_H, on k <= 4 hypersurfaces."""
    k = draw(st.integers(1, 4))
    e = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    a = draw(st.lists(st.builds(Fraction, st.integers(-6, 8), st.integers(1, 4)),
                      min_size=k, max_size=k))
    return e, a


@settings(max_examples=150, deadline=None)
@given(monomial_maps())
def test_halfline_pushforward_has_the_poles_of_the_mellin_transform(case):
    e, a = case
    names = tuple(f"H{i + 1}" for i in range(len(e)))
    corner = geo.model_quadrant(len(e), len(e), names)
    f = geo.BMapDescriptor.from_table(corner, geo.halfline("t"),
                                      {(h, "t"): e_h for h, e_h in zip(names, e)},
                                      fibration_on_faces=True)
    family = IndexFamily.of({h: S((a_h, 0)) for h, a_h in zip(names, a)}, corner)
    report = transport.push_forward_halfline(f, family)
    cut = min((a_h + MELLIN_N) / e_h for e_h, a_h in zip(e, a) if e_h)
    poles = {(CR(z), p) for z, m in mellin_pole_orders(e, a).items() if z <= cut
             for p in range(m)}
    assert {(m.z, m.p) for m in report.result.truncate(cut)} == poles
    assert report.integrability_ok == all(a_h > 0 for e_h, a_h in zip(e, a) if not e_h)


@st.composite
def monomial_chains(draw):
    """(rows, e, a): a monomial map X -> Y of model corners (k, m <= 4, exponents 0..3),
    vanishing orders 0..3 of Y -> half-line, the composite not identically 0 at the
    boundary, and rational a_H on Y."""
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 3)] * m), min_size=k, max_size=k))
    e = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)
             .filter(lambda e: any(sum(r * e_h for r, e_h in zip(row, e)) for row in rows)))
    a = draw(st.lists(st.builds(Fraction, st.integers(-6, 8), st.integers(1, 4)),
                      min_size=m, max_size=m))
    return rows, e, a


@settings(max_examples=150, deadline=None)
@given(monomial_chains())
def test_pullback_then_pushforward_has_the_poles_of_the_mellin_transform(case):
    # pulled back along f, prod_H y_H^(a_H) (1 - y_H)^N is prod_G x_G^(b_G), with
    # b_G = sum_H e(G, H) a_H, times a smooth factor: it has the index sets of
    # prod_G x_G^(b_G) (1 - x_G)^N, whose push-forward along the composite
    # t = prod_G x_G^(e'_G) has the poles of prod_G B(b_G + e'_G w, N + 1)
    rows, e, a = case
    xs = tuple(f"G{i + 1}" for i in range(len(rows)))
    ys = tuple(f"H{j + 1}" for j in range(len(e)))
    x, y = geo.model_quadrant(len(xs), len(xs), xs), geo.model_quadrant(len(ys), len(ys), ys)
    f = geo.BMapDescriptor(x, y, tuple(rows))
    g = geo.BMapDescriptor.from_table(y, geo.halfline("t"), dict(zip([(h, "t") for h in ys], e)),
                                      fibration_on_faces=True)
    family = IndexFamily.of({h: S((a_h, 0)) for h, a_h in zip(ys, a)}, y)
    pulled = transport.pull_back_family(f, family)
    composite = bmaps.compose(f, g)
    e_x = [row[0] for row in composite.exponents]
    b = [sum(r * a_h for r, a_h in zip(row, a)) for row in rows]
    report = transport.push_forward_halfline(composite, pulled)
    cut = min((b_g + MELLIN_N) / e_g for e_g, b_g in zip(e_x, b) if e_g)
    poles = {(CR(z), p) for z, m in mellin_pole_orders(e_x, b).items() if z <= cut
             for p in range(m)}
    assert {(m.z, m.p) for m in report.result.truncate(cut)} == poles
    assert report.integrability_ok == all(b_g > 0 for e_g, b_g in zip(e_x, b) if not e_g)
