import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from bcalc.indexsets import (
    EMPTY,
    SMOOTH,
    IndexEntry,
    IndexFamily,
    IndexSet,
    complete,
    residue_class,
)
from bcalc.geometry import model_quadrant
from bcalc.errors import SchemaError
from bcalc.rationals import ComplexRational as CR, as_fraction
from bcalc.serialize import parse_object


def S(*entries):
    return IndexSet.from_entries(entries)


def gens(s):
    return {(g.z.re, g.z.im, g.p) for g in s.generators}


# -- construction and completion ---------------------------------------------


def test_complete_empty():
    assert complete([]) == EMPTY
    assert EMPTY.is_empty


def test_complete_single_zero_is_smooth_chain():
    s = complete([(0, 0)])
    assert s == SMOOTH
    assert [e.z.re for e in s.truncate(4)] == [0, 1, 2, 3, 4]
    assert all(e.p == 0 for e in s.truncate(4))


def test_complete_keeps_incomparable_generators():
    s = complete([(-1, 0), (0, 1)])
    assert gens(s) == {(Fraction(-1), 0, 0), (Fraction(0), 0, 1)}


def test_complete_idempotent():
    s = complete([(Fraction(1, 2), 2), (Fraction(3, 2), 1), (2, 0)])
    assert IndexSet.from_entries(s.sorted_generators()) == s


def test_reduction_drops_implied_entries():
    # (3, 1) lies in the closure of (1, 2)
    s = complete([(1, 2), (3, 1)])
    assert gens(s) == {(Fraction(1), 0, 2)}


def test_log_power_must_be_non_negative():
    with pytest.raises(ValueError):
        IndexEntry(CR.of(0), -1)


# -- membership, truncation, inf ----------------------------------------------


def test_membership_rule():
    s = S((Fraction(1, 2), 1))
    assert s.contains(Fraction(1, 2), 1)
    assert s.contains(Fraction(5, 2), 0)
    assert not s.contains(Fraction(1, 2), 2)
    assert not s.contains(Fraction(3, 4), 0)
    assert not s.contains(Fraction(-1, 2), 0)


def test_truncate_examples():
    assert [(e.z.re, e.p) for e in SMOOTH.truncate(2)] == [(0, 0), (1, 0), (2, 0)]
    assert EMPTY.truncate(100) == ()
    half = S((Fraction(1, 2), 1))
    assert [(e.z.re, e.p) for e in half.truncate(Fraction(5, 2))] == [
        (Fraction(1, 2), 0), (Fraction(1, 2), 1),
        (Fraction(3, 2), 0), (Fraction(3, 2), 1),
        (Fraction(5, 2), 0), (Fraction(5, 2), 1),
    ]


def test_truncate_is_bounded_by_its_member_budget():
    # a class counts each run once: (0, 1) and (3, 2) cover 3*2 + 8*3 members up to 10
    assert len(S((0, 1), (3, 2)).truncate(10)) == 30
    assert len(S((-9989, 0)).truncate(10)) == 10_000  # exactly the budget
    for s in (S((-9990, 0)), S((-20000, 0)), S((0, 3000)), S((CR.of(-10**6, 1), 0))):
        with pytest.raises(ValueError, match="budget"):
            s.truncate(10)
    # a bound between two integer steps lists the steps below it
    assert len(S((-9990, 0)).truncate(Fraction(-1, 2))) == 9990


def test_non_finite_bounds_and_scalars_are_refused():
    # no Fraction stands for a non-finite float, so it is bad input, not an overflow
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            CR.of(value)
        with pytest.raises(ValueError):
            SMOOTH.truncate(value)


def test_floats_are_refused_and_nothing_is_coerced():
    # ComplexRational.from_complex is the one place that rounds a float
    for value in (0.5, 1.0, -0.0):
        with pytest.raises(ValueError):
            as_fraction(value)
        with pytest.raises(ValueError):
            SMOOTH.truncate(value)
    for value in (0.5j, (1, 2)):
        with pytest.raises(TypeError):
            CR.of(value)
    for p in (True, 1.0):  # the constructor decides, so no int(p) reads these as 1
        with pytest.raises(ValueError):
            IndexEntry.of((0, p))
    with pytest.raises(SchemaError):
        parse_object({"generators": [{"re": 0.5, "p": 0}]})
    assert parse_object({"generators": [{"re": 1, "p": 0}]}) == S((1, 0))


def test_scalar_strings_are_bounded():
    assert CR.of("1e4300").re == 10**4300
    assert CR.of("1" * 4300).re == int("1" * 4300)
    for text in ("1e4301", "1e-4301", "-2.5E+10000000", "1" * 4301, "1/" + "7" * 4400):
        with pytest.raises(ValueError):
            CR.of(text)


def test_inf_re():
    assert S((2, 0), (3, 1)).inf_re() == 2
    assert EMPTY.inf_re() == math.inf
    assert S((-1, 0), (Fraction(1, 2), 0)).inf_re() == -1


# -- union, extended union, sum ------------------------------------------------


def test_union_examples():
    assert EMPTY.union(S((1, 0))) == S((1, 0))
    assert S((0, 0)).union(S((0, 0))) == S((0, 0))
    assert gens(S((0, 0)) | S((Fraction(1, 2), 0))) == {
        (Fraction(0), 0, 0), (Fraction(1, 2), 0, 0)
    }


def test_extended_union_trivial_cases():
    f = S((Fraction(3, 2), 2))
    assert EMPTY.extended_union(f) == f
    assert f.extended_union(EMPTY) == f


def test_extended_union_two_smooth_sets():
    lg = SMOOTH.extended_union(SMOOTH)
    assert [(e.z.re, e.p) for e in lg.truncate(1)] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_extended_union_same_exponent():
    c = Fraction(2, 3)
    s = S((c, 0)).extended_union(S((c, 0)))
    assert gens(s) == {(c, 0, 1)}  # (c,1) implies (c,0)
    assert s.contains(c, 0) and s.contains(c, 1) and s.contains(c + 1, 1)


def test_extended_union_different_chains_no_cross_terms():
    s = S((0, 0)).extended_union(S((Fraction(1, 2), 0)))
    assert s.max_log_power(0) == 0
    assert s.max_log_power(Fraction(1, 2)) == 0


def test_extended_union_shifted_chains_cross_at_larger_re():
    # chains {0,1,2,...} and {2,3,...} share z >= 2
    s = S((0, 0)).extended_union(S((2, 0)))
    assert s.max_log_power(0) == 0
    assert s.max_log_power(1) == 0
    assert s.max_log_power(2) == 1


def test_sum_examples():
    assert SMOOTH + SMOOTH == SMOOTH
    c = Fraction(2, 3)
    assert S((c, 0)) + SMOOTH == S((c, 0))
    assert gens(S((Fraction(1, 2), 1)) + S((Fraction(1, 3), 2))) == {
        (Fraction(5, 6), 0, 3)
    }
    assert (EMPTY + SMOOTH).is_empty


# -- shift / scale ---------------------------------------------------------------


def test_shift_and_scale():
    s = S((1, 0))
    assert s.shift(1) == S((2, 0))
    assert s.shift(-1).inf_re() == 0
    scaled = s.scale_down(2)
    assert gens(scaled) == {(Fraction(1, 2), 0, 0), (Fraction(1), 0, 0)}
    assert scaled.contains(Fraction(3, 2), 0)


def test_scale_down_is_bounded_by_its_chain_budget():
    assert len(S((0, 0), (Fraction(1, 3), 0)).scale_down(5000).generators) == 10_000
    with pytest.raises(ValueError, match="budget"):
        SMOOTH.scale_down(10_001)


# -- complex exponents ------------------------------------------------------------


def test_imaginary_parts_separate_chains():
    a = IndexSet.from_entries([(CR.of(0, 1), 0)])
    b = IndexSet.from_entries([(CR.of(0, -1), 0)])
    assert a != b
    assert not a.contains(CR.of(0, -1), 0)
    u = a.extended_union(b)
    assert u.max_log_power(CR.of(0, 1)) == 0  # no cross terms across chains


# -- properties ---------------------------------------------------------------------

# Gaussian-rational exponents: few imaginary parts and small denominators, so
# different residue classes share real parts and negative floors are common.
fracs = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 3))
exponents = st.builds(CR, fracs, st.sampled_from((Fraction(0), Fraction(1), Fraction(-1, 2))))
entry_specs = st.tuples(exponents, st.integers(0, 3))
raw_entries = st.lists(entry_specs, max_size=4)
index_sets = st.builds(IndexSet.from_entries, raw_entries)


@given(index_sets, index_sets)
def test_extended_union_commutes(e, f):
    assert e.extended_union(f) == f.extended_union(e)


@settings(max_examples=60)
@given(index_sets, index_sets, index_sets)
def test_extended_union_associates(e, f, g):
    left = e.extended_union(f).extended_union(g)
    right = e.extended_union(f.extended_union(g))
    assert left.truncate(10) == right.truncate(10)
    assert left == right


@given(index_sets, index_sets)
def test_sum_commutes(e, f):
    assert e + f == f + e


@given(index_sets)
def test_smooth_set_neutral_for_sum(e):
    assert e + SMOOTH == e


@given(index_sets, index_sets)
def test_inf_laws(e, f):
    u = e.extended_union(f)
    assert u.inf_re() == min(e.inf_re(), f.inf_re())
    s = e + f
    if not e.is_empty and not f.is_empty:
        assert s.inf_re() == e.inf_re() + f.inf_re()
    else:
        assert s.is_empty


@given(index_sets)
def test_truncate_complete_roundtrip(e):
    t = e.truncate(10)
    assert complete(t).truncate(10) == t


@given(index_sets)
def test_union_members_are_members_of_either(e):
    f = e.shift(Fraction(1, 2))
    u = e | f
    for entry in u.truncate(6):
        assert e.contains(entry.z, entry.p) or f.contains(entry.z, entry.p)


@given(index_sets, index_sets)
def test_equality_matches_truncation_comparison(e, f):
    res = [g.z.re for g in e.generators] + [g.z.re for g in f.generators]
    bound = (max(res) if res else 0) + 1
    assert (e == f) == (e.truncate(bound) == f.truncate(bound))


@given(index_sets)
def test_json_roundtrip(e):
    data = json.loads(json.dumps(e.to_jsonable()))
    assert IndexSet.from_jsonable(data) == e


def members_by_definition(raw, bound):
    """{(z + k, q) : (z, p) raw, k in N0, q <= p, Re z + k <= bound}."""
    return {
        (z + k, q)
        for z, p in raw
        for k in range(max(0, math.floor(bound - z.re) + 1))
        for q in range(p + 1)
    }


def extended_union_by_definition(e, f):
    """Members of either, plus (z, p' + p'' + 1) with (z, p') in e and (z, p'') in f."""
    cross = {(z, p + q + 1) for z, p in e for w, q in f if w == z}
    return e | f | cross


def as_pairs(entries):
    return {(x.z, x.p) for x in entries}


BOUND = 3


@settings(max_examples=150)
@given(raw_entries, raw_entries)
def test_operations_match_membership_by_definition(raw_e, raw_f):
    e, f = IndexSet.from_entries(raw_e), IndexSet.from_entries(raw_f)
    me, mf = members_by_definition(raw_e, BOUND), members_by_definition(raw_f, BOUND)
    assert as_pairs(e.truncate(BOUND)) == me
    assert as_pairs(e.union(f).truncate(BOUND)) == me | mf
    assert as_pairs(e.extended_union(f).truncate(BOUND)) == extended_union_by_definition(me, mf)
    for s in (e, e.union(f), e.extended_union(f)):  # canonical: no generator implies another
        for g in s.generators:
            rest = [(h.z, h.p) for h in s.generators if h != g]
            assert (g.z, g.p) not in members_by_definition(rest, g.z.re), g
    probes = {z + k for z, _ in raw_e + raw_f for k in (-1, 0, 1, 2)}
    probes |= {z + CR(Fraction(1, 2)) for z in probes} | {CR(Fraction(0), Fraction(1, 3))}
    for z in probes:
        if z.re > BOUND:
            continue
        powers = [q for w, q in me if w == z]
        assert e.max_log_power(z) == max(powers, default=None), z
        for p in range(5):
            assert e.contains(z, p) == ((z, p) in me), (z, p)


def test_jsonable_is_sorted():
    s = S((2, 0), (Fraction(1, 2), 1), (Fraction(1, 2), 0))
    res = [g["re"] for g in s.to_jsonable()["generators"]]
    assert res == sorted(res, key=Fraction)


# -- residue classes ---------------------------------------------------------------

gaussians = st.builds(CR, st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def exponent_pairs(draw):
    """(z, w): w an integer shift of z, or z with another real part (the same
    imaginary part, often another denominator), or drawn on its own."""
    z = draw(gaussians)
    kind = draw(st.sampled_from(("shift", "same imaginary part", "independent")))
    if kind == "shift":
        return z, z + draw(st.integers(-5, 5))
    if kind == "same imaginary part":
        return z, CR(z.re + draw(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))), z.im)
    return z, draw(gaussians)


@settings(max_examples=300)
@given(exponent_pairs())
@example((CR(Fraction(1, 3), Fraction(1, 2)), CR(Fraction(1, 5), Fraction(1, 2))))
@example((CR(Fraction(-7, 4), Fraction(1, 2)), CR(Fraction(1, 4), Fraction(1, 2))))
@example((CR(Fraction(-1, 2)), CR(Fraction(1, 2), Fraction(1, 2))))
@example((CR(Fraction(-5, 3)), CR(Fraction(2, 6))))
def test_residue_classes_agree_exactly_when_exponents_differ_by_an_integer(zw):
    z, w = zw
    diff = z - w
    assert (residue_class(z) == residue_class(w)) == (diff.im == 0 and diff.re.denominator == 1)
    assert [type(x) for x in residue_class(z)] == [int, int, int]


def test_the_algebra_reads_only_the_int_form_of_exponents():
    """With ``re`` and ``im`` refusing to be read, every operation that ends in
    the canonical reduction still gives its usual result."""
    half_i = Fraction(1, 2)
    e = S((Fraction(-1, 2), 1), (CR(Fraction(1, 3), half_i), 0), (2, 0), (CR(0, -1), 3))
    f = S((Fraction(1, 2), 0), (CR(Fraction(-2, 3), half_i), 2), (-1, 1), (CR(1, -1), 0))
    raw = [(g.z, g.p) for g in e.generators] + [(CR(Fraction(7, 3), half_i), 1), (3, 2)]

    def operations():
        return (IndexSet.from_entries(raw), e.union(f), e.extended_union(f), e.sum_with(f),
                e.shift(Fraction(-1, 3)), e.scale_down(3), S((0, 0)).extended_union(SMOOTH))

    want = operations()

    def refuse(self):
        raise AssertionError("an index-set operation read a Fraction part")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CR, "re", property(refuse))
        mp.setattr(CR, "im", property(refuse))
        got = operations()
    assert got == want
    assert got[-1] == S((0, 1))
    assert got[2].contains(CR(Fraction(1, 3), half_i), 3)  # (z, 0) and (z - 1, 2) meet at z


# -- families --------------------------------------------------------------------


def test_family_validates_lattice_names():
    lat = model_quadrant(2, 2, ("Hx", "Hy"))
    fam = IndexFamily.of({"Hx": SMOOTH, "Hy": EMPTY}, lat)
    assert fam["Hx"] == SMOOTH
    with pytest.raises(ValueError):
        IndexFamily.of({"Hx": SMOOTH}, lat)
    with pytest.raises(ValueError):
        IndexFamily.of({"Hx": SMOOTH, "Hy": SMOOTH, "Hz": SMOOTH}, lat)


def test_family_shift_and_sum():
    lat = model_quadrant(2, 2, ("Hx", "Hy"))
    fam = IndexFamily.of({"Hx": S((1, 0)), "Hy": SMOOTH}, lat)
    # a shift by one is a sum with {(1, 0)}+N0 on every hypersurface
    ones = IndexFamily.of({"Hx": SMOOTH.shift(1), "Hy": SMOOTH.shift(1)}, lat)
    assert fam.sum_with(ones)["Hx"] == fam["Hx"].shift(1) == S((2, 0))
    both = fam.sum_with(fam)
    assert both["Hx"] == S((2, 0))
    assert both["Hy"] == SMOOTH


def test_family_json_roundtrip():
    lat = model_quadrant(2, 2, ("Hx", "Hy"))
    fam = IndexFamily.of({"Hx": S((Fraction(1, 2), 1)), "Hy": EMPTY}, lat)
    assert IndexFamily.from_jsonable(fam.to_jsonable()) == fam
