import json
import random

import pytest

from bcalc import geometry as geo
from bcalc.errors import BMapError, LatticeError


# -- model quadrants -----------------------------------------------------------


def test_quadrant_without_boundary():
    lat = geo.model_quadrant(0, 2)
    assert lat.bhs_names == ()
    assert lat.faces == frozenset({frozenset()})


def test_quadrant_corner():
    lat = geo.model_quadrant(2, 2, ("Hx", "Hy"))
    assert set(lat.bhs_names) == {"Hx", "Hy"}
    assert lat.faces == {
        frozenset(), frozenset({"Hx"}), frozenset({"Hy"}), frozenset({"Hx", "Hy"})
    }


def test_quadrant_octant_has_power_set():
    lat = geo.model_quadrant(3, 3)
    assert len(lat.faces) == 8


def test_quadrant_argument_errors():
    with pytest.raises(LatticeError):
        geo.model_quadrant(3, 2)
    with pytest.raises(LatticeError):
        geo.model_quadrant(-1, 2)
    with pytest.raises(LatticeError):
        geo.model_quadrant(2, 2, ("a",))


def test_quadrant_face_budget():
    assert len(geo.model_quadrant(13, 13).faces) == 2 ** 13
    with pytest.raises(LatticeError):  # 2^14 faces exceed the budget of 10,000
        geo.model_quadrant(14, 14)


def test_lattice_validation():
    with pytest.raises(LatticeError):
        geo.FaceLattice(2, ("a", "a"), frozenset({frozenset()}))
    with pytest.raises(LatticeError):  # missing singleton
        geo.FaceLattice(2, ("a",), frozenset({frozenset()}))
    with pytest.raises(LatticeError):  # not downward closed
        geo.FaceLattice(
            2, ("a", "b"),
            frozenset({frozenset(), frozenset({"a"}), frozenset({"a", "b"})}),
        )


# -- blow-ups ---------------------------------------------------------------------


def test_corner_blowup_lattice():
    lat = geo.x2b_lattice()
    assert lat.bhs_names == ("lb", "rb", "ff")
    proper = {tuple(sorted(f)) for f in lat.proper_faces()}
    assert proper == {("lb",), ("rb",), ("ff",), ("ff", "lb"), ("ff", "rb")}
    assert frozenset(["lb", "rb"]) not in lat.faces


def test_blowup_requires_codim_two_center():
    q = geo.model_quadrant(2, 2)
    with pytest.raises(LatticeError):
        geo.blow_up_face(q, {"H1"}, "ff")
    with pytest.raises(LatticeError):
        geo.blow_up_face(q, {"H1", "H3"}, "ff")
    with pytest.raises(LatticeError):
        geo.blow_up_face(q, {"H1", "H2"}, "H1")


def test_axis_blowup_in_octant():
    q = geo.model_quadrant(3, 3)
    rec = geo.blow_up_face(q, {"H2", "H3"}, "ff1")
    lat = rec.result
    assert frozenset(["H2", "H3"]) not in lat.faces
    assert frozenset(["H2", "ff1"]) in lat.faces and frozenset(["H3", "ff1"]) in lat.faces
    assert frozenset(["H1", "ff1"]) in lat.faces  # the axis meets the transversal hyperplane
    assert frozenset(["H1", "H2", "H3"]) not in lat.faces


def test_codim_examples():
    lat = geo.x2b_lattice()
    assert lat.codim(["lb", "ff"]) == 2
    assert lat.codim([]) == 0
    x3 = geo.x3b_lattice()
    assert x3.codim(["bf3", "fff"]) == 2
    with pytest.raises(LatticeError):
        lat.codim(["lb", "rb"])


def test_triple_space_lattice():
    lat, records = geo.triple_b_space()
    assert lat.bhs_names == ("bf1", "bf2", "bf3", "fff", "ff1", "ff2", "ff3")
    assert len(records) == 4
    assert frozenset(["ff1", "ff2"]) not in lat.faces
    assert frozenset(["bf3", "fff"]) in lat.faces
    assert frozenset(["fff", "ff1"]) in lat.faces
    assert frozenset(["bf1", "ff1"]) not in lat.faces


def test_blowdown_matrix_shape_rule():
    # every old column carries exactly one 1 from its lift, plus a 1 in the
    # front-face row iff the column belongs to the center
    _, records = geo.triple_b_space()
    for rec in records:
        bd = rec.blowdown
        for j, col_name in enumerate(rec.base.bhs_names):
            col = [row[j] for row in bd.exponents]
            lift_i = bd.source.bhs_index(col_name)
            ff_i = bd.source.bhs_index(rec.front_face_name)
            expected = [0] * len(col)
            expected[lift_i] = 1
            if col_name in rec.center:
                expected[ff_i] = 1
            assert col == expected


def test_blowup_record_json_pieces_roundtrip():
    lat = geo.x2b_lattice()
    assert geo.FaceLattice.from_jsonable(json.loads(json.dumps(lat.to_jsonable()))).faces == lat.faces
    bd = geo.x2b_blowdown()
    again = geo.BMapDescriptor.from_jsonable(json.loads(json.dumps(bd.to_jsonable())))
    assert again.exponents == bd.exponents


# -- b-maps ------------------------------------------------------------------------


def test_exponent_matrix_validation():
    q = geo.model_quadrant(2, 2)
    with pytest.raises(BMapError):
        geo.BMapDescriptor(q, q, ((1, 0),))
    with pytest.raises(BMapError):
        geo.BMapDescriptor(q, q, ((1, -1), (0, 1)))


def test_compose_with_identity():
    bd = geo.x2b_blowdown()
    ident = geo.BMapDescriptor.identity(bd.target)
    assert geo.compose(bd, ident).exponents == bd.exponents


def test_compose_axis_maps_matches_substitution():
    # (xi, eta) -> (xi, xi*eta) then (x, y) -> (x*y, y): composite (xi^2 eta, xi eta)
    q = geo.model_quadrant(2, 2, ("a", "b"))
    r = geo.model_quadrant(2, 2, ("x", "y"))
    s = geo.model_quadrant(2, 2, ("u", "v"))
    f = geo.BMapDescriptor.from_table(q, r, {("a", "x"): 1, ("a", "y"): 1, ("b", "y"): 1})
    g = geo.BMapDescriptor.from_table(r, s, {("x", "u"): 1, ("y", "u"): 1, ("y", "v"): 1})
    assert geo.compose(f, g).exponents == ((2, 1), (1, 1))


def test_compose_lattice_mismatch():
    f = geo.x2b_blowdown()
    with pytest.raises(BMapError):
        geo.compose(f, f)


def test_blowdown_then_projection_is_halfline_column():
    bd = geo.x2b_blowdown()
    proj = geo.projection_bmap(bd.target, ("Hx",), geo.halfline())
    composed = geo.compose(bd, proj)
    assert composed.exponents == geo.halfline_projection(1).exponents


def test_induced_face_map_examples():
    bd = geo.x2b_blowdown()
    assert geo.induced_face_map(bd, []) == frozenset()
    assert geo.induced_face_map(bd, ["ff"]) == {"Hx", "Hy"}
    pi3 = geo.lifted_projection(3)
    assert geo.induced_face_map(pi3, ["ff2"]) == {"lb"}
    assert geo.induced_face_map(pi3, ["bf3"]) == frozenset()


def test_induced_face_map_detects_inconsistent_descriptor():
    # halfline bdf mapping into both lb and rb: {lb, rb} is not a face of X2b
    f = geo.BMapDescriptor.from_table(
        geo.halfline("G"), geo.x2b_lattice(), {("G", "lb"): 1, ("G", "rb"): 1}
    )
    with pytest.raises(BMapError):
        geo.induced_face_map(f, ["G"])


def test_bfibration_reports():
    down = geo.check_b_fibration(geo.x2b_blowdown())
    assert not down.codim_ok
    assert down.violating_faces == ("ff",)
    assert not down.verdict
    ident = geo.BMapDescriptor.identity(geo.x2b_lattice())
    assert geo.check_b_fibration(ident).verdict
    for i in (1, 2, 3):
        assert geo.check_b_fibration(geo.lifted_projection(i)).verdict


def test_lifted_projection_tables_are_permutations():
    tables = {}
    for i in (1, 2, 3):
        pi = geo.lifted_projection(i)
        tables[i] = {
            g: tuple(sorted(geo.induced_face_map(pi, [g])))
            for g in pi.source.bhs_names
        }
    assert tables[3] == {
        "bf1": ("lb",), "ff2": ("lb",), "bf2": ("rb",), "ff1": ("rb",),
        "fff": ("ff",), "ff3": ("ff",), "bf3": (),
    }
    assert tables[1] == {
        "bf2": ("lb",), "ff3": ("lb",), "bf3": ("rb",), "ff2": ("rb",),
        "fff": ("ff",), "ff1": ("ff",), "bf1": (),
    }
    assert tables[2] == {
        "bf1": ("lb",), "ff3": ("lb",), "bf3": ("rb",), "ff1": ("rb",),
        "fff": ("ff",), "ff2": ("ff",), "bf2": (),
    }


def test_commuting_squares():
    for i in (1, 2, 3):
        left = geo.compose(geo.lifted_projection(i), geo.x2b_blowdown())
        right = geo.compose(geo.x3b_blowdown(), geo.quadrant_projection(i))
        assert left.exponents == right.exponents


def test_positive_exponent_iff_boundary_image():
    for f in (geo.x2b_blowdown(), geo.lifted_projection(3), geo.x3b_blowdown()):
        for g in f.source.bhs_names:
            hits = geo.induced_face_map(f, [g])
            assert bool(hits) == any(f.e(g, h) > 0 for h in f.target.bhs_names)


def test_compose_associative_random():
    rng = random.Random(9)
    for _ in range(25):
        dims = [rng.randint(1, 3) for _ in range(4)]
        lats = [geo.model_quadrant(k, k, tuple(f"L{i}_{j}" for j in range(k)))
                for i, k in enumerate(dims)]
        maps = []
        for a, b in zip(lats, lats[1:]):
            rows = tuple(
                tuple(rng.randint(0, 2) for _ in b.bhs_names) for _ in a.bhs_names
            )
            maps.append(geo.BMapDescriptor(a, b, rows))
        f, g, h = maps
        assert geo.compose(geo.compose(f, g), h).exponents == \
            geo.compose(f, geo.compose(g, h)).exponents


def test_compose_flag_needs_both_flags_and_codim():
    pi3 = geo.lifted_projection(3)
    bd = geo.x2b_blowdown()  # fails the codimension check
    assert not geo.compose(pi3, bd).fibration_on_faces
    proj1 = geo.halfline_projection(1)
    assert geo.compose(pi3, proj1).fibration_on_faces
