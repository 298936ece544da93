"""Every exact value type is a ``records.Record``: its equality, hash, repr,
immutability and construction checks are those of a frozen dataclass with
the same fields, and the repr strings below are what such a dataclass prints."""
import copy
import pickle
from fractions import Fraction as F

import pytest

from bcalc import geometry as geo
from bcalc.errors import BMapError, LatticeError
from bcalc.indexsets import EMPTY, SMOOTH, IndexEntry, IndexFamily, IndexSet
from bcalc.rationals import ComplexRational as CR
from bcalc.records import Record
from bcalc.transport import TransportReport

POINT = geo.FaceLattice(0, (), frozenset({frozenset()}))
POINT_REPR = "FaceLattice(dimension=0, bhs_names=(), faces=frozenset({frozenset()}))"


def _bmap(fibration=False):
    return geo.BMapDescriptor(POINT, POINT, (), fibration)


# (make, make another one unequal to it, the repr of make())
CASES = {
    "ComplexRational": (
        lambda: CR(F(1, 2), F(-3)), lambda: CR(F(1, 2), F(3)),
        "ComplexRational(re=Fraction(1, 2), im=Fraction(-3, 1))"),
    "IndexEntry": (
        lambda: IndexEntry(CR(F(-1, 3)), 2), lambda: IndexEntry(CR(F(-1, 3)), 1),
        "IndexEntry(z=ComplexRational(re=Fraction(-1, 3), im=Fraction(0, 1)), p=2)"),
    "IndexSet": (
        lambda: IndexSet.from_entries([(F(1, 2), 1)]),
        lambda: IndexSet.from_entries([(F(1, 2), 0)]),
        "IndexSet(generators=frozenset({IndexEntry(z=ComplexRational(re=Fraction(1, 2), "
        "im=Fraction(0, 1)), p=1)}))"),
    "IndexFamily": (
        lambda: IndexFamily.of({"H": SMOOTH}), lambda: IndexFamily.of({"H": EMPTY}),
        "IndexFamily(sets=(('H', IndexSet(generators=frozenset({IndexEntry(z=ComplexRational("
        "re=Fraction(0, 1), im=Fraction(0, 1)), p=0)}))),))"),
    "FaceLattice": (
        lambda: POINT, lambda: geo.FaceLattice(1, (), frozenset({frozenset()})), POINT_REPR),
    "BMapDescriptor": (
        _bmap, lambda: _bmap(True),
        f"BMapDescriptor(source={POINT_REPR}, target={POINT_REPR}, exponents=(), "
        "fibration_on_faces=False)"),
    "BlowupRecord": (
        lambda: geo.BlowupRecord(POINT, frozenset(), POINT, "ff", _bmap(True)),
        lambda: geo.BlowupRecord(POINT, frozenset(), POINT, "gg", _bmap(True)),
        f"BlowupRecord(base={POINT_REPR}, center=frozenset(), result={POINT_REPR}, "
        f"front_face_name='ff', blowdown=BMapDescriptor(source={POINT_REPR}, "
        f"target={POINT_REPR}, exponents=(), fibration_on_faces=True))"),
    "BFibrationReport": (
        lambda: geo.check_b_fibration(geo.halfline_projection(1)),
        lambda: geo.check_b_fibration(geo.halfline_projection(2)),
        "BFibrationReport(codim_ok=True, violating_faces=(), images=(('lb', ('H',)), "
        "('rb', ()), ('ff', ('H',))), fibration_on_faces=True)"),
    "TransportReport": (
        lambda: TransportReport(EMPTY, True, (), {}),
        lambda: TransportReport(SMOOTH, True, (), {}),
        "TransportReport(result=IndexSet(generators=frozenset()), integrability_ok=True, "
        "violating_bhs=(), face_contributions={})"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_behaves_as_a_frozen_dataclass(name):
    make, other, text = CASES[name]
    x, y, z = make(), make(), other()
    assert type(x).__name__ == name and isinstance(x, Record)
    assert x == y and not x != y
    assert x != z and not x == z
    fields = tuple(getattr(x, f) for f in x.__slots__)
    assert x != fields and x.__eq__(fields) is NotImplemented
    assert repr(x) == text
    if name == "TransportReport":  # its face table is a dict, as with the dataclass
        with pytest.raises(TypeError):
            hash(fields)
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(fields) == hash(y)
        assert copy.copy(x) == x and copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x
    assert not hasattr(x, "__dict__")
    for field in x.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert tuple(getattr(x, f) for f in x.__slots__) == fields


def test_a_complex_rational_is_not_a_number():
    assert CR(F(1)) != 1 and 1 != CR(F(1)) and CR() != 0
    assert CR() == CR(F(0), F(0))


def test_constructors_refuse_with_the_dataclass_messages():
    with pytest.raises(ValueError, match=r"^log power must be a non-negative integer, got -1$"):
        IndexEntry(CR(), -1)
    with pytest.raises(ValueError, match=r"^log power must be a non-negative integer, got True$"):
        IndexEntry(CR(), True)
    with pytest.raises(LatticeError, match=r"^duplicate boundary hypersurface names$"):
        geo.FaceLattice(2, ("a", "a"), frozenset({frozenset()}))
    with pytest.raises(LatticeError, match=r"^face \['b'\] uses unknown bhs names$"):
        geo.FaceLattice(2, ("a",), frozenset({frozenset(), frozenset("a"), frozenset("b")}))
    with pytest.raises(LatticeError, match=r"^dimension must be an integer, got 1.0$"):
        geo.FaceLattice(1.0, (), frozenset({frozenset()}))
    q = geo.model_quadrant(2, 2)
    with pytest.raises(BMapError, match=r"^exponent matrix has wrong number of rows$"):
        geo.BMapDescriptor(q, q, ((1, 0),))
    with pytest.raises(BMapError, match=r"^exponents must be non-negative integers, got -1$"):
        geo.BMapDescriptor(q, q, ((1, -1), (0, 1)))
    with pytest.raises(BMapError, match=r"^fibration_on_faces must be a bool, got 1$"):
        geo.BMapDescriptor(q, q, ((1, 0), (0, 1)), 1)
    with pytest.raises(TypeError):
        IndexFamily()
