"""Every value type is a ``records.Record``: its equality, hash, repr,
immutability and construction checks are those of a frozen dataclass with
the same fields, and the repr strings below are what such a dataclass prints."""
import copy
import math
import pickle
import re
from fractions import Fraction as F

import pytest

from bcalc import bmaps
from bcalc import boperators as bop
from bcalc import geometry as geo
from bcalc import numeric as num
from bcalc import verify
from bcalc.errors import BMapError, LatticeError
from bcalc.indexsets import EMPTY, SMOOTH, IndexEntry, IndexFamily, IndexSet
from bcalc.rationals import ComplexRational as CR
from bcalc.records import Record
from bcalc.transport import TransportReport

POINT = geo.FaceLattice(0, (), frozenset({0}))
POINT_REPR = "FaceLattice(dimension=0, bhs_names=(), masks=frozenset({0}))"


def _bmap(fibration=False):
    return geo.BMapDescriptor(POINT, POINT, (), fibration)


Z_PLUS_1 = bop.BDiffOp.from_lists([[1], [1]])  # indicial root -1, exact
ONE_REPR = "ComplexRational(a=1, b=0, d=1)"
ROOT_REPR = "Root(value=ComplexRational(a=-1, b=0, d=1), multiplicity=1, exact=True)"
TERM_REPR = f"KernelTerm(z={ONE_REPR}, p=0, side='rb', coeff={ONE_REPR})"
SMOOTH_REPR = "IndexSet(generators=frozenset({IndexEntry(z=ComplexRational(a=0, b=0, d=1), p=0)}))"
EMPTY_REPR = "IndexSet(generators=frozenset())"


def _term(p=0):
    return bop.KernelTerm(CR(F(1)), p, "rb", CR(F(1)))


# (make, make another one unequal to it, the repr of make())
CASES = {
    "ComplexRational": (
        lambda: CR(F(1, 2), F(-3)), lambda: CR(F(1, 2), F(3)),
        "ComplexRational(a=1, b=-6, d=2)"),
    "IndexEntry": (
        lambda: IndexEntry(CR(F(-1, 3)), 2), lambda: IndexEntry(CR(F(-1, 3)), 1),
        "IndexEntry(z=ComplexRational(a=-1, b=0, d=3), p=2)"),
    "IndexSet": (
        lambda: IndexSet.from_entries([(F(1, 2), 1)]),
        lambda: IndexSet.from_entries([(F(1, 2), 0)]),
        "IndexSet(generators=frozenset({IndexEntry(z=ComplexRational(a=1, b=0, d=2), p=1)}))"),
    "IndexFamily": (
        lambda: IndexFamily.of({"H": SMOOTH}), lambda: IndexFamily.of({"H": EMPTY}),
        "IndexFamily(sets=(('H', IndexSet(generators=frozenset({IndexEntry(z=ComplexRational("
        "a=0, b=0, d=1), p=0)}))),))"),
    "FaceLattice": (
        lambda: POINT, lambda: geo.FaceLattice(1, (), frozenset({0})), POINT_REPR),
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
        lambda: bmaps.check_b_fibration(bmaps.halfline_projection(1)),
        lambda: bmaps.check_b_fibration(bmaps.halfline_projection(2)),
        "BFibrationReport(codim_ok=True, violating_faces=(), images=(('lb', ('H',)), "
        "('rb', ()), ('ff', ('H',))), fibration_on_faces=True)"),
    "TransportReport": (
        lambda: TransportReport(EMPTY, True, (), {}),
        lambda: TransportReport(SMOOTH, True, (), {}),
        "TransportReport(result=IndexSet(generators=frozenset()), integrability_ok=True, "
        "violating_bhs=(), face_contributions={})"),
    "Root": (
        lambda: bop.Root(CR(F(-1)), 1, True), lambda: bop.Root(CR(F(-1)), 1, False), ROOT_REPR),
    "BDiffOp": (
        lambda: Z_PLUS_1, lambda: bop.BDiffOp.from_lists([[2], [1]]),
        f"BDiffOp(coeffs=(({ONE_REPR},), ({ONE_REPR},)), trunc=0)"),
    "IndicialData": (
        lambda: bop.indicial(Z_PLUS_1), lambda: bop.indicial(bop.BDiffOp.from_lists([[2], [1]])),
        f"IndicialData(polynomial=({ONE_REPR}, {ONE_REPR}), roots=({ROOT_REPR},), "
        "spec_b=(IndexEntry(z=ComplexRational(a=-1, b=0, d=1), p=0),))"),
    "KernelTerm": (_term, lambda: _term(1), TERM_REPR),
    "ModelKernel": (
        lambda: bop.model_inverse(bop.indicial(Z_PLUS_1), 0),
        lambda: bop.model_inverse(bop.indicial(Z_PLUS_1), -2), f"ModelKernel(terms=({TERM_REPR},))"),
    "ApplyCheckReport": (
        lambda: num.ApplyCheckReport(1e-8, 1658, 0.0015, 200),
        lambda: num.ApplyCheckReport(2e-8, 1658, 0.0015, 200),
        "ApplyCheckReport(max_residual=1e-08, grid_points=1658, log_step=0.0015, nodes=200)"),
    "FullCalcDescriptor": (
        lambda: bop.FullCalcDescriptor(-1, EMPTY, SMOOTH),
        lambda: bop.FullCalcDescriptor(-math.inf, EMPTY, SMOOTH),
        f"FullCalcDescriptor(order=-1.0, E_lb={EMPTY_REPR}, E_rb={SMOOTH_REPR})"),
    "ParametrixReport": (
        lambda: bop.parametrix_indices(Z_PLUS_1, 0, 0), lambda: bop.parametrix_indices(Z_PLUS_1, 0, 1),
        f"ParametrixReport(parametrix=FullCalcDescriptor(order=-1.0, E_lb={EMPTY_REPR}, "
        f"E_rb={EMPTY_REPR}), remainder=FullCalcDescriptor(order=-inf, E_lb={EMPTY_REPR}, "
        f"E_rb={EMPTY_REPR}), steps=('small-calculus parametrix only',))"),
    "HsReport": (
        lambda: num.HsReport(0.5, 0.25, (1e-3, 1e-4), (1.0, 2.0)),
        lambda: num.HsReport(0.0, 0.25, (1e-3, 1e-4), (1.0, 2.0)),
        "HsReport(slope=0.5, reference=0.25, eps=(0.001, 0.0001), norms=(1.0, 2.0))"),
    "QuadratureSpec": (
        num.QuadratureSpec, lambda: num.QuadratureSpec(1e-12, 1e-12, 300),
        "QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10, max_depth=200)"),
    "SampledFunction2D": (
        lambda: num.SampledFunction2D(math.hypot, support=1.0),
        lambda: num.SampledFunction2D(math.hypot, support=2.0),
        "SampledFunction2D(evaluator=<built-in function hypot>, support=1.0)"),
    "PhgExpansion": (  # the dataclass also printed decay_estimate, a field no longer kept
        lambda: num.PhgExpansion(((F(0), 0, 1.0), (F(1), 1, -0.5)), 0.0),
        lambda: num.PhgExpansion(((F(0), 0, 1.0),), 0.0),
        "PhgExpansion(terms=((Fraction(0, 1), 0, 1.0), (Fraction(1, 1), 1, -0.5)), "
        "fit_residual=0.0)"),
    "CaseResult": (
        lambda: verify.CaseResult(1, "extended-union law", True, "ok", ()),
        lambda: verify.CaseResult(1, "extended-union law", False, "ok", ()),
        "CaseResult(cid=1, name='extended-union law', passed=True, detail='ok', checks=())"),
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
        geo.FaceLattice(2, ("a", "a"), frozenset({0}))
    with pytest.raises(LatticeError, match=r"^face \['b'\] uses unknown bhs names$"):
        geo.FaceLattice.from_jsonable({"dim": 2, "bhs": ["a"], "faces": [[], ["a"], ["b"]]})
    with pytest.raises(LatticeError, match=r"^face mask 2 has bits beyond the 1 bhs$"):
        geo.FaceLattice(2, ("a",), frozenset({0, 1, 2}))
    with pytest.raises(LatticeError, match=r"^dimension must be an integer, got 1.0$"):
        geo.FaceLattice(1.0, (), frozenset({0}))
    q = geo.model_quadrant(2, 2)
    with pytest.raises(BMapError, match=r"^exponent matrix has wrong number of rows$"):
        geo.BMapDescriptor(q, q, ((1, 0),))
    with pytest.raises(BMapError, match=r"^exponents must be non-negative integers, got -1$"):
        geo.BMapDescriptor(q, q, ((1, -1), (0, 1)))
    with pytest.raises(BMapError, match=r"^fibration_on_faces must be a bool, got 1$"):
        geo.BMapDescriptor(q, q, ((1, 0), (0, 1)), 1)
    with pytest.raises(TypeError):
        IndexFamily()
    one = (CR(F(1)),)
    with pytest.raises(ValueError, match=r"^an operator needs at least one coefficient$"):
        bop.BDiffOp((), 0)
    with pytest.raises(ValueError, match=r"^leading coefficient series is identically zero$"):
        bop.BDiffOp((one, (CR(),)), 0)
    with pytest.raises(ValueError,
                       match=r"^truncation degree must be a non-negative integer, got True$"):
        bop.BDiffOp((one,), True)
    with pytest.raises(ValueError, match=r"^log power must be a non-negative integer, got -1$"):
        bop.KernelTerm(CR(), -1, "rb", CR(F(1)))
    with pytest.raises(ValueError, match=r"^kernel term side must be 'lb' or 'rb', got 'up'$"):
        bop.KernelTerm(CR(), 0, "up", CR(F(1)))
    for order in (math.inf, math.nan, "1", True):
        with pytest.raises(ValueError, match=rf"^order must be a finite number or -inf, "
                                             rf"got {re.escape(repr(order))}$"):
            bop.FullCalcDescriptor(order, EMPTY, EMPTY)
    order = bop.FullCalcDescriptor(2, EMPTY, EMPTY).order
    assert type(order) is float and order == 2.0
    with pytest.raises(ValueError, match=r"^tolerances must be finite and positive, "
                                         r"got abs_tol=0, rel_tol=1e-10$"):
        num.QuadratureSpec(0)
    with pytest.raises(ValueError, match=r"^tolerances must be finite and positive, "
                                         r"got abs_tol=1e-10, rel_tol=inf$"):
        num.QuadratureSpec(rel_tol=math.inf)
    assert num.QuadratureSpec(max_depth=8) == num.QuadratureSpec(1e-10, 1e-10, 8)
