"""Combinatorial geometry: face lattices and boundary blow-ups.

A manifold with corners is modeled purely by its face lattice: the named
boundary hypersurfaces together with the collection of subsets having
non-empty intersection.  Blowing up a boundary face of codimension >= 2
produces a new lattice with one extra hypersurface (the front face) and a
blow-down map recorded as an exponent matrix.  The built-in spaces are the
blown-up quadrant X2b and the triple space X3b.

A b-map between two lattices is stored as its exponent matrix
``e(G, H)`` = order of vanishing of (bdf of target H) composed with the map,
at the source hypersurface G; ``BMapDescriptor`` lives here because a
blow-down is a b-map.  Whether a map fibers over open faces cannot be
decided from the matrix, so descriptors carry an asserted
``fibration_on_faces`` flag; built-in maps set it from inspection,
user-defined maps default to False.  The algebra of b-maps (composition,
induced face maps, the b-fibration check and the built-in projections) is in
``bmaps``, so building the spaces compiles none of it.
"""
import itertools
from functools import lru_cache

from .errors import BMapError, LatticeError
from .records import Record, _set


def _face(names) -> frozenset:
    if isinstance(names, str):
        raise TypeError("a face is a collection of bhs names, not a single string")
    return frozenset(str(n) for n in names)


class FaceLattice(Record):
    """Named boundary hypersurfaces plus the poset of their intersections.

    ``faces`` contains the empty set (the whole space) and is closed under
    taking subsets.  For every lattice built here the codimension of a face
    equals its cardinality; this is validated at construction and used as the
    recorded codimension.
    """

    __slots__ = ("dimension", "bhs_names", "faces")

    def __init__(self, dimension: int, bhs_names: tuple, faces: frozenset):
        if type(dimension) is not int:
            raise LatticeError(f"dimension must be an integer, got {dimension!r}")
        for name in bhs_names:  # --names, --center and --face split on ","
            if not (isinstance(name, str) and name and "," not in name):
                raise LatticeError(f"bhs name {name!r} must be a non-empty string without ','")
        names = set(bhs_names)
        if len(names) != len(bhs_names):
            raise LatticeError("duplicate boundary hypersurface names")
        if frozenset() not in faces:
            raise LatticeError("the empty face (whole space) must be present")
        for name in bhs_names:
            if frozenset({name}) not in faces:
                raise LatticeError(f"singleton {[name]} must be a face")
        for face in faces:
            if not face <= names:
                raise LatticeError(f"face {sorted(face)} uses unknown bhs names")
            if len(face) > dimension:
                raise LatticeError(
                    f"face {sorted(face)} has codimension {len(face)} > dimension {dimension}"
                )
            for name in face:
                if face - {name} not in faces:
                    raise LatticeError("face set is not closed under subsets")
        _set(self, "dimension", dimension)
        _set(self, "bhs_names", bhs_names)
        _set(self, "faces", faces)

    def codim(self, names) -> int:
        face = _face(names)
        if face not in self.faces:
            raise LatticeError(f"{sorted(face)} is not a face of this lattice")
        return len(face)

    def proper_faces(self):
        """All non-empty faces, sorted by (codim, member names)."""
        return tuple(
            sorted((f for f in self.faces if f), key=lambda f: (len(f), tuple(sorted(f))))
        )

    def bhs_index(self, name: str) -> int:
        return self.bhs_names.index(name)

    def to_jsonable(self) -> dict:
        return {
            "dim": self.dimension,
            "bhs": list(self.bhs_names),
            "faces": sorted((sorted(f) for f in self.faces), key=lambda f: (len(f), f)),
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "FaceLattice":
        return cls(
            dimension=data["dim"],
            bhs_names=tuple(data["bhs"]),
            faces=frozenset(frozenset(f) for f in data["faces"]),
        )


#: Most faces ``model_quadrant`` will list; its 2^k faces exceed this from k = 14.
_FACE_BUDGET = 10_000


def model_quadrant(k: int, n: int, names=None) -> FaceLattice:
    """The model corner [0, inf)^k x R^(n-k): k hypersurfaces, all subsets meet.

    More than ``_FACE_BUDGET`` faces are refused with ``LatticeError``.
    """
    if not 0 <= k <= n:
        raise LatticeError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k >= _FACE_BUDGET.bit_length():  # 2^k > _FACE_BUDGET, without computing 2^k
        raise LatticeError(f"k={k} gives 2^{k} faces, more than the budget of {_FACE_BUDGET}")
    if names is None:
        names = tuple([f"H{i + 1}" for i in range(k)])
    else:
        names = tuple(names)
        if len(names) != k:
            raise LatticeError("number of names must equal k")
    faces = frozenset(
        frozenset(c) for r in range(k + 1) for c in itertools.combinations(names, r)
    )
    return FaceLattice(dimension=n, bhs_names=names, faces=faces)


def halfline(name: str = "H") -> FaceLattice:
    return model_quadrant(1, 1, (name,))


class BMapDescriptor(Record):
    """A b-map W -> Z as its exponent matrix.

    Rows follow ``source.bhs_names``, columns ``target.bhs_names``; entries
    are non-negative integers.  Smooth non-vanishing coefficient factors are
    not represented; all transport bookkeeping consumes only the exponents.
    """

    __slots__ = ("source", "target", "exponents", "fibration_on_faces")

    def __init__(self, source: FaceLattice, target: FaceLattice, exponents: tuple,
                 fibration_on_faces: bool = False):
        if type(fibration_on_faces) is not bool:
            raise BMapError(f"fibration_on_faces must be a bool, got {fibration_on_faces!r}")
        if len(exponents) != len(source.bhs_names):
            raise BMapError("exponent matrix has wrong number of rows")
        for row in exponents:  # a tuple of rows, each a tuple of ints
            if len(row) != len(target.bhs_names):
                raise BMapError("exponent matrix has wrong number of columns")
            for v in row:
                if type(v) is not int or v < 0:
                    raise BMapError(f"exponents must be non-negative integers, got {v!r}")
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "exponents", exponents)
        _set(self, "fibration_on_faces", fibration_on_faces)

    @classmethod
    def from_table(cls, source, target, table, fibration_on_faces=False):
        """Build from a {(source bhs, target bhs): exponent} mapping."""
        rows = []
        for g in source.bhs_names:
            rows.append(tuple([int(table.get((g, h), 0)) for h in target.bhs_names]))
        return cls(source, target, tuple(rows), fibration_on_faces)

    @classmethod
    def identity(cls, lattice: FaceLattice) -> "BMapDescriptor":
        n = len(lattice.bhs_names)
        rows = tuple([tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)])
        return cls(lattice, lattice, rows, fibration_on_faces=True)

    def e(self, g: str, h: str) -> int:
        return self.exponents[self.source.bhs_index(g)][self.target.bhs_index(h)]

    def column(self, h: str) -> dict:
        j = self.target.bhs_index(h)
        return {g: self.exponents[i][j] for i, g in enumerate(self.source.bhs_names)}

    def to_jsonable(self) -> dict:
        return {
            "source": self.source.to_jsonable(),
            "target": self.target.to_jsonable(),
            "e": [list(r) for r in self.exponents],
            "fibration_faces": self.fibration_on_faces,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "BMapDescriptor":
        return cls(
            source=FaceLattice.from_jsonable(data["source"]),
            target=FaceLattice.from_jsonable(data["target"]),
            exponents=tuple([tuple(row) for row in data["e"]]),
            fibration_on_faces=data.get("fibration_faces", False),
        )


class BlowupRecord(Record):
    """One boundary-face blow-up: base lattice, center, result, blow-down map."""

    __slots__ = ("base", "center", "result", "front_face_name", "blowdown")


def blow_up_face(base: FaceLattice, center, name: str) -> BlowupRecord:
    """Blow up a boundary face of codimension >= 2.

    Face rules for the result lattice W (c = the center's bhs set):

    * a subset T of old bhs is a face of W iff T is a face of the base and
      T does not contain c (the lifted faces miss the blown-up locus);
    * T u {front face} is a face of W iff T u c is a face of the base and
      T does not contain c (the front face meets exactly the directions the
      center met, but the full set of center hypersurfaces no longer
      intersects on it).

    Lifted faces keep their codimension; faces containing the front face get
    codimension |T| + 1.  These rules are the implementation contract; the
    blown-up quadrant and the triple space validate them against known
    lattices.

    Blow-down exponents: every lifted hypersurface maps to its image with
    order 1; the front face maps with order 1 into every center member.
    """
    center = _face(center)
    if center not in base.faces:
        raise LatticeError(f"center {sorted(center)} is not a face of the base lattice")
    if len(center) < 2:
        raise LatticeError("blow-up center must have codimension >= 2")
    if name in base.bhs_names:
        raise LatticeError(f"front face name {name!r} already used")

    lifted = {t for t in base.faces if not center <= t}
    with_ff = {
        t | {name}
        for t in base.faces
        if not center <= t and (t | center) in base.faces
    }
    result = FaceLattice(
        dimension=base.dimension,
        bhs_names=base.bhs_names + (name,),
        faces=frozenset(lifted | with_ff),
    )
    table = {(g, g): 1 for g in base.bhs_names}
    for h in center:
        table[(name, h)] = 1
    # Blow-downs restrict to fibrations over open faces (each lifted face maps
    # diffeomorphically, the front face maps to a constant); what fails for
    # them is the codimension condition, which bmaps.check_b_fibration computes.
    blowdown = BMapDescriptor.from_table(result, base, table, fibration_on_faces=True)
    return BlowupRecord(base, center, result, name, blowdown)


# ---------------------------------------------------------------------------
# built-in spaces
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def x2b() -> BlowupRecord:
    """Blow-up of the corner of the quadrant, with the usual kernel-space names.

    The base quadrant has hypersurfaces Hx = {x=0} and Hy = {y=0}; in the
    blown-up lattice the lift of Hx is called lb, the lift of Hy is rb, and
    the front face is ff.  The lattice is the blow-up of a quadrant named
    (lb, rb); the blow-down to (Hx, Hy) is tabulated: lb -> Hx, rb -> Hy,
    ff -> both.
    """
    base = model_quadrant(2, 2, ("Hx", "Hy"))
    result = blow_up_face(model_quadrant(2, 2, ("lb", "rb")), {"lb", "rb"}, "ff").result
    table = {("lb", "Hx"): 1, ("rb", "Hy"): 1, ("ff", "Hx"): 1, ("ff", "Hy"): 1}
    blowdown = BMapDescriptor.from_table(result, base, table, fibration_on_faces=True)
    return BlowupRecord(base, frozenset({"Hx", "Hy"}), result, "ff", blowdown)


def x2b_lattice() -> FaceLattice:
    return x2b().result


def x2b_blowdown() -> BMapDescriptor:
    return x2b().blowdown


@lru_cache(maxsize=None)
def triple_b_space():
    """The triple space: blow up the origin of the octant, then the three axes.

    Returns (final lattice, chain of blow-up records).  The seven
    hypersurfaces are bf1, bf2, bf3 (the lifted coordinate hyperplanes),
    ff1, ff2, ff3 (front faces of the axis blow-ups: ffi sits over the xi
    axis, i.e. over the face where the other two hyperplanes meet), and fff
    (front face of the origin blow-up).
    """
    q3 = model_quadrant(3, 3, ("bf1", "bf2", "bf3"))
    records = []
    rec = blow_up_face(q3, {"bf1", "bf2", "bf3"}, "fff")
    records.append(rec)
    axis_centers = {"ff1": ("bf2", "bf3"), "ff2": ("bf1", "bf3"), "ff3": ("bf1", "bf2")}
    current = rec.result
    for ff_name in ("ff1", "ff2", "ff3"):
        rec = blow_up_face(current, axis_centers[ff_name], ff_name)
        records.append(rec)
        current = rec.result
    return current, tuple(records)


def x3b_lattice() -> FaceLattice:
    return triple_b_space()[0]


def __getattr__(name):
    # seven names of the b-map algebra stay reachable here, loading bmaps only
    # when asked for, until ROADMAP items 6/30 move perfbench's lookups to bmaps
    if name not in ("compose", "induced_face_map", "check_b_fibration", "lifted_projection",
                    "halfline_projection", "quadrant_projection", "x3b_blowdown"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import bmaps

    return getattr(bmaps, name)
