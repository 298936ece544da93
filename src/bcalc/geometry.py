"""Combinatorial geometry: face lattices and boundary blow-ups.

A manifold with corners is modeled purely by its face lattice: the named
boundary hypersurfaces together with the collection of subsets having
non-empty intersection.  Inside a lattice a face is an int mask, bit i for
the i-th hypersurface, and names appear only at the boundary (``mask``,
``faces``, ``proper_faces`` and the JSON form).  Blowing up a boundary
face of codimension >= 2 produces a new lattice with one extra
hypersurface (the front face) and a blow-down map recorded as an exponent
matrix.  The built-in spaces are the blown-up quadrant X2b and the triple
space X3b.

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
from functools import lru_cache

from .errors import BMapError, LatticeError
from .records import Record, _set


def _mask(bhs_names: tuple, names):
    """The mask of a collection of bhs names, or None if one is not in ``bhs_names``."""
    if isinstance(names, str):
        raise TypeError("a face is a collection of bhs names, not a single string")
    names = set(names)
    return sum([1 << bhs_names.index(n) for n in names]) if names <= set(bhs_names) else None


class FaceLattice(Record):
    """Named boundary hypersurfaces plus the poset of their intersections.

    A face is an int mask, bit i standing for ``bhs_names[i]``.  ``masks``
    contains 0 (the whole space) and is closed under taking subsets.  For
    every lattice built here the codimension of a face equals its number of
    hypersurfaces; this is validated at construction and used as the
    recorded codimension.
    """

    __slots__ = ("dimension", "bhs_names", "masks")

    def __init__(self, dimension: int, bhs_names: tuple, masks: frozenset):
        if type(dimension) is not int:
            raise LatticeError(f"dimension must be an integer, got {dimension!r}")
        for name in bhs_names:  # --names, --center and --face split on ","
            if not (isinstance(name, str) and name and "," not in name):
                raise LatticeError(f"bhs name {name!r} must be a non-empty string without ','")
        if len(set(bhs_names)) != len(bhs_names):
            raise LatticeError("duplicate boundary hypersurface names")
        if 0 not in masks:
            raise LatticeError("the empty face (whole space) must be present")
        for i, name in enumerate(bhs_names):
            if 1 << i not in masks:
                raise LatticeError(f"singleton {[name]} must be a face")
        _set(self, "dimension", dimension)
        _set(self, "bhs_names", bhs_names)
        _set(self, "masks", masks)
        k = len(bhs_names)
        for m in masks:
            if not 0 <= m < 1 << k:
                raise LatticeError(f"face mask {m!r} has bits beyond the {k} bhs")
            if m.bit_count() > dimension:
                raise LatticeError(f"face {sorted(self.names_of(m))} has codimension "
                                   f"{m.bit_count()} > dimension {dimension}")
            bits = m
            while bits:  # each face less one of its bits, lowest first
                if m ^ (bits & -bits) not in masks:
                    raise LatticeError("face set is not closed under subsets")
                bits &= bits - 1

    @property
    def faces(self) -> frozenset:
        """The faces as frozensets of bhs names."""
        return frozenset(map(self.names_of, self.masks))

    def names_of(self, m: int) -> frozenset:
        return frozenset([name for i, name in enumerate(self.bhs_names) if m >> i & 1])

    def mask(self, names):
        return _mask(self.bhs_names, names)

    def codim(self, names) -> int:
        m = self.mask(names)
        if m not in self.masks:
            raise LatticeError(f"{sorted(set(names))} is not a face of this lattice")
        return m.bit_count()

    def proper_faces(self):
        """All non-empty faces, sorted by (codim, member names)."""
        return tuple(sorted((self.names_of(m) for m in self.masks if m),
                            key=lambda f: (len(f), tuple(sorted(f)))))

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
        names, faces = data["bhs"], data["faces"]
        if not all(type(x) is list for x in [names, faces, *faces]):
            raise LatticeError("bhs, faces and each face must be lists")
        names = tuple(names)
        masks = [_mask(names, face) for face in faces]
        for face, m in zip(faces, masks):
            if m is None:
                raise LatticeError(f"face {sorted(set(face))} uses unknown bhs names")
        return cls(data["dim"], names, frozenset(masks))


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
    elif isinstance(names, str):
        raise LatticeError("names must be a collection of bhs names, not a single string")
    else:
        names = tuple(names)
        if len(names) != k:
            raise LatticeError("number of names must equal k")
    return FaceLattice(dimension=n, bhs_names=names, masks=frozenset(range(1 << k)))


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
        """Build from a {(source bhs, target bhs): exponent} mapping; absent keys are 0."""
        rows = [[0] * len(target.bhs_names) for _ in source.bhs_names]
        for (g, h), v in table.items():
            if g not in source.bhs_names or h not in target.bhs_names:
                raise BMapError(f"table key {(g, h)!r} names no source or target hypersurface")
            rows[source.bhs_index(g)][target.bhs_index(h)] = int(v)
        return cls(source, target, tuple([tuple(row) for row in rows]), fibration_on_faces)

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

    Face rules for the result lattice W (c = the center's bhs set; in masks,
    "T contains c" is ``t & c == c``):

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
    c = base.mask(center)
    if c not in base.masks:
        raise LatticeError(f"center {sorted(set(center))} is not a face of the base lattice")
    if c.bit_count() < 2:
        raise LatticeError("blow-up center must have codimension >= 2")
    if name in base.bhs_names:
        raise LatticeError(f"front face name {name!r} already used")

    k = len(base.bhs_names)
    lifted = [t for t in base.masks if t & c != c]
    with_ff = [t | 1 << k for t in lifted if t | c in base.masks]
    result = FaceLattice(base.dimension, base.bhs_names + (name,), frozenset(lifted + with_ff))
    # row by row, the mask of the base hypersurfaces each one maps into
    rows = tuple([tuple([m >> j & 1 for j in range(k)]) for m in [1 << i for i in range(k)] + [c]])
    # Blow-downs restrict to fibrations over open faces (each lifted face maps
    # diffeomorphically, the front face maps to a constant); what fails for
    # them is the codimension condition, which bmaps.check_b_fibration computes.
    blowdown = BMapDescriptor(result, base, rows, fibration_on_faces=True)
    return BlowupRecord(base, base.names_of(c), result, name, blowdown)


# ---------------------------------------------------------------------------
# built-in spaces
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def x2b() -> BlowupRecord:
    """Blow-up of the corner of the quadrant, with the usual kernel-space names.

    The base quadrant has hypersurfaces Hx = {x=0} and Hy = {y=0}; in the
    blown-up lattice the lift of Hx is called lb, the lift of Hy is rb, and
    the front face is ff.  The lattice is the blow-up of a quadrant named
    (lb, rb), and its blow-down, read onto (Hx, Hy), sends lb -> Hx, rb -> Hy
    and ff -> both.
    """
    base = model_quadrant(2, 2, ("Hx", "Hy"))
    named = blow_up_face(model_quadrant(2, 2, ("lb", "rb")), {"lb", "rb"}, "ff")
    blowdown = BMapDescriptor(named.result, base, named.blowdown.exponents, fibration_on_faces=True)
    return BlowupRecord(base, frozenset({"Hx", "Hy"}), named.result, "ff", blowdown)


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
