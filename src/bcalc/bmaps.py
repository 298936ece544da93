"""The algebra of b-maps: composition, face maps, lifts, b-fibrations, built-in maps.

A b-map is a ``geometry.BMapDescriptor``: its exponent matrix ``e(G, H)``
over the face lattices of ``geometry``.  Composition of b-maps is matrix
product, and a face maps to the target hypersurfaces it meets with positive
order.  ``lift`` lifts a b-map through a blow-up of its target by the
monomial lifting rule.  The b-fibration test decides the codimension
condition from the matrix and takes the open-face half from the
descriptor's asserted flag.  The built-in maps are the composite blow-down
X3b -> octant and the coordinate projections of the octant; the others are
derived from them, with no table of exponents: the projections X3b -> X2b
are lifts, and the projections X2b -> half-line along which kernels are
pushed forward are the X2b blow-down followed by a coordinate projection.
"""
from functools import lru_cache, reduce
from operator import and_, mul

from .errors import BMapError, NotLiftable
from .geometry import (BlowupRecord, BMapDescriptor, FaceLattice, halfline, triple_b_space, x2b,
                       x2b_blowdown)
from .records import Record


# ---------------------------------------------------------------------------
# composition, induced face maps, b-fibration check
# ---------------------------------------------------------------------------


def compose(f: BMapDescriptor, g: BMapDescriptor) -> BMapDescriptor:
    """Composite descriptor of W --f--> Z --g--> Y; exponent matrices multiply."""
    if f.target != g.source:
        raise BMapError("cannot compose: target lattice of f differs from source of g")
    cols = [[row[j] for row in g.exponents] for j in range(len(g.target.bhs_names))]
    rows = tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in f.exponents])
    composite = BMapDescriptor(f.source, g.target, rows)
    if f.fibration_on_faces and g.fibration_on_faces and check_b_fibration(composite).codim_ok:
        return BMapDescriptor(f.source, g.target, rows, fibration_on_faces=True)
    return composite


def induced_face_map(f: BMapDescriptor, face) -> frozenset:
    """Image face: the target hypersurfaces hit with positive order from ``face``."""
    s = f.source.mask(face)
    if s not in f.source.masks:
        raise BMapError(f"{sorted(set(face))} is not a face of the source lattice")
    image = 0
    for i, row in enumerate(f.exponents):
        if s >> i & 1:
            image |= sum([1 << j for j, v in enumerate(row) if v])
    if image not in f.target.masks:
        raise BMapError(f"descriptor is inconsistent: image {sorted(f.target.names_of(image))} "
                        f"of {sorted(set(face))} is not a face of the target lattice")
    return f.target.names_of(image)


def lift(f: BMapDescriptor, record: BlowupRecord,
         fibration_on_faces: bool = False) -> BMapDescriptor:
    """The lift through ``record``'s blow-up [Y; c] of a b-map f: X -> Y.

    The monomial case of the lifting criterion for blow-ups (Melrose,
    *Differential Analysis on Manifolds with Corners*): f lifts exactly when
    the pulled-back centre ideal is principal on every face S of X, that is,
    some h in c has e(g, h) <= e(g, k) for all g in S and k in c.  Then the
    front face gets e(g, ff) = m_g, the least e(g, h) over h in c, and each
    other hypersurface of [Y; c] gets the exponent of the one it lies over,
    less m_g when that one is in c.  A face with no least centre member is
    refused with ``NotLiftable``, naming it.
    """
    if f.target != record.base:
        raise BMapError("cannot lift: f does not map into the base of the blow-up")
    c = record.base.mask(record.center)
    ff = record.result.bhs_index(record.front_face_name)
    # the base bhs each bhs of [Y; c] lies over (for ff, unused: a centre member)
    over = [row.index(1) for row in record.blowdown.exponents]
    rows, least = [], []  # least: the mask of the centre members of least order
    for row in f.exponents:
        m = min([v for j, v in enumerate(row) if c >> j & 1])
        least.append(sum([1 << j for j, v in enumerate(row) if c >> j & 1 and v == m]))
        rows.append(tuple([m if r == ff else row[j] - m * (c >> j & 1)
                           for r, j in enumerate(over)]))
    for s in sorted(f.source.masks):  # subfaces come first, so the face named is a least one
        if not reduce(and_, [bits for i, bits in enumerate(least) if s >> i & 1], c):
            raise NotLiftable(f"{sorted(f.source.names_of(s))}: no member of the centre "
                              f"{sorted(record.center)} has the least order there")
    return BMapDescriptor(f.source, record.result, tuple(rows), fibration_on_faces)


class BFibrationReport(Record):
    """``violating_faces``: the source bhs whose image has codimension > 1;
    ``images``: ((bhs name, sorted image face), ...)."""

    __slots__ = ("codim_ok", "violating_faces", "images", "fibration_on_faces")

    @property
    def verdict(self) -> bool:
        return self.codim_ok and self.fibration_on_faces

    def to_jsonable(self) -> dict:
        return {
            "codim_ok": self.codim_ok,
            "violating_faces": list(self.violating_faces),
            "images": {g: list(img) for g, img in self.images},
            "fibration_on_faces": self.fibration_on_faces,
            "b_fibration": self.verdict,
        }


def check_b_fibration(f: BMapDescriptor) -> BFibrationReport:
    """Codimension half of the b-fibration test.

    A hypersurface may map into at most one target hypersurface (it is enough
    to check hypersurfaces).  The open-face fibration half is carried as the
    descriptor's asserted flag; the overall verdict is the conjunction.
    """
    images = tuple([(g, tuple(sorted(induced_face_map(f, {g})))) for g in f.source.bhs_names])
    violating = tuple([g for g, image in images if len(image) > 1])
    return BFibrationReport(not violating, violating, images, f.fibration_on_faces)


# ---------------------------------------------------------------------------
# built-in maps
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def x3b_blowdown() -> BMapDescriptor:
    """Composite blow-down of the full chain, X3b -> octant."""
    return reduce(compose, [rec.blowdown for rec in reversed(triple_b_space()[1])])


def projection_bmap(source: FaceLattice, kept, target: FaceLattice,
                    fibration_on_faces: bool = True) -> BMapDescriptor:
    """Coordinate projection of a model corner: keep the hypersurfaces ``kept``.

    ``kept[j]`` is the source bhs whose defining function becomes the j-th
    target defining function; all exponents are 0 or 1.
    """
    kept = tuple(kept)
    if len(kept) != len(target.bhs_names):
        raise BMapError("number of kept coordinates must match the target")
    table = {(g, target.bhs_names[j]): 1 for j, g in enumerate(kept)}
    return BMapDescriptor.from_table(source, target, table, fibration_on_faces)


@lru_cache(maxsize=None)
def quadrant_projection(i: int) -> BMapDescriptor:
    """Projection of the octant that forgets the i-th coordinate."""
    if i not in (1, 2, 3):
        raise BMapError("projection index must be 1, 2 or 3")
    q3 = triple_b_space()[1][0].base
    return projection_bmap(q3, [f"bf{j}" for j in (1, 2, 3) if j != i], x2b().base)


@lru_cache(maxsize=None)
def lifted_projection(i: int) -> BMapDescriptor:
    """The lift X3b -> X2b of the projection that forgets the i-th coordinate.

    For i = 3 it sends ff2, bf1 -> lb; ff1, bf2 -> rb; fff, ff3 -> ff, each
    with order 1, and bf3 into the interior.  It fibers over open faces
    (asserted).
    """
    return lift(compose(x3b_blowdown(), quadrant_projection(i)), x2b(), fibration_on_faces=True)


@lru_cache(maxsize=None)
def halfline_projection(i: int) -> BMapDescriptor:
    """X2b -> half-line: the blow-down followed by the projection to the i-th kernel variable.

    i = 1 projects to the left (output) variable: its defining function
    vanishes on lb and ff; i = 2 to the right one (rb and ff).
    Both are fibrations over the open half-line.
    """
    if i not in (1, 2):
        raise BMapError("half-line projection index must be 1 or 2")
    base = x2b().base
    return compose(x2b_blowdown(), projection_bmap(base, base.bhs_names[i - 1:i], halfline()))
