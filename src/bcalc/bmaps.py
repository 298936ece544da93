"""The algebra of b-maps: composition, face maps, b-fibrations, built-in maps.

A b-map is a ``geometry.BMapDescriptor``: its exponent matrix ``e(G, H)``
over the face lattices of ``geometry``.  Composition of b-maps is matrix
product, and a face maps to the target hypersurfaces it meets with positive
order.  The b-fibration test decides the codimension condition from the
matrix and takes the open-face half from the descriptor's asserted flag.
The built-in maps are the composite blow-down X3b -> octant, the coordinate
projections of the octant, their lifts X3b -> X2b, and the projections
X2b -> half-line along which kernels are pushed forward.
"""
from functools import lru_cache

from .errors import BMapError
from .geometry import (BMapDescriptor, FaceLattice, _face, halfline, triple_b_space, x2b,
                       x2b_lattice, x3b_lattice)
from .records import Record


# ---------------------------------------------------------------------------
# composition, induced face maps, b-fibration check
# ---------------------------------------------------------------------------


def compose(f: BMapDescriptor, g: BMapDescriptor) -> BMapDescriptor:
    """Composite descriptor of W --f--> Z --g--> Y; exponent matrices multiply."""
    if f.target != g.source:
        raise BMapError("cannot compose: target lattice of f differs from source of g")
    rows = []
    for i in range(len(f.source.bhs_names)):
        rows.append(
            tuple([
                sum(f.exponents[i][h] * g.exponents[h][j] for h in range(len(f.target.bhs_names)))
                for j in range(len(g.target.bhs_names))
            ])
        )
    composite = BMapDescriptor(f.source, g.target, tuple(rows), fibration_on_faces=False)
    if f.fibration_on_faces and g.fibration_on_faces and _codim_check(composite)[0]:
        composite = BMapDescriptor(f.source, g.target, tuple(rows), fibration_on_faces=True)
    return composite


def induced_face_map(f: BMapDescriptor, face) -> frozenset:
    """Image face: the target hypersurfaces hit with positive order from ``face``."""
    face = _face(face)
    if face not in f.source.faces:
        raise BMapError(f"{sorted(face)} is not a face of the source lattice")
    image = frozenset(
        h for h in f.target.bhs_names if any(f.e(g, h) > 0 for g in face)
    )
    if image not in f.target.faces:
        raise BMapError(
            f"descriptor is inconsistent: image {sorted(image)} of {sorted(face)} "
            "is not a face of the target lattice"
        )
    return image


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


def _codim_check(f: BMapDescriptor):
    violating = []
    images = []
    for g in f.source.bhs_names:
        image = induced_face_map(f, {g})
        images.append((g, tuple(sorted(image))))
        if len(image) > 1:
            violating.append(g)
    return not violating, tuple(violating), tuple(images)


def check_b_fibration(f: BMapDescriptor) -> BFibrationReport:
    """Codimension half of the b-fibration test.

    A hypersurface may map into at most one target hypersurface (it is enough
    to check hypersurfaces).  The open-face fibration half is carried as the
    descriptor's asserted flag; the overall verdict is the conjunction.
    """
    ok, violating, images = _codim_check(f)
    return BFibrationReport(ok, violating, images, f.fibration_on_faces)


# ---------------------------------------------------------------------------
# built-in maps
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def x3b_blowdown() -> BMapDescriptor:
    """Composite blow-down of the full chain, X3b -> octant."""
    _, records = triple_b_space()
    descriptor = records[-1].blowdown
    for rec in reversed(records[:-1]):
        descriptor = compose(descriptor, rec.blowdown)
    return descriptor


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
    q2 = x2b().base
    remaining = [j for j in (1, 2, 3) if j != i]
    return projection_bmap(q3, (f"bf{remaining[0]}", f"bf{remaining[1]}"), q2)


@lru_cache(maxsize=None)
def lifted_projection(i: int) -> BMapDescriptor:
    """The lift of the forget-the-i-th-coordinate projection, X3b -> X2b.

    Hypersurface table (for i = 3): ff2, bf1 -> lb; ff1, bf2 -> rb;
    fff, ff3 -> ff; bf3 -> interior.  The other two are the coordinate
    permutations of this table.  All recorded exponents equal 1, which is
    pinned by requiring the square with the blow-downs to commute
    (exponent matrices multiply to the same product on both paths).
    """
    if i not in (1, 2, 3):
        raise BMapError("projection index must be 1, 2 or 3")
    source = x3b_lattice()
    target = x2b_lattice()
    r1, r2 = [j for j in (1, 2, 3) if j != i]
    table = {
        (f"bf{r1}", "lb"): 1,
        (f"ff{r2}", "lb"): 1,
        (f"bf{r2}", "rb"): 1,
        (f"ff{r1}", "rb"): 1,
        ("fff", "ff"): 1,
        (f"ff{i}", "ff"): 1,
    }
    return BMapDescriptor.from_table(source, target, table, fibration_on_faces=True)


@lru_cache(maxsize=None)
def halfline_projection(i: int) -> BMapDescriptor:
    """X2b -> half-line: the lift of the projection to the i-th kernel variable.

    i = 1 projects to the left (output) variable: its defining function
    vanishes on lb and ff; i = 2 to the right one (rb and ff).
    Both are fibrations over the open half-line.
    """
    if i not in (1, 2):
        raise BMapError("half-line projection index must be 1 or 2")
    src = x2b_lattice()
    tgt = halfline()
    vanishing = ("lb", "ff") if i == 1 else ("rb", "ff")
    table = {(g, "H"): 1 for g in vanishing}
    return BMapDescriptor.from_table(src, tgt, table, fibration_on_faces=True)
