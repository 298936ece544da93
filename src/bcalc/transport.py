"""Index-family transport along b-maps.

Pull-back: exponents transform linearly through the exponent matrix, log
powers add, and a free non-negative integer offset accounts for the smooth
coefficient factors.

Push-forward (of b-densities, i.e. against dx/x factors): for a map to the
half-line, every face contributes the extended union of its hypersurfaces'
index sets scaled by the vanishing orders; the result is the plain union of
the face contributions.  Hypersurfaces that do not map into the boundary
must carry index sets with inf Re z > 0 (integrability); violations are
reported, not raised, so divergent regimes can still be inspected.

A general target is handled column by column through the half-line case;
this requires the map to be a b-fibration and that refusal is an error.
"""
from __future__ import annotations

import itertools

from .errors import BMapError, NotBFibration
from .bmaps import check_b_fibration
from .geometry import BMapDescriptor
from .indexsets import EMPTY, SMOOTH, IndexFamily, IndexSet
from .records import Record


def pull_back_family(f: BMapDescriptor, family: IndexFamily) -> IndexFamily:
    """Index family of a pull-back along ``f``.

    For a source hypersurface G the set is
    ``{(q + sum_H e(G,H) z_H, sum_H p_H)}`` with q a non-negative integer and
    (z_H, p_H) ranging over the target family wherever e(G,H) > 0.  Combining
    generators (rather than all members) and completing is exact, because
    both the q offset and the generator closure only add non-negative
    integers.
    """
    if set(family.names) != set(f.target.bhs_names):
        raise BMapError("family is not indexed by the target's boundary hypersurfaces")
    out = {}
    for g in f.source.bhs_names:
        positive = [(h, f.e(g, h)) for h in f.target.bhs_names if f.e(g, h) > 0]
        if not positive:
            out[g] = SMOOTH
            continue
        factor_sets = [family[h] for h, _ in positive]
        if any(s.is_empty for s in factor_sets):
            out[g] = EMPTY
            continue
        gens = []
        for combo in itertools.product(*[s.sorted_generators() for s in factor_sets]):
            z = None
            p = 0
            for (h, e), gen in zip(positive, combo):
                term = gen.z * e
                z = term if z is None else z + term
                p += gen.p
            gens.append((z, p))
        out[g] = IndexSet.from_entries(gens)
    return IndexFamily.of(out, f.source)


class TransportReport(Record):
    """Result of a push-forward plus its integrability audit.

    ``result`` is an IndexSet (half-line target) or an IndexFamily;
    ``face_contributions`` maps each target hypersurface name to the table
    face -> contributed index set.
    """

    __slots__ = ("result", "integrability_ok", "violating_bhs", "face_contributions")

    def to_jsonable(self) -> dict:
        tables = {
            h: {",".join(sorted(face)): s.to_jsonable() for face, s in table.items()}
            for h, table in self.face_contributions.items()
        }
        return {
            "result": self.result.to_jsonable(),
            "integrability_ok": self.integrability_ok,
            "violating_bhs": list(self.violating_bhs),
            "face_contributions": tables,
        }


def _push_forward(f: BMapDescriptor, family: IndexFamily, result) -> TransportReport:
    """Half-line push-forward per target column, plus the integrability audit.

    ``result`` builds the report's result from {target bhs: set}.  A source
    hypersurface mapped into no target hypersurface is flagged when its index
    set has inf Re z <= 0.
    """
    if set(family.names) != set(f.source.bhs_names):
        raise BMapError("family is not indexed by the source's boundary hypersurfaces")
    totals, tables = {}, {}
    for h in f.target.bhs_names:
        scaled = {g: family[g].scale_down(e) for g, e in f.column(h).items() if e > 0}
        table = tables[h] = {}
        # faces come by codimension and are subset-closed, so each face
        # extends the entry of the face without its last hypersurface
        for face in f.source.proper_faces():
            last = max(face)
            acc = table.get(face - {last}, EMPTY)
            table[face] = acc.extended_union(scaled[last]) if last in scaled else acc
        totals[h] = IndexSet.from_entries(g for s in table.values() for g in s.generators)
    violating = tuple([
        g
        for g in f.source.bhs_names
        if all(f.e(g, h) == 0 for h in f.target.bhs_names) and family[g].inf_re() <= 0
    ])
    return TransportReport(result(totals), not violating, violating, tables)


def push_forward_halfline(f: BMapDescriptor, family: IndexFamily) -> TransportReport:
    """Push-forward index set for a b-map onto the half-line.

    ``f`` must target a single-hypersurface lattice and fiber over the open
    half-line (asserted flag).  Hypersurfaces with vanishing order zero are
    flagged when their index set has inf Re z <= 0.
    """
    if len(f.target.bhs_names) != 1:
        raise BMapError("push_forward_halfline needs a half-line target lattice")
    return _push_forward(f, family, lambda totals: totals[f.target.bhs_names[0]])


def push_forward_family(f: BMapDescriptor, family: IndexFamily) -> TransportReport:
    """Push-forward index family along a b-fibration, column by column."""
    report = check_b_fibration(f)
    if not report.verdict:
        raise NotBFibration(
            "push-forward needs a b-fibration; "
            f"codim_ok={report.codim_ok}, violating={list(report.violating_faces)}, "
            f"fibration_on_faces={f.fibration_on_faces}"
        )
    return _push_forward(f, family, lambda totals: IndexFamily.of(totals, f.target))

