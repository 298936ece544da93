"""Exact algebra of index sets for boundary asymptotic expansions.

An index set prescribes which terms ``x^z log^p x`` may occur in the
expansion of a function at a boundary hypersurface with defining function
``x``.  Sets are always stored in completed form: membership of ``(z, p)``
implies membership of ``(z + 1, p)`` and of ``(z, q)`` for every ``q <= p``.
Only a finite, canonical generator set is kept (no generator is implied by
another), so equality of index sets is equality of generator sets, and every
"left segment" ``Re z <= N`` is a finite, enumerable list.

Exponents interact only within a residue class, exponents an integer apart,
so every operation below works class by class; ``residue_class`` alone
decides it.  Exponents are exact complex rationals; all arithmetic is exact.
"""
from __future__ import annotations

import itertools
import math

from .errors import SchemaError
from .rationals import ComplexRational, as_fraction
from .records import Record, _set

# The exponent z in x^z log^p x.
Exponent = ComplexRational

#: Most members ``IndexSet.truncate`` will list, and most chains
#: ``IndexSet.scale_down`` will build.
_TRUNCATE_BUDGET = 10_000


def residue_class(z: Exponent):
    """(d, b, a mod d) of z = (a + bi)/d: shared exactly by the z + n = (a + nd, b, d)."""
    return (z.d, z.b, z.a % z.d)


class IndexEntry(Record):
    """A single pair (z, p): the term x^z log^p x."""

    __slots__ = ("z", "p")

    def __init__(self, z: Exponent, p: int):
        if type(p) is not int or p < 0:
            raise ValueError(f"log power must be a non-negative integer, got {p!r}")
        _set(self, "z", z)
        _set(self, "p", p)

    def sort_key(self):
        return (self.z.re, self.z.im, self.p)

    def to_jsonable(self) -> dict:
        return {**self.z.to_jsonable(), "p": self.p}

    @classmethod
    def from_jsonable(cls, data: dict) -> "IndexEntry":
        return cls(ComplexRational.from_jsonable(data), data["p"])

    @classmethod
    def of(cls, value) -> "IndexEntry":
        if isinstance(value, IndexEntry):
            return value
        z, p = value
        return cls(ComplexRational.of(z), p)


def _reduce(entries) -> frozenset:
    """Canonical generators: sweeping by (a, -p), by (Re z, -p) in a class of one d,
    keep an entry only when its p tops its class so far (else an earlier one implies it)."""
    top, kept = {}, []
    for e in sorted(entries, key=lambda e: (e.z.a, -e.p)):
        c = residue_class(e.z)
        if e.p > top.get(c, -1):
            top[c] = e.p
            kept.append(e)
    return frozenset(kept)


class IndexSet(Record):
    """A completed, finitely generated index set.

    ``generators`` is the canonical reduced generator set; the members of the
    index set are all ``(z0 + k, q)`` with ``(z0, p0)`` a generator,
    ``k`` a non-negative integer and ``q <= p0``.
    """

    __slots__ = ("generators",)

    def __init__(self, generators: frozenset = frozenset()):
        _set(self, "generators", generators)

    @classmethod
    def from_entries(cls, entries) -> "IndexSet":
        """Complete a raw finite entry list to the smallest index set containing it."""
        return cls(_reduce(IndexEntry.of(e) for e in entries))

    # -- membership and measurement -------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.generators

    def contains(self, z, p: int = 0) -> bool:
        best = self.max_log_power(z)
        return best is not None and best >= p

    def max_log_power(self, z):
        """Largest p with (z, p) in the set, or None if z is absent."""
        zz = ComplexRational.of(z)
        c = residue_class(zz)
        below = (g.p for g in self.generators if residue_class(g.z) == c and g.z.a <= zz.a)
        return max(below, default=None)

    def inf_re(self):
        """min Re z over the set; +inf for the empty set.

        The +inf sentinel makes integrability conditions of the form
        ``inf E > 0`` vacuously true for empty index sets.
        """
        if not self.generators:
            return math.inf
        return min(g.z.re for g in self.generators)

    # -- algebra ----------------------------------------------------------

    def union(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(_reduce(self.generators | other.generators))

    __or__ = union

    def extended_union(self, other: "IndexSet") -> "IndexSet":
        """Union plus the log-raising cross terms at shared exponents.

        The result contains, besides all members of both sets, every
        ``(z, p' + p'' + 1)`` with ``(z, p')`` in one set and ``(z, p'')``
        in the other.  On generators it suffices to pair generators of the
        same residue class; the shared exponent is the one with larger a (Re z).
        """
        by_class = {}
        for g in other.generators:
            by_class.setdefault(residue_class(g.z), []).append(g)
        cross = (
            IndexEntry(max(gi.z, gj.z, key=lambda z: z.a), gi.p + gj.p + 1)
            for gi in self.generators
            for gj in by_class.get(residue_class(gi.z), ())
        )
        return IndexSet(_reduce(itertools.chain(self.generators, other.generators, cross)))

    def sum_with(self, other: "IndexSet") -> "IndexSet":
        """Pointwise sum {(z + w, k + l)}; empty if either factor is empty."""
        gens = (
            IndexEntry(gi.z + gj.z, gi.p + gj.p)
            for gi, gj in itertools.product(self.generators, other.generators)
        )
        return IndexSet(_reduce(gens))

    __add__ = sum_with

    def shift(self, delta) -> "IndexSet":
        """Translate every exponent by a fixed rational offset."""
        d = ComplexRational.of(delta)
        return IndexSet(frozenset(IndexEntry(g.z + d, g.p) for g in self.generators))

    def scale_down(self, e: int) -> "IndexSet":
        """The set {(z/e, p)} for integer e >= 1, completed.

        Division by e turns the integer-shift closure into a 1/e-shift
        closure, so each generator expands into e chains.  More than
        ``_TRUNCATE_BUDGET`` chains in all are refused with ``ValueError``.
        """
        if e < 1:
            raise ValueError("scale factor must be a positive integer")
        chains = len(self.generators) * e
        if chains > _TRUNCATE_BUDGET:
            raise ValueError(f"scaling down by {e} makes {chains} chains, more than the "
                             f"budget of {_TRUNCATE_BUDGET}")
        gens = [
            IndexEntry((g.z + k) / e, g.p)
            for g in self.generators
            for k in range(e)
        ]
        return IndexSet(_reduce(gens))

    def truncate(self, bound):
        """All members with Re z <= bound, sorted by (Re z, Im z, p).

        Within a residue class the generators, by increasing Re z, raise the
        log power, so each one alone covers the integer steps up to the next.
        The members are counted from these runs before any is listed, and a
        truncation of more than ``_TRUNCATE_BUDGET`` members is refused with
        ``ValueError``.
        """
        limit = as_fraction(bound)
        chains = {}
        for g in sorted(self.generators, key=lambda g: g.z.re):
            chains.setdefault(residue_class(g.z), []).append(g)
        runs = []  # (generator, number of integer steps it covers)
        for chain in chains.values():
            ends = [g.z.re - 1 for g in chain[1:]] + [limit]
            runs += [(g, math.floor(min(end, limit) - g.z.re) + 1)
                     for g, end in zip(chain, ends) if g.z.re <= limit]
        if sum(n * (g.p + 1) for g, n in runs) > _TRUNCATE_BUDGET:
            raise ValueError(f"truncation at Re z <= {limit} has more than the budget "
                             f"of {_TRUNCATE_BUDGET} members")
        members = (IndexEntry(g.z + k, p) for g, n in runs for k in range(n) for p in range(g.p + 1))
        return tuple(sorted(members, key=IndexEntry.sort_key))

    # -- serialization ----------------------------------------------------

    def sorted_generators(self):
        return tuple(sorted(self.generators, key=IndexEntry.sort_key))

    def to_jsonable(self) -> dict:
        return {"generators": [g.to_jsonable() for g in self.sorted_generators()]}

    @classmethod
    def from_jsonable(cls, data: dict) -> "IndexSet":
        generators = data["generators"]
        if not isinstance(generators, list):
            raise SchemaError(f"'generators' must be a list, got {generators!r}")
        return cls.from_entries(IndexEntry.from_jsonable(g) for g in generators)

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        parts = ", ".join(f"({g.z},{g.p})" for g in self.sorted_generators())
        return "{" + parts + "}+N0"


def complete(entries) -> IndexSet:
    """Smallest index set containing the given raw entries."""
    return IndexSet.from_entries(entries)


EMPTY = IndexSet()
#: The index set of functions smooth up to the boundary: {(n, 0) : n in N0}.
SMOOTH = IndexSet.from_entries([(0, 0)])


class IndexFamily(Record):
    """Assignment of one index set to each boundary hypersurface name."""

    __slots__ = ("sets",)  # a tuple of (bhs name, IndexSet), sorted by name

    @classmethod
    def of(cls, mapping, lattice=None) -> "IndexFamily":
        items = {str(k): v if isinstance(v, IndexSet) else IndexSet.from_entries(v)
                 for k, v in dict(mapping).items()}
        if lattice is not None:
            expected = set(lattice.bhs_names)
            if set(items) != expected:
                raise ValueError(
                    f"family names {sorted(items)} do not match lattice bhs {sorted(expected)}"
                )
        return cls(tuple(sorted(items.items())))

    @property
    def names(self):
        return tuple([name for name, _ in self.sets])

    def __getitem__(self, name: str) -> IndexSet:
        for n, s in self.sets:
            if n == name:
                return s
        raise KeyError(name)

    def sum_with(self, other: "IndexFamily") -> "IndexFamily":
        if self.names != other.names:
            raise ValueError("families live on different boundary hypersurface sets")
        return IndexFamily(tuple([(n, s + other[n]) for n, s in self.sets]))

    def to_jsonable(self) -> dict:
        return {"assignment": {n: s.to_jsonable() for n, s in self.sets}}

    @classmethod
    def from_jsonable(cls, data: dict) -> "IndexFamily":
        return cls.of({n: IndexSet.from_jsonable(s) for n, s in data["assignment"].items()})
