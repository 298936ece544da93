"""b-differential operators on the half-line and their calculus bookkeeping.

An operator sum_j a_j(x) (x d/dx)^j is stored with truncated power series
coefficients over exact complex rationals.  Freezing the coefficients at
x = 0 gives the indicial polynomial; its roots with multiplicities form the
boundary spectrum, whose entries (z, l), l < multiplicity, govern which
x^z log^l x terms can appear in solutions.  A root is exact when it is a
Gaussian rational, verified on the exact polynomial; otherwise it is the
rational nearest (denominator at most 10^12) to the root refined by exact
Newton steps to 2^-128 (``rootfinder.polynomial_roots``).  No float is
rounded into a stored root: ``ComplexRational.from_complex`` is called nowhere.

A weight parameter splits the spectrum into left/right boundary index sets
and selects one model inverse, realized here by residue (Mellin) inversion:
the kernel acts as (Qv)(x) = int k(x'/x) v(x') dx'/x'.  The orientation
convention (which half plane feeds which side, sign of the log argument) is
pinned by the first-order model: p(z) = z + c with weight above -Re c must
produce k(s) = s^c on the s < 1 side, as acceptance case 9 checks exactly
(``numeric.apply_check`` takes no weight, so passes another weight's kernel).

Descriptor-level composition/action implement the index bookkeeping of the
full calculus, including the Neumann parametrix iteration.

This is exact code and loads no NumPy, nor does ``rootfinder``, which finds
the indicial roots; the float oracle that checks it is ``numeric``.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .errors import (
    CompositionUndefined,
    InadmissibleWeight,
    NotBElliptic,
    SchemaError,
)
from .indexsets import EMPTY, IndexEntry, IndexSet
from .rationals import ONE, ZERO, ComplexRational, as_fraction
from .records import Record, _set
from .rootfinder import Root, polynomial_roots


# ---------------------------------------------------------------------------
# operators, indicial data, boundary spectrum
# ---------------------------------------------------------------------------


class BDiffOp(Record):
    """sum_j a_j(x) (x d/dx)^j with truncated power-series coefficients."""

    # coeffs[j] = series of a_j, ascending, ComplexRational; trunc = its truncation degree
    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs: tuple, trunc: int):
        if not coeffs:
            raise ValueError("an operator needs at least one coefficient")
        if not any(coeffs[-1]):
            raise ValueError("leading coefficient series is identically zero")
        if type(trunc) is not int or trunc < 0:
            raise ValueError(f"truncation degree must be a non-negative integer, got {trunc!r}")
        _set(self, "coeffs", coeffs)
        _set(self, "trunc", trunc)

    @classmethod
    def from_lists(cls, coeff_lists, trunc: Optional[int] = None) -> "BDiffOp":
        series = tuple(
            [tuple([ComplexRational.of(c) for c in lst]) or (ZERO,) for lst in coeff_lists]
        )
        if trunc is None:
            trunc = max(len(s) - 1 for s in series)
        return cls(series, trunc)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def constant_term(self, j: int) -> ComplexRational:
        s = self.coeffs[j]
        return s[0] if s else ZERO

    @property
    def has_constant_coefficients(self) -> bool:
        return all(all(not c for c in s[1:]) for s in self.coeffs)

    def to_jsonable(self) -> dict:
        # a real coefficient is written as a bare "p/q" string
        coeffs = [[str(c) if c.is_real else c.to_jsonable() for c in s] for s in self.coeffs]
        return {"coeffs": coeffs, "trunc": self.trunc}

    @classmethod
    def from_jsonable(cls, data: dict) -> "BDiffOp":
        coeffs = data["coeffs"]
        if not isinstance(coeffs, list) or not all(isinstance(s, list) for s in coeffs):
            raise SchemaError(f"'coeffs' must be a list of coefficient lists, got {coeffs!r}")
        series = [[ComplexRational.from_jsonable(c) for c in s] for s in coeffs]
        return cls.from_lists(series, data.get("trunc"))


class IndicialData(Record):
    """Indicial polynomial sum a_j(0) z^j, its roots, and the boundary spectrum.

    The spectrum is the raw entry list {(z, l) : 0 <= l < multiplicity of z};
    it is not completed (it is not an index set).
    """

    __slots__ = ("polynomial", "roots", "spec_b")  # roots of Root, spec_b of IndexEntry


def indicial(op: BDiffOp) -> IndicialData:
    """Freeze coefficients at x = 0 and factor the resulting polynomial."""
    if not op.constant_term(op.order):
        raise NotBElliptic("leading coefficient vanishes at x = 0")
    poly = tuple([op.constant_term(j) for j in range(op.order + 1)])
    roots = polynomial_roots(poly)
    assert sum(r.multiplicity for r in roots) == op.order
    entries = [
        IndexEntry(r.value, l) for r in roots for l in range(r.multiplicity)
    ]
    return IndicialData(poly, roots, tuple(sorted(entries, key=IndexEntry.sort_key)))


_WEIGHT_GAP = Fraction(1e-9)  # exact: a Fraction compared with it converts no float


def _check_admissible(ind: IndicialData, gamma: Fraction):
    """The real weight selecting a model inverse must avoid all root real parts.

    An exact root is compared by equality, an inexact one within ``_WEIGHT_GAP``.
    """
    for r in ind.roots:
        if abs(r.value.re - gamma) <= (0 if r.exact else _WEIGHT_GAP):
            relation = "equals" if r.exact else f"is within {float(_WEIGHT_GAP)} of"
            raise InadmissibleWeight(f"weight {gamma} {relation} root Re z = {r.value.re}")


def split_spec(ind: IndicialData, gamma) -> tuple:
    """Split the boundary spectrum by a weight into (E_lb, E_rb).

    Roots with Re z above the weight feed the left-boundary set as they
    stand; roots below feed the right-boundary set negated.  Both sets are
    completed.  The orientation reproduces the first-order model: a single
    root at -c with weight above -Re c gives E_lb empty, E_rb = {(c, 0)}.
    """
    gamma = as_fraction(gamma)
    _check_admissible(ind, gamma)
    lb, rb = [], []
    for r in ind.roots:
        entries = [(r.value, l) for l in range(r.multiplicity)]
        if r.value.re > gamma:
            lb.extend(entries)
        else:
            rb.extend([(-z, l) for z, l in entries])
    return IndexSet.from_entries(lb), IndexSet.from_entries(rb)


# ---------------------------------------------------------------------------
# model inverse by residue inversion
# ---------------------------------------------------------------------------


class KernelTerm(Record):
    """One term of a model kernel, in the ratio variable s = x'/x.

    side "rb": coeff * s^z * log^p(1/s) on 0 < s < 1;
    side "lb": coeff * (1/s)^z * log^p(s) on s > 1 (mirrored in 1/s).
    """

    __slots__ = ("z", "p", "side", "coeff")

    def __init__(self, z: ComplexRational, p: int, side: str, coeff: ComplexRational):
        if type(p) is not int or p < 0:
            raise ValueError(f"log power must be a non-negative integer, got {p!r}")
        if side not in ("lb", "rb"):
            raise ValueError(f"kernel term side must be 'lb' or 'rb', got {side!r}")
        _set(self, "z", z)
        _set(self, "p", p)
        _set(self, "side", side)
        _set(self, "coeff", coeff)

    def evaluate(self, s: float) -> complex:
        if self.side == "rb":
            if not 0.0 < s < 1.0:
                return 0.0
            base = math.log(1.0 / s)
        else:
            if s <= 1.0:
                return 0.0
            base = math.log(s)
        zc = self.z.as_complex()
        return self.coeff.as_complex() * s ** (zc if self.side == "rb" else -zc) * base ** self.p


class ModelKernel(Record):
    """Finite-term kernel acting by (Qv)(x) = int k(x'/x) v(x') dx'/x'."""

    __slots__ = ("terms",)

    @property
    def support(self) -> tuple:
        """(lo, hi) in s: (0, 1) from the rb terms, (1, inf) from the lb terms."""
        sides = {t.side for t in self.terms}
        return (0.0 if "rb" in sides else 1.0, math.inf if "lb" in sides else 1.0)

    def to_jsonable(self) -> dict:
        return {
            "terms": [
                {"z": t.z.to_jsonable(), "p": t.p, "side": t.side, "coeff": t.coeff.to_jsonable()}
                for t in self.terms
            ]
        }


def _series_inverse(b, n):
    """First n coefficients of 1 / sum b_i w^i (b[0] != 0)."""
    out = [ONE / b[0]]
    for k in range(1, n):
        s = ZERO
        for i in range(1, k + 1):
            s = s + b[i] * out[k - i]
        out.append(-s / b[0])
    return out


def _partial_fraction_block(root: Root, all_roots, lc):
    """Coefficients A_j, j = 1..k, of 1/poly = sum_j A_j / (z - z0)^j + ...

    A_j is the coefficient of w^(k-j) in 1/deflated(z0 + w), where
    deflated(z0 + w) = lc * prod (w + z0 - z_i)^(m_i) over the other stored
    roots, kept to its first k coefficients (k the multiplicity of z0).  The
    arithmetic is exact on the stored roots.
    """
    k = root.multiplicity
    deflated = [lc] + [ZERO] * (k - 1)
    for other in all_roots:
        if other is not root:
            d = root.value - other.value
            for _ in range(other.multiplicity):  # times (w + d), to k coefficients
                deflated = [d * c + lower for c, lower in zip(deflated, [ZERO] + deflated)]
    return _series_inverse(deflated, k)[::-1]


def model_inverse(ind: IndicialData, gamma) -> ModelKernel:
    """Kernel of the weighted inverse of the indicial operator.

    Partial fractions of 1/polynomial feed residue terms: a root z0 below
    the weight contributes s^(-z0) log-power terms on the s < 1 side, a root
    above the weight contributes mirrored terms on s > 1 (with the sign from
    closing the contour the other way).  Reproduces k(s) = s^c H(1-s) for
    the first-order model.  The partial fractions are exact on the stored
    roots; when a root is inexact, each coefficient is rounded once, by
    ``ComplexRational.rounded``.
    """
    gamma = as_fraction(gamma)
    _check_admissible(ind, gamma)
    if len(ind.polynomial) < 2:
        raise ValueError("indicial polynomial is constant; nothing to invert")
    lc = ind.polynomial[-1]
    exact = all(r.exact for r in ind.roots)
    terms = []
    for root in ind.roots:
        blocks = _partial_fraction_block(root, ind.roots, lc)
        for j, a_j in enumerate(blocks, start=1):
            if root.value.re < gamma:
                z, side, coeff = -root.value, "rb", a_j
            else:  # the contour closes the other way: -A_j for odd j
                z, side, coeff = root.value, "lb", a_j if j % 2 == 0 else -a_j
            coeff = coeff / math.factorial(j - 1)
            if not exact:
                coeff = coeff.rounded()
            if coeff:
                terms.append(KernelTerm(z, j - 1, side, coeff))
    terms.sort(key=lambda t: (t.side, t.z.key(), t.p))
    return ModelKernel(tuple(terms))


# ---------------------------------------------------------------------------
# full-calculus descriptors: composition, action, parametrix
# ---------------------------------------------------------------------------


class FullCalcDescriptor(Record):
    """(order, E_lb, E_rb): the index data of a full-calculus operator.

    A full-calculus kernel decomposes into a near-diagonal (small-calculus)
    part, a boundary-expansion part carrying (E_lb, 0, E_rb), and a residual
    part smooth before blow-up; all bookkeeping here consumes only the order
    and the two boundary sets, so the three-part split stays implicit.
    """

    __slots__ = ("order", "E_lb", "E_rb")

    def __init__(self, order: float, E_lb: IndexSet, E_rb: IndexSet):
        # a finite order, or -inf for a residual (smoothing) part
        if type(order) not in (int, float) or not -math.inf <= order < math.inf:
            raise ValueError(f"order must be a finite number or -inf, got {order!r}")
        _set(self, "order", float(order))
        _set(self, "E_lb", E_lb)
        _set(self, "E_rb", E_rb)

    def to_jsonable(self) -> dict:
        order = "-inf" if self.order == -math.inf else self.order
        return {"order": order, "E_lb": self.E_lb.to_jsonable(), "E_rb": self.E_rb.to_jsonable()}

    @classmethod
    def from_jsonable(cls, data: dict) -> "FullCalcDescriptor":
        order = -math.inf if data["order"] == "-inf" else data["order"]
        return cls(order, IndexSet.from_jsonable(data["E_lb"]), IndexSet.from_jsonable(data["E_rb"]))


IDENTITY_DESCRIPTOR = FullCalcDescriptor(0.0, EMPTY, EMPTY)


def _inf_sum_positive(e: IndexSet, f: IndexSet) -> bool:
    a, b = e.inf_re(), f.inf_re()
    if a == math.inf or b == math.inf:
        return True
    return a + b > 0


def compose_descriptors(p: FullCalcDescriptor, q: FullCalcDescriptor) -> FullCalcDescriptor:
    """Index data of a composition: orders add, boundary sets extend-union.

    Requires inf E_rb(p) + inf E_lb(q) > 0; at or below the threshold the
    composition integral diverges and the descriptor is undefined.
    """
    if not _inf_sum_positive(p.E_rb, q.E_lb):
        raise CompositionUndefined(
            f"inf E_rb + inf F_lb = {p.E_rb.inf_re()} + {q.E_lb.inf_re()} <= 0"
        )
    return FullCalcDescriptor(
        p.order + q.order,
        p.E_lb.extended_union(q.E_lb),
        p.E_rb.extended_union(q.E_rb),
    )


def descriptor_sum(p: FullCalcDescriptor, q: FullCalcDescriptor) -> FullCalcDescriptor:
    """Index data of an operator sum: max order, plain unions."""
    return FullCalcDescriptor(
        max(p.order, q.order), p.E_lb.union(q.E_lb), p.E_rb.union(q.E_rb)
    )


def action_index(p: FullCalcDescriptor, f: IndexSet) -> IndexSet:
    """Index set of P w for w with index set f: E_lb extended-union f."""
    if not _inf_sum_positive(p.E_rb, f):
        raise CompositionUndefined(
            f"inf E_rb + inf F = {p.E_rb.inf_re()} + {f.inf_re()} <= 0"
        )
    return p.E_lb.extended_union(f)


class ParametrixReport(Record):
    __slots__ = ("parametrix", "remainder", "steps")

    def to_jsonable(self):
        return {
            "parametrix": self.parametrix.to_jsonable(),
            "remainder": self.remainder.to_jsonable(),
            "steps": list(self.steps),
        }


#: Most Neumann steps ``parametrix_indices`` will take; each adds a log power.
_STEP_BUDGET = 10_000


def parametrix_indices(op: BDiffOp, gamma, steps: int) -> ParametrixReport:
    """Predicted index sets of the Neumann-iterated parametrix.

    Step 0 is the small-calculus parametrix (trivial boundary sets, smoothing
    remainder).  Step 1 adds the boundary correction carrying the weight
    split of the spectrum; further steps compose with powers of the
    remainder, raising log powers through repeated extended unions.  More
    than ``_STEP_BUDGET`` steps are refused with ``ValueError``.
    """
    if not 0 <= steps <= _STEP_BUDGET:
        raise ValueError(f"steps must be between 0 and {_STEP_BUDGET}, got {steps}")
    ind = indicial(op)
    m = float(op.order)
    small = FullCalcDescriptor(-m, EMPTY, EMPTY)
    if steps == 0:
        return ParametrixReport(
            small, FullCalcDescriptor(-math.inf, EMPTY, EMPTY), ("small-calculus parametrix only",)
        )
    e_lb, e_rb = split_spec(ind, gamma)
    q = FullCalcDescriptor(-m, e_lb, e_rb)
    r = FullCalcDescriptor(-math.inf, e_lb, e_rb)
    log = [f"weight split: E_lb={e_lb}, E_rb={e_rb}"]
    neumann = IDENTITY_DESCRIPTOR
    r_power = r
    for j in range(1, steps):
        neumann = descriptor_sum(neumann, r_power)
        r_power = compose_descriptors(r_power, r)
        log.append(f"Neumann term {j} accumulated")
    parametrix = compose_descriptors(q, neumann)
    log.append(f"parametrix after {steps} step(s)")
    return ParametrixReport(parametrix, r_power, tuple(log))


def __getattr__(name):
    # two entry points of numeric stay reachable here, loading NumPy only when
    # asked for, until ROADMAP item 6 moves perfbench's references to numeric
    if name not in ("apply_check", "hs_front_face_criterion"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import numeric

    return getattr(numeric, name)
