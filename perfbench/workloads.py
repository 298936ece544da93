"""The in-process workloads (symbolic, oracle) and the acceptance margins.

A workload is a fixed list of ops drawn from the seed.  Each op is one call
into a public bcalc function; its check compares the output with an oracle
from ``oracles`` that does not use the code path being timed.  Inputs are
built before timing starts.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable

import numpy as np
import scipy.integrate

import gen
import oracles as O
from bcalc import boperators as bop
from bcalc import geometry as geo
from bcalc import numeric as num
from bcalc import transport
from bcalc.errors import CompositionUndefined
from bcalc.indexsets import SMOOTH, IndexFamily, IndexSet
from bcalc.rationals import ComplexRational

# Defect classes the seed commit is known to have.  A failure counts as one
# only when the oracle run under that defect reproduces the output exactly;
# any other failure makes the run incorrect.
SNAP = ("indicial root snap: a numeric root is first rounded to denominator 1, and when that "
        "integer is another root of the same factor the two collapse")
ITEM3 = "irrational roots an integer apart are rationalized separately, so no chain or log is formed (ROADMAP item 3)"
INEXACT = ("with an irrational root stored as an approximation, model_inverse computes its partial "
           "fractions in floats and loses accuracy when roots lie close (ROADMAP item 3)")
APPLY_TOL = ("apply_check with a root above the weight: the kernel grows on s > 1 and the absolute "
             "quadrature tolerance no longer bounds the residual")
TRACEBACK = "malformed input prints a traceback instead of a one-line error (ROADMAP item 5)"


@dataclass
class Op:
    """One timed call.  ``check`` maps (kind, value) to None (correct), a
    reason (an unexpected failure) or (reason, defect) for a known defect,
    where kind is "ok" or "raised"; ``margins`` collects
    (measured, bound, label, defect) from numeric checks."""

    name: str
    fn: Callable
    check: Callable
    margins: list = field(default_factory=list)


def returns(checker):
    """A check that expects a value and hands it to ``checker``."""
    def check(kind, value):
        if kind == "raised":
            return f"raised {type(value).__name__}: {value}"
        return checker(value)
    return check


def refused_or(exc_type, refuse: bool, checker):
    """Expect the documented refusal when ``refuse``, else a checked value."""
    def check(kind, value):
        if kind == "raised":
            if refuse and isinstance(value, exc_type):
                return None
            return f"raised {type(value).__name__}: {value}"
        if refuse:
            return f"expected {exc_type.__name__}, got a result"
        return checker(value)
    return check


def excused(check, defect=None, model=None):
    """``check`` against the true oracle.  Its failure is the known
    ``defect`` only when ``model`` (the same check run under the defect)
    accepts the output; otherwise it is unexpected."""
    def run(kind, value):
        reason = check(kind, value)
        if reason is None or isinstance(reason, tuple):
            return reason
        if defect and model is not None and model(kind, value) is None:
            return reason, defect
        return reason
    return run


# ---------------------------------------------------------------------------
# conversions between oracle tuples and program objects
# ---------------------------------------------------------------------------


def to_cr(z) -> ComplexRational:
    if z[1]:
        return ComplexRational.from_complex(O.value(z))
    return ComplexRational(z[0], z[3])


def to_set(gens) -> IndexSet:
    return IndexSet.from_entries([(to_cr(z), p) for z, p in gens])


def exact_gens(s: IndexSet):
    return [((g.z.re, F(0), 0, g.z.im), g.p) for g in s.generators]


def float_gens(s: IndexSet):
    return [(complex(float(g.z.re), float(g.z.im)), g.p) for g in s.generators]


def half_above(x: float) -> float:
    """floor(x) + 1.5.  Exponents here are multiples of 1/24 or irrational,
    so one meets this bound only when both are exact binary fractions, and
    comparisons with it agree however an exponent's float was rounded."""
    return math.floor(x) + 1.5


def top(*gen_lists) -> float:
    """A truncation bound above every generator of the given lists."""
    return half_above(max((O.re_float(z) for gens in gen_lists for z, _ in gens), default=0))


def program_operator(spec) -> bop.BDiffOp:
    return bop.BDiffOp.from_lists(
        [[ComplexRational(re, im) for re, im in series] for series in spec["series"]]
    )


# ---------------------------------------------------------------------------
# symbolic workload
# ---------------------------------------------------------------------------


def _index_ops(seed, props):
    rng, shape = gen.stream(seed, "indexsets"), gen.shape_stream("indexsets")
    ops = []
    for n in (10, 40, 160):
        for rep in (1, 2):
            a = gen.canonical_set(rng, n, shape=shape)
            share = gen.classes_of(a)
            b = gen.canonical_set(rng, n, share=share, shared=len(share) // 2, shape=shape)
            c = gen.canonical_set(rng, 3, shape=shape)
            raw = gen.with_implied(rng, a, shape)
            sa, sb, sc = to_set(a), to_set(b), to_set(c)
            raw_cr = [(to_cr(z), p) for z, p in raw]
            props[f"sets[n={n} #{rep}]"] = {"A": gen.set_props(a), "B": gen.set_props(b),
                                             "raw_entries": len(raw)}
            tag = f"n={n} #{rep}"

            def from_check(got, raw=raw):
                bound = top(raw, exact_gens(got))
                return O.set_mismatch(exact_gens(got), O.members(raw, bound), bound)

            def union_check(got, a=a, b=b, ext=False):
                bound = top(a, b, exact_gens(got))
                join = O.extended_union if ext else O.union
                return O.set_mismatch(exact_gens(got), join(O.members(a, bound), O.members(b, bound)), bound)

            def sum_check(got, a=a, c=c):
                bound = half_above(max(O.re_float(z) for z, _ in a) + max(O.re_float(z) for z, _ in c))
                bound = max(bound, top(exact_gens(got)))
                return O.set_mismatch(exact_gens(got), O.set_sum(a, c, bound), bound)

            ops += [
                Op(f"indexsets.from_entries[{tag}]", lambda r=raw_cr: IndexSet.from_entries(r), returns(from_check)),
                Op(f"indexsets.union[{tag}]", lambda x=sa, y=sb: x.union(y), returns(union_check)),
                Op(f"indexsets.extended_union[{tag}]", lambda x=sa, y=sb: x.extended_union(y),
                   returns(lambda got, a=a, b=b: union_check(got, a, b, ext=True))),
                Op(f"indexsets.sum_with[{tag} + 3]", lambda x=sa, y=sc: x.sum_with(y), returns(sum_check)),
            ]
    return ops


def blowup_sequence(k, centers, names):
    lattice = geo.model_quadrant(k, k)
    for center, name in zip(centers, names):
        lattice = geo.blow_up_face(lattice, center, name).result
    return lattice


def _blowup_ops(seed, props):
    rng = gen.stream(seed, "blowups")
    ops = []
    for k in (4, 5, 6):
        centers = list(itertools.combinations([f"H{i + 1}" for i in range(k)], 2))
        rng.shuffle(centers)
        names = [f"F{i}" for i in rng.sample(range(100), len(centers))]
        props[f"blowups[k={k}]"] = {"centers": len(centers), "first": list(centers[0])}

        def check(lat, k=k):
            want = O.blowup_counts(k)
            got = {
                "faces": len(lat.faces),
                "bhs": len(lat.bhs_names),
                "corners": sum(1 for f in lat.faces if len(f) == k),
            }
            return None if got == want else f"counts {got}, known {want}"

        ops.append(Op(f"geometry.blowup_codim2[k={k}]",
                      lambda k=k, c=centers, n=names: blowup_sequence(k, c, n), returns(check)))
    return ops


def _family_mismatch(got_family, expected: dict, bound):
    for name, members in expected.items():
        reason = O.set_mismatch(exact_gens(got_family[name]), members, bound)
        if reason:
            return f"{name}: {reason}"
    return None


def _transport_ops(seed, props):
    rng, shape = gen.stream(seed, "transport"), gen.shape_stream("transport")
    ops = []
    for label, table, desc, size in (
        ("x2b", O.X2B_BLOWDOWN, geo.x2b_blowdown(), (3, 6)),
        ("x3b", O.X3B_BLOWDOWN, geo.x3b_blowdown(), (2, 4)),
    ):
        for rep in (1, 2):
            fam = gen.family(rng, shape, desc.target.bhs_names, size=size)
            pfam = IndexFamily.of({h: to_set(g) for h, g in fam.items()}, desc.target)
            props[f"pullback[{label} #{rep}]"] = {h: len(g) for h, g in fam.items()}

            def check(got, fam=fam, table=table):
                bound = max([half_above(sum(max(O.re_float(z) for z, _ in g) for g in fam.values()))]
                            + [top(exact_gens(got[g])) for g in table])
                return _family_mismatch(got, O.pull_back(table, fam, bound), bound)

            ops.append(Op(f"transport.pull_back[{label} #{rep}]",
                          lambda d=desc, f=pfam: transport.pull_back_family(d, f), returns(check)))
    for i in (1, 2, 3):
        desc = geo.lifted_projection(i)
        fam = gen.family(rng, shape, desc.source.bhs_names, size=(2, 4), positive=(f"bf{i}",))
        pfam = IndexFamily.of({h: to_set(g) for h, g in fam.items()}, desc.source)
        props[f"pushforward[pi{i}]"] = {h: len(g) for h, g in fam.items()}

        def check(report, fam=fam, i=i):
            bound = max([top(*fam.values())] + [top(exact_gens(s)) for _, s in report.result.sets])
            expected, violating = O.push_forward(i, fam, bound)
            if list(report.violating_bhs) != violating or report.integrability_ok != (not violating):
                return f"integrability audit {report.violating_bhs}, expected {violating}"
            return _family_mismatch(report.result, expected, bound)

        ops.append(Op(f"transport.push_forward[pi{i}]",
                      lambda d=desc, f=pfam: transport.push_forward_family(d, f), returns(check)))
    return ops


# -- operator checks, shared with the cli workload --------------------------
# Program results come in as float generator lists [(complex z, p)] and
# descriptors as (order, E_lb, E_rb) with such lists; roots are exact
# oracle tuples with multiplicities.


def desc_floats(desc):
    return desc.order, float_gens(desc.E_lb), float_gens(desc.E_rb)


def root_values(ind):
    return [(complex(float(r.value.re), float(r.value.im)), r.multiplicity) for r in ind.roots]


def program_roots(ind):
    """The roots ``indicial`` returned, as exact oracle tuples."""
    return [((r.value.re, F(0), 0, r.value.im), r.multiplicity) for r in ind.roots]


def kernel_terms(kernel):
    return [(t.side, complex(float(t.z.re), float(t.z.im)), t.p,
             complex(float(t.coeff.re), float(t.coeff.im))) for t in kernel.terms]


def split_mismatch(lb, rb, roots, gamma):
    want_lb, want_rb = O.weight_split(roots, gamma)
    for side, got, want in (("E_lb", lb, want_lb), ("E_rb", rb, want_rb)):
        reason = O.gens_mismatch(got, O.canonical(want))
        if reason:
            return f"{side}: {reason}"
    return None


def descriptor_mismatch(got, order, want_lb: dict, want_rb: dict):
    if got[0] != order:
        return f"order {got[0]}, expected {order}"
    for side, gens, want in (("E_lb", got[1], want_lb), ("E_rb", got[2], want_rb)):
        reason = O.gens_mismatch(gens, O.generators_of(want))
        if reason:
            return f"{side}: {reason}"
    return None


def parametrix_mismatch(par, rem, roots, gamma, order, steps):
    lb, rb = O.weight_split(roots, gamma)
    bound = top(lb, rb)
    neumann_lb, neumann_rb = {}, {}
    for j in range(1, steps):
        neumann_lb = O.union(neumann_lb, O.ext_power(lb, j, bound))
        neumann_rb = O.union(neumann_rb, O.ext_power(rb, j, bound))
    reason = descriptor_mismatch(par, float(-order), O.extended_union(O.members(lb, bound), neumann_lb),
                                 O.extended_union(O.members(rb, bound), neumann_rb))
    if reason:
        return f"parametrix {reason}"
    reason = descriptor_mismatch(rem, -math.inf, O.ext_power(lb, steps, bound), O.ext_power(rb, steps, bound))
    return f"remainder {reason}" if reason else None


def split_descriptor(roots, gamma, order):
    """(order, E_lb entries, E_rb entries) of the weight split of an operator."""
    return (float(-order), *O.weight_split(roots, gamma))


def composition(p, q):
    """(defined, order, E_lb, E_rb) of composing descriptors given as
    (order, E_lb entries, E_rb entries)."""
    (p_order, p_lb, p_rb), (q_order, q_lb, q_rb) = p, q
    bound = top(p_lb, p_rb, q_lb, q_rb)
    defined = O.inf_sum_positive([z for z, _ in p_rb], [z for z, _ in q_lb])
    return (defined, p_order + q_order,
            O.extended_union(O.members(p_lb, bound), O.members(q_lb, bound)),
            O.extended_union(O.members(p_rb, bound), O.members(q_rb, bound)))


def shares_irrational_class(roots, other) -> bool:
    """Both root lists have irrational roots an integer apart (or equal)."""
    def classes(rs):
        return {O.residue_class(z) for z, _ in rs if z[1]}
    return bool(classes(roots) & classes(other))


def diagnose(spec, ind):
    """(defect, roots) for one operator: the known defect its indicial data
    shows, if any, and the roots the program works with (None when
    ``indicial`` raised).  ITEM3 needs every root right to 1e-9 and every
    rational root exact, so that the only thing lost is the integer gap."""
    if ind is None:
        return None, None
    if O.snap_explains(root_values(ind), spec["roots"]):
        return SNAP, program_roots(ind)
    return (ITEM3 if faithful(spec, ind) and spec["item3"] else None), program_roots(ind)


def faithful(spec, ind) -> bool:
    got = program_roots(ind)
    return O.gens_mismatch(root_values(ind), spec["roots"]) is None and all(
        r in got for r in spec["roots"] if not r[0][1])


def pair_defect(a, b):
    """Known defect of an op on two operators, each (spec, ind, defect)."""
    (a_spec, a_ind, a_defect), (b_spec, b_ind, b_defect) = a, b
    if SNAP in (a_defect, b_defect):
        return SNAP
    if ITEM3 in (a_defect, b_defect):
        return ITEM3
    if (a_ind is not None and b_ind is not None and faithful(a_spec, a_ind) and faithful(b_spec, b_ind)
            and shares_irrational_class(a_spec["roots"], b_spec["roots"])):
        return ITEM3
    return None


def indicial_check(coeffs, roots):
    want = [ComplexRational(re, im) for re, im in coeffs]

    def check(ind):
        if list(ind.polynomial) != want:
            return "indicial polynomial differs from the frozen coefficients"
        return O.gens_mismatch(root_values(ind), roots)
    return returns(check)


def snap_model(roots):
    return returns(lambda ind: None if O.snap_explains(root_values(ind), roots) else "not a snap")


def raised(exc_type):
    return lambda kind, value: None if kind == "raised" and isinstance(value, exc_type) else "no"


def either(*checks):
    """A check that accepts what any of ``checks`` accepts."""
    def check(kind, value):
        reasons = [c(kind, value) for c in checks]
        return None if None in reasons else reasons[0]
    return check


#: Relative accuracy model_inverse keeps on inexact roots: its float path
#: evaluates an expanded deflated polynomial, which near clustered roots may
#: lose most digits but not the leading one; a wrong term, sign or factor
#: is off by order 1.
INEXACT_TOL = 1e-2


def kernel_defect(spec, ind, defect, model):
    """(defect, check on kernel terms) for model_inverse on one operator.

    Under the snap the partial-fraction coefficients over collapsed roots
    are meaningless, so only the placement of the terms at the roots
    ``indicial`` returned is checked (a ZeroDivisionError is the snap too).
    With irrational roots known only approximately, the terms must sit at
    those roots and give 1/P to INEXACT_TOL."""
    gamma = float(spec["gamma"])
    if defect == SNAP:
        return SNAP, lambda terms: O.kernel_mismatch(terms, model, None, gamma)
    if model is not None and faithful(spec, ind) and any(z[1] for z, _ in spec["roots"]):
        return INEXACT, lambda terms: O.kernel_mismatch(terms, model, spec["coeffs"], gamma, INEXACT_TOL)
    return None, None


def _compose_check(p, q):
    defined, order, lb, rb = composition(p, q)
    return refused_or(CompositionUndefined, not defined,
                      lambda desc: descriptor_mismatch(desc_floats(desc), order, lb, rb))


def _operator_checks(roots, coeffs, gamma, order, steps):
    """indicial-independent checks of split_spec, model_inverse and
    parametrix_indices for an operator with these roots."""
    return (
        returns(lambda sets: split_mismatch(float_gens(sets[0]), float_gens(sets[1]), roots, gamma)),
        returns(lambda kernel: O.kernel_mismatch(kernel_terms(kernel), roots, coeffs, float(gamma))),
        returns(lambda r: parametrix_mismatch(desc_floats(r.parametrix), desc_floats(r.remainder),
                                              roots, gamma, order, steps)),
    )


def _operator_ops(seed, props):
    """indicial, split_spec, model_inverse, parametrix_indices and
    compose_descriptors (with the next operator) on two operators of each
    degree 2..12.  Inputs of the later calls come from the program's own
    indicial data and weight split, computed before timing; a failure of a
    later call is a known defect only when the oracle, given the roots
    ``indicial`` returned, reproduces it."""
    rng, shape = gen.stream(seed, "operators"), gen.shape_stream("operators")
    degrees = list(range(2, 13)) * 2
    shape.shuffle(degrees)
    specs = [gen.operator(rng, shape, d) for d in degrees]
    props["operators"] = gen.operator_props(specs)
    prepared = []
    for spec in specs:
        op = program_operator(spec)
        ind = split = None
        try:  # a failure here shows again in the timed calls
            ind = bop.indicial(op)
            split = bop.split_spec(ind, spec["gamma"])
        except Exception:
            pass
        prepared.append((spec, op, ind, split, *diagnose(spec, ind)))
    ops = []
    for k, (spec, op, ind, split, defect, model) in enumerate(prepared):
        tag = f"op{k:02d} deg={op.order}"
        n_spec, n_op, n_ind, n_split, n_defect, n_model = prepared[(k + 1) % len(prepared)]
        p_desc = q_desc = None
        if split is not None and n_split is not None:
            p_desc = bop.FullCalcDescriptor(float(-op.order), *split)
            q_desc = bop.FullCalcDescriptor(float(-n_op.order), *n_split)
        gamma, steps = spec["gamma"], spec["steps"]
        split_c, kernel_c, par_c = _operator_checks(spec["roots"], spec["coeffs"], gamma, op.order, steps)
        split_m = kernel_m = par_m = compose_m = None
        if model is not None:
            split_m, _, par_m = _operator_checks(model, spec["coeffs"], gamma, op.order, steps)
        if model is not None and n_model is not None:
            compose_m = _compose_check(split_descriptor(model, gamma, op.order),
                                       split_descriptor(n_model, n_spec["gamma"], n_op.order))
        k_defect, k_terms = kernel_defect(spec, ind, defect, model)
        if k_terms is not None:
            kernel_m = returns(lambda kernel, f=k_terms: f(kernel_terms(kernel)))
            if k_defect == SNAP:
                kernel_m = either(raised(ZeroDivisionError), kernel_m)
        ops += [
            Op(f"boperators.indicial[{tag}]", lambda o=op: bop.indicial(o),
               excused(indicial_check(spec["coeffs"], spec["roots"]), SNAP, snap_model(spec["roots"]))),
            Op(f"boperators.split_spec[{tag}]", lambda i=ind, g=gamma: bop.split_spec(i, g),
               excused(split_c, defect, split_m)),
            Op(f"boperators.model_inverse[{tag}]", lambda i=ind, g=gamma: bop.model_inverse(i, g),
               excused(kernel_c, k_defect, kernel_m)),
            Op(f"boperators.parametrix_indices[{tag} steps={steps}]",
               lambda o=op, g=gamma, s=steps: bop.parametrix_indices(o, g, s),
               excused(par_c, defect, par_m)),
            Op(f"boperators.compose_descriptors[{tag} with next]",
               lambda p=p_desc, q=q_desc: bop.compose_descriptors(p, q),
               excused(_compose_check(split_descriptor(spec["roots"], gamma, op.order),
                                      split_descriptor(n_spec["roots"], n_spec["gamma"], n_op.order)),
                       pair_defect((spec, ind, defect), (n_spec, n_ind, n_defect)), compose_m)),
        ]
    return ops


def symbolic_ops(seed):
    props = {}
    ops = _index_ops(seed, props) + _blowup_ops(seed, props) + _transport_ops(seed, props)
    ops += _operator_ops(seed, props)
    return ops, props


# ---------------------------------------------------------------------------
# oracle workload
# ---------------------------------------------------------------------------

#: apply_check residual bound per operator order.  Case 9 pins 1e-6 for
#: first order.  The residual is the truncation error of the log-grid
#: stencil, one per applied x d/dx, so order m is allowed m times that.
APPLY_BOUND = 1e-6
SUPPORT = (1.0, 3.0)
#: Case 9 pins 1e-12 only for c = 1, where the integrand is constant.  For
#: other c the solution sums 30 adaptive quadratures at the default relative
#: tolerance 1e-10, so its relative error may reach 30 times that.
ODE_BOUND = 30 * 1e-10
#: Integrable fibers y^(-beta) go through the endpoint probes of
#: integrate_from_zero at requested tolerance 1e-10; the probes add an
#: extrapolated tail, so allow 100 times the request.
DIVERGENT_BOUND = 1e-8


def _margin_check(op, measured_fn, bound, label, defect=None):
    """Record measured/bound and fail when the bound is exceeded.  With a
    ``defect``, a finite excess is that known defect; anything else is
    unexpected."""
    def checker(value):
        measured = measured_fn(value)
        op.margins.append((measured, bound, label, defect))
        if measured <= bound:
            return None
        reason = f"{label}: {measured:.3g} exceeds {bound:.3g}"
        return (reason, defect) if defect and math.isfinite(measured) else reason
    return checker


def exact_kernel(roots, gamma) -> bop.ModelKernel:
    """Model inverse of prod (z - r) for simple rational roots, built from
    the exact partial fractions 1/P = sum_r A_r/(z - r), A_r = 1/P'(r): a root
    below the weight gives the term s^(-r) on s < 1, one above gives
    -A_r s^(-r) on s > 1 (the convention ``model_inverse`` pins)."""
    terms = []
    for r in roots:
        a_r = F(1)
        for other in roots:
            if other != r:
                a_r /= r - other
        below = r < gamma
        terms.append(bop.KernelTerm(ComplexRational(-r if below else r), 0, "rb" if below else "lb",
                                    ComplexRational(a_r if below else -a_r)))
    return bop.ModelKernel(tuple(sorted(terms, key=lambda t: (t.side, t.z.key(), t.p))))


def _apply_op(name, roots, gamma, defect=None):
    """apply_check for the operator with these simple roots.  The kernel is
    built by the benchmark, so the op times the numeric check alone."""
    coeffs = O.poly_from_roots([(O.ex(r), 1) for r in roots])
    op_obj = bop.BDiffOp.from_lists([[ComplexRational(re, im)] for re, im in coeffs])
    kernel = exact_kernel(roots, gamma)
    v = num.smooth_bump(2.0, 1.0)
    op = Op(name, lambda: bop.apply_check(op_obj, kernel, v, SUPPORT), None)
    bound = APPLY_BOUND * op_obj.order
    label = "apply_check residual" + (", a root above the weight" if defect else "")
    op.check = returns(_margin_check(op, lambda r: r.max_residual, bound, label, defect))
    return op


def _hypot(kappa):
    return num.SampledFunction2D(lambda x, y: kappa * math.hypot(x, y), support=1.0)


def _divergent(split, beta):
    def u(x, y):
        return (1.0 + x) * y ** -beta if x <= split else 1.0 / y
    return num.SampledFunction2D(u, support=1.0)


def oracle_ops(seed):
    rng = gen.stream(seed, "oracle")
    props = {}
    ops = []
    c = F(rng.randint(1, 12), 4)
    gamma = -c + F(rng.randint(1, 8), 8)
    ops.append(_apply_op(f"boperators.apply_check[order 1, c={c}, gamma={gamma}]", [-c], gamma))
    a, b = sorted(rng.sample([F(i, 4) for i in range(1, 13)], 2))
    # weight above both roots, the orientation case 9 pins: the kernel decays
    above = -a + F(rng.randint(1, 4), 8)
    ops.append(_apply_op(f"boperators.apply_check[order 2, roots=-{a},-{b}, gamma={above}]",
                         [-a, -b], above))
    # weight below both roots: the kernel grows like s^|z| on s > 1 (APPLY_TOL)
    a2, b2 = sorted(rng.sample([F(i, 4) for i in range(1, 13)], 2))
    below = -b2 - F(rng.randint(1, 4), 8)
    ops.append(_apply_op(f"boperators.apply_check[order 2, roots=-{a2},-{b2}, gamma={below}]",
                         [-a2, -b2], below, APPLY_TOL))
    props["apply_check"] = {"first_order": f"z+{c} at {gamma}", "second_order": f"(z+{a})(z+{b}) at {above}",
                            "root_above_weight": f"(z+{a2})(z+{b2}) at {below}", "support": list(SUPPORT)}

    grid = num.geometric_grid(0.3, 0.9, 80)
    spec12 = num.QuadratureSpec(1e-12, 1e-12, 300)
    log_set = SMOOTH.extended_union(SMOOTH)
    # u = kappa * hypot(x, y): case 3 pins 1e-10 and 1e-6 for kappa = 1, and
    # both the samples and the least-squares fit are linear in u.
    kappas = [F(rng.randint(2, 8), 4) for _ in range(2)]
    for kappa in kappas:
        kf = float(kappa)
        u = _hypot(kf)
        closed = np.array([kf * O.hypot_fiber(x) for x in grid])
        op = Op(f"numeric.numeric_pushforward[{kappa} hypot, 80 points]",
                lambda u=u: num.numeric_pushforward(u, spec12, grid), None)
        op.check = returns(_margin_check(
            op, lambda s, closed=closed: float(np.max(np.abs(s.values - closed))) if not s.failed else math.inf,
            kf * 1e-10, "push-forward vs closed form"))
        ops.append(op)
        samples = num.numeric_pushforward(u, spec12, grid).values
        fit = Op(f"numeric.fit_expansion[{kappa} hypot]",
                 lambda s=samples: num.fit_expansion(grid, s, log_set, 8), None)
        fit.check = returns(_margin_check(
            fit, lambda e, kf=kf: abs(e.coeff_log_x(2, 1) - kf * O.HYPOT_LOG_COEFF), kf * 1e-6,
            "x^2 log x coefficient"))
        ops.append(fit)

    # half the fibers integrable, (1 + x) y^(-beta), half divergent, 1/y
    dgrid = num.geometric_grid(0.3, 0.9, 20)
    split = float(dgrid[9])
    beta = rng.choice((F(1, 4), F(1, 3), F(1, 2), F(2, 3)))
    expect_failed = tuple(range(10, 20))
    div = Op(f"numeric.numeric_pushforward[divergent fibers, beta={beta}]",
             lambda: num.numeric_pushforward(_divergent(split, float(beta)),
                                             num.QuadratureSpec(1e-10, 1e-10, 200), dgrid),
             None)

    def div_check(s):
        if s.failed != expect_failed:
            return f"failed points {s.failed}, expected {expect_failed}"
        gap = max(abs(s.values[i] - O.divergent_fiber(dgrid[i], float(beta))) for i in range(10))
        div.margins.append((gap, DIVERGENT_BOUND, "integrable fibers vs closed form", None))
        return None if gap <= DIVERGENT_BOUND else f"integrable fibers off by {gap:.3g}"

    div.check = returns(div_check)
    ops.append(div)

    sgrid = np.geomspace(0.01, 0.99, 30)
    spec11 = num.QuadratureSpec(1e-11, 1e-11, 300)
    cs = [F(rng.randint(1, 8), 4) for _ in range(2)]
    for c in cs:
        first_order = bop.BDiffOp.from_lists([[c], [1]])
        kernel = bop.model_inverse(bop.indicial(first_order), 0)
        predicted = IndexSet.from_entries([(c, 0), (c, 1)])
        exact = np.array([O.self_convolution(s, float(c)) for s in sgrid])
        op = Op(f"numeric.convolve_model_kernels[s^{c} * s^{c}]",
                lambda k=kernel, p=predicted, c=c: num.convolve_model_kernels(
                    k, k, sgrid, spec=spec11, predicted=p, fit_cutoff=c + 2), None)
        gap_check = _margin_check(op, lambda r, exact=exact: float(np.max(np.abs(r.values - exact))),
                                  1e-8, "self-convolution vs s^c log(1/s)")

        def conv_check(r, gap_check=gap_check):
            return gap_check(r) or (None if r.prediction_report["contained"]
                                    else f"fit not contained in prediction: {r.prediction_report}")

        op.check = returns(conv_check)
        ops.append(op)

    ogrid = num.geometric_grid(2.0, 0.9, 30)
    for c in [F(rng.randint(1, 12), 4) for _ in range(2)]:
        op = Op(f"numeric.solve_model_ode[c={c}, v=1]",
                lambda c=c: num.solve_model_ode(c, lambda t: 1.0, ogrid), None)
        op.check = returns(_margin_check(
            op, lambda u, c=c: float(np.max(np.abs(u * float(c) - 1.0))), ODE_BOUND, "ODE solution vs 1/c"))
        ops.append(op)

    center = 1.0 + rng.randint(-2, 2) / 20
    half = rng.choice((0.3, 0.4, 0.5))
    bump = num.smooth_bump(center, half)
    ref = scipy.integrate.quad(lambda s: bump(s) ** 2 / s, center - half, center + half,
                               epsabs=1e-13, epsrel=1e-13)[0]
    props["hs"] = {"bump_center": center, "bump_halfwidth": half}
    hs_log = Op(f"boperators.hs_front_face_criterion[bump {center}+-{half}]",
                lambda: bop.hs_front_face_criterion(lambda x, s: bump(s), 4.0, 1e-3), None)
    hs_log.check = returns(_margin_check(
        hs_log, lambda r: abs(r.slope - ref), 0.05 * ref, "norm slope vs front-face integral"))
    hs_zero = Op(f"boperators.hs_front_face_criterion[x * bump {center}+-{half}]",
                 lambda: bop.hs_front_face_criterion(lambda x, s: x * bump(s), 4.0, 1e-3), None)
    hs_zero.check = returns(_margin_check(hs_zero, lambda r: abs(r.slope), 1e-4 * ref,
                                          "vanishing front face slope"))
    ops += [hs_log, hs_zero]
    props["numeric"] = {"pushforward_kappa": [str(x) for x in kappas], "convolution_c": [str(c) for c in cs],
                        "divergent_beta": str(beta), "divergent_fibers": "10/20"}
    return ops, props


# ---------------------------------------------------------------------------
# acceptance margins, recomputed from outside
# ---------------------------------------------------------------------------


def acceptance_margins(apply_reports=()):
    """(measured, bound, label, None) for each numeric check the acceptance
    cases pin, by rerunning their public calls; ``apply_reports`` are the
    apply_check reports captured while case 9 ran (only the oracle workload
    runs the acceptance suite, and reruns of those 2 s calls are left out
    elsewhere)."""
    out = []
    spec12 = num.QuadratureSpec(1e-12, 1e-12, 300)
    log_set = SMOOTH.extended_union(SMOOTH)
    grid = num.geometric_grid(0.3, 0.9, 80)
    samples = num.numeric_pushforward(_hypot(1.0), spec12, grid)
    closed = np.array([O.hypot_fiber(x) for x in grid])
    out.append((float(np.max(np.abs(samples.values - closed))), 1e-10, "case 3 closed form", None))
    fit = num.fit_expansion(grid, samples.values, log_set, 8)
    out.append((abs(fit.coeff_log_x(2, 1) + 0.5), 1e-6, "case 3 x^2 log x coefficient", None))

    b = num.smooth_bump(0.0, 1.0)
    u = num.SampledFunction2D(lambda x, y: b(x / y) * b(y) / y if y > x else 0.0, support=1.0)
    hgrid = num.geometric_grid(0.12, 0.86, 52)
    hs = num.numeric_pushforward(u, num.QuadratureSpec(1e-11, 1e-11, 300), hgrid)
    hfit = num.fit_expansion(hgrid, hs.values, log_set, 3)
    out.append((abs(hfit.coeff(0, 1) - 1.0), 1e-5, "case 4 log coefficient", None))

    for r in apply_reports:
        out.append((r.max_residual, APPLY_BOUND, "case 9 apply_check residual", None))
    ode = num.solve_model_ode(1, lambda t: 1.0, num.geometric_grid(2.0, 0.9, 30))
    out.append((float(np.max(np.abs(ode - 1.0))), 1e-12, "case 9 ODE", None))

    kernel = bop.model_inverse(bop.indicial(bop.BDiffOp.from_lists([[F(1, 2)], [1]])), 0)
    sgrid = np.geomspace(0.01, 0.99, 30)
    conv = num.convolve_model_kernels(kernel, kernel, sgrid, spec=num.QuadratureSpec(1e-11, 1e-11, 300))
    exact = np.array([O.self_convolution(s, 0.5) for s in sgrid])
    out.append((float(np.max(np.abs(conv.values - exact))), 1e-8, "case 10 convolution", None))

    bump = num.smooth_bump(1.0, 0.5)
    ref = scipy.integrate.quad(lambda s: bump(s) ** 2 / s, 0.5, 1.5, epsabs=1e-13, epsrel=1e-13)[0]
    zero = bop.hs_front_face_criterion(lambda x, s: x * bump(s), 4.0, 1e-3)
    out.append((abs(zero.slope), 1e-4 * ref, "case 12 vanishing slope", None))
    logr = bop.hs_front_face_criterion(lambda x, s: bump(s), 4.0, 1e-3)
    out.append((abs(logr.slope - ref), 0.05 * ref, "case 12 slope vs reference", None))

    u13 = _hypot(1.0)
    for x in (0.05, 0.11, 0.23):
        direct = O.hypot_fiber(x)
        for cut in (num.plateau_cutoff(1.0, 2.0), num.plateau_cutoff(0.5, 3.0)):
            a, bb = num.pushforward_chart_split(u13, cut, x, spec12)
            out.append((abs(a + bb - direct), 1e-8, "case 13 chart split", None))
    return out
