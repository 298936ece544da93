"""``bcalc op``: the half-line operator calculus."""
from . import _entry_text, _set_report


def _specb(args, op):
    from .. import boperators as bop

    ind = bop.indicial(op)
    payload = {
        "polynomial": [str(c) for c in ind.polynomial],
        "roots": [
            {"z": str(r.value), "multiplicity": r.multiplicity, "exact": r.exact}
            for r in ind.roots
        ],
        "spec_b": [e.to_jsonable() for e in ind.spec_b],
    }
    lines = ["boundary spectrum:"] + [_entry_text(e) for e in ind.spec_b]
    return payload, lines, 0


def _split(args, op):
    from .. import boperators as bop

    e_lb, e_rb = bop.split_spec(bop.indicial(op), args.gamma)
    payload = {"E_lb": e_lb.to_jsonable(), "E_rb": e_rb.to_jsonable()}
    lines = [f"E_lb = {e_lb}", f"E_rb = {e_rb}"]
    return payload, lines, 0


def _inverse(args, op):
    from .. import boperators as bop

    kernel = bop.model_inverse(bop.indicial(op), args.gamma)
    lines = ["model kernel terms (s = ratio variable):"]
    for t in kernel.terms:
        lines.append(f"  side={t.side} z={t.z} p={t.p} coeff={t.coeff}")
    return kernel.to_jsonable(), lines, 0


def _apply_check(args, op):
    from .. import boperators as bop
    from .. import numeric as num

    kernel = bop.model_inverse(bop.indicial(op), args.gamma)
    a, b = args.support
    v = num.smooth_bump((a + b) / 2.0, (b - a) / 2.0)
    report = num.apply_check(op, kernel, v, (a, b))
    line = f"max residual of P(Kv) - v: {report.max_residual:.12g}"
    return report.to_jsonable(), [line], 0


def _compose(args, p, q):
    from .. import boperators as bop

    c = bop.compose_descriptors(p, q)
    lines = [f"order {c.order}", f"E_lb = {c.E_lb}", f"E_rb = {c.E_rb}"]
    return c.to_jsonable(), lines, 0


def _action(args, p, f_set):
    from .. import boperators as bop

    return _set_report(bop.action_index(p, f_set), args.truncate)


def _parametrix(args, op):
    from .. import boperators as bop

    report = bop.parametrix_indices(op, args.gamma, args.steps)
    lines = [
        f"parametrix: order {report.parametrix.order}, "
        f"E_lb = {report.parametrix.E_lb}, E_rb = {report.parametrix.E_rb}",
        f"remainder: E_lb = {report.remainder.E_lb}, E_rb = {report.remainder.E_rb}",
    ]
    return report.to_jsonable(), lines, 0


def _hs(args):
    from .. import numeric as num

    bump = num.smooth_bump(1.0, 0.5)
    kernels = {
        "bump": lambda x, s: bump(s),
        "x-bump": lambda x, s: x * bump(s),
        "zero": lambda x, s: 0.0,
    }
    report = num.hs_front_face_criterion(kernels[args.kernel], args.support_c, args.eps,
                                         s_support=(0.5, 1.5))
    lines = [
        f"log(1/eps) slope: {report.slope:.12g}",
        f"front-face squared norm: {report.reference:.12g}",
    ]
    return report.to_jsonable(), lines, 0


_OP, _DESC = "BDiffOp", "FullCalcDescriptor"

ACTIONS = {
    "specb": (_specb, (_OP,), ()),
    "split": (_split, (_OP,), ("--gamma",)),
    "inverse": (_inverse, (_OP,), ("--gamma",)),
    "apply-check": (_apply_check, (_OP,), ("--gamma", "--support")),
    "compose": (_compose, (_DESC, _DESC), ()),
    "action": (_action, (_DESC, "IndexSet"), ("--truncate",)),
    "parametrix": (_parametrix, (_OP,), ("--gamma", "--steps")),
    "hs": (_hs, (), ("--kernel", "--support-c", "--eps")),
}
