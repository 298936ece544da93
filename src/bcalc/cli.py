"""Command-line front end.

Objects live in JSON files (schemas per module); subcommands run the
calculus operations and print deterministic text or JSON reports.
Exit codes: 0 success, 1 malformed input (unreadable files or flags, usage
errors), 2 violated theorem hypothesis (integrability, b-fibration,
composition condition, inadmissible weight), 3 numeric failure (quadrature,
conditioning or fit rejection).
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import boperators as bop
from . import geometry as geo
from . import numeric as num
from . import transport
from . import verify as verify_mod
from .errors import HypothesisViolation, NumericFailure, SchemaError
from .indexsets import IndexFamily, IndexSet, complete
from .rationals import as_fraction
from .serialize import load_typed, load_object


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(_round_floats(payload), sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _need_files(args, n: int) -> None:
    if len(args.files) != n:
        raise ValueError(
            f"'{args.action}' expects {n} file argument(s), got {len(args.files)}"
        )


def _entry_text(e):
    z = str(e.z)
    return f"  z = {z:<12} p = {e.p}"


def _set_report(s: IndexSet, bound):
    lines = ["generators:"]
    lines += [_entry_text(g) for g in s.sorted_generators()] or ["  (empty)"]
    members = s.truncate(bound)
    lines.append(f"members with Re z <= {bound}:")
    lines += [_entry_text(e) for e in members] or ["  (none)"]
    payload = dict(s.to_jsonable())
    payload["truncation"] = [e.to_jsonable() for e in members]
    return payload, lines


# -- indexset ---------------------------------------------------------------


def _cmd_indexset(args):
    if args.action in ("complete", "inf", "truncate"):
        _need_files(args, 1)
    else:
        _need_files(args, 2)
    if args.action == "complete":
        entries = load_object(args.files[0])
        if isinstance(entries, IndexSet):
            entries = entries.sorted_generators()
        result = complete(entries)
        return _set_report(result, args.truncate) + (0,)
    first = load_typed(args.files[0], IndexSet)
    if args.action == "inf":
        v = first.inf_re()
        text = "inf Re z = " + ("+inf" if v == float("inf") else str(v))
        return {"inf": "+inf" if v == float("inf") else str(v)}, [text], 0
    if args.action == "truncate":
        return _set_report(first, args.truncate) + (0,)
    second = load_typed(args.files[1], IndexSet)
    result = {
        "union": first.union,
        "extunion": first.extended_union,
        "sum": first.sum_with,
    }[args.action](second)
    return _set_report(result, args.truncate) + (0,)


# -- space ------------------------------------------------------------------


def _cmd_space(args):
    if args.action == "quadrant":
        names = tuple(args.names.split(",")) if args.names else None
        lat = geo.model_quadrant(args.k, args.n, names)
        payload = lat.to_jsonable()
        lines = [f"quadrant: {args.k} boundary hypersurfaces in dimension {args.n}",
                 f"bhs: {', '.join(lat.bhs_names)}",
                 f"faces: {payload['faces']}"]
        return payload, lines, 0
    if args.action == "blowup":
        lat = load_typed(args.lattice, geo.FaceLattice)
        rec = geo.blow_up_face(lat, args.center.split(","), args.name)
        payload = {
            "center": sorted(rec.center),
            "front_face": rec.front_face_name,
            "result": rec.result.to_jsonable(),
            "blowdown": rec.blowdown.to_jsonable(),
        }
        lines = [f"blew up {sorted(rec.center)} -> front face {rec.front_face_name}",
                 f"result bhs: {', '.join(rec.result.bhs_names)}",
                 f"faces: {payload['result']['faces']}"]
        return payload, lines, 0
    lattice, _records = geo.triple_b_space()
    payload = {
        "lattice": lattice.to_jsonable(),
        "blowdown": geo.x3b_blowdown().to_jsonable(),
        "lifted_projections": {
            str(i): geo.lifted_projection(i).to_jsonable() for i in (1, 2, 3)
        },
    }
    lines = [f"triple space bhs: {', '.join(lattice.bhs_names)}",
             f"{len(lattice.proper_faces())} proper faces"]
    return payload, lines, 0


# -- map ---------------------------------------------------------------------


def _cmd_map(args):
    _need_files(args, 2 if args.action == "compose" else 1)
    if args.action == "compose":
        f = load_typed(args.files[0], geo.BMapDescriptor)
        g = load_typed(args.files[1], geo.BMapDescriptor)
        c = geo.compose(f, g)
        lines = ["exponent matrix rows (source bhs) x columns (target bhs):"]
        for name, row in zip(c.source.bhs_names, c.exponents):
            lines.append(f"  {name:<6} {list(row)}")
        return c.to_jsonable(), lines, 0
    f = load_typed(args.files[0], geo.BMapDescriptor)
    if args.action == "facemap":
        face = [] if args.face in ("", "-") else args.face.split(",")
        image = geo.induced_face_map(f, face)
        payload = {"face": sorted(face), "image": sorted(image)}
        return payload, [f"{sorted(face)} -> {sorted(image)}"], 0
    report = geo.check_b_fibration(f)
    lines = [f"codimension condition: {'ok' if report.codim_ok else 'VIOLATED'}"]
    if report.violating_faces:
        lines.append(f"violating bhs: {', '.join(report.violating_faces)}")
    lines.append(f"fibration over open faces (asserted): {report.fibration_on_faces}")
    lines.append(f"b-fibration: {report.verdict}")
    return report.to_jsonable(), lines, 0 if report.verdict else 2


# -- transport ----------------------------------------------------------------


def _family_lines(fam: IndexFamily):
    lines = []
    for name, s in fam.sets:
        entries = ", ".join(f"({g.z},{g.p})" for g in s.sorted_generators()) or "empty"
        lines.append(f"  {name:<6} {entries}")
    return lines


def _cmd_transport(args):
    f = load_typed(args.files[0], geo.BMapDescriptor)
    fam = load_typed(args.files[1], IndexFamily)
    if args.action == "pullback":
        result = transport.pull_back_family(f, fam)
        return result.to_jsonable(), ["pulled-back family:"] + _family_lines(result), 0
    if len(f.target.bhs_names) == 1:
        report = transport.push_forward_halfline(f, fam)
        lines = ["push-forward index set:"]
        lines += _set_report(report.result, args.truncate)[1]
    else:
        report = transport.push_forward_family(f, fam)
        lines = ["push-forward family:"] + _family_lines(report.result)
    lines.append(f"integrability: {'ok' if report.integrability_ok else 'VIOLATED'}")
    if report.violating_bhs:
        lines.append(f"violating bhs: {', '.join(report.violating_bhs)}")
    return report.to_jsonable(), lines, 0 if report.integrability_ok else 2


# -- op ------------------------------------------------------------------------


def _cmd_op(args):
    expected = {"specb": 1, "split": 1, "inverse": 1, "apply-check": 1,
                "compose": 2, "action": 2, "parametrix": 1, "hs": 0}
    _need_files(args, expected[args.action])
    if args.action == "specb":
        op = load_typed(args.files[0], bop.BDiffOp)
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
    if args.action == "split":
        op = load_typed(args.files[0], bop.BDiffOp)
        e_lb, e_rb = bop.split_spec(bop.indicial(op), args.gamma)
        payload = {"E_lb": e_lb.to_jsonable(), "E_rb": e_rb.to_jsonable()}
        lines = [f"E_lb = {e_lb}", f"E_rb = {e_rb}"]
        return payload, lines, 0
    if args.action == "inverse":
        op = load_typed(args.files[0], bop.BDiffOp)
        kernel = bop.model_inverse(bop.indicial(op), args.gamma)
        lines = ["model kernel terms (s = ratio variable):"]
        for t in kernel.terms:
            lines.append(f"  side={t.side} z={t.z} p={t.p} coeff={t.coeff}")
        return kernel.to_jsonable(), lines, 0
    if args.action == "apply-check":
        op = load_typed(args.files[0], bop.BDiffOp)
        kernel = bop.model_inverse(bop.indicial(op), args.gamma)
        a, b = args.support
        v = num.smooth_bump((a + b) / 2.0, (b - a) / 2.0)
        report = bop.apply_check(
            op, kernel, v, (a, b), spec=num.QuadratureSpec(args.tol, args.tol, 300)
        )
        line = f"max residual of P(Kv) - v: {report.max_residual:.12g}"
        return report.to_jsonable(), [line], 0
    if args.action == "compose":
        p = load_typed(args.files[0], bop.FullCalcDescriptor)
        q = load_typed(args.files[1], bop.FullCalcDescriptor)
        c = bop.compose_descriptors(p, q)
        lines = [f"order {c.order}", f"E_lb = {c.E_lb}", f"E_rb = {c.E_rb}"]
        return c.to_jsonable(), lines, 0
    if args.action == "action":
        p = load_typed(args.files[0], bop.FullCalcDescriptor)
        f_set = load_typed(args.files[1], IndexSet)
        result = bop.action_index(p, f_set)
        return _set_report(result, args.truncate) + (0,)
    if args.action == "parametrix":
        op = load_typed(args.files[0], bop.BDiffOp)
        report = bop.parametrix_indices(op, args.gamma, args.steps)
        lines = [
            f"parametrix: order {report.parametrix.order}, "
            f"E_lb = {report.parametrix.E_lb}, E_rb = {report.parametrix.E_rb}",
            f"remainder: E_lb = {report.remainder.E_lb}, E_rb = {report.remainder.E_rb}",
        ]
        return report.to_jsonable(), lines, 0
    # hs
    bump = num.smooth_bump(1.0, 0.5)
    kernels = {
        "bump": lambda x, s: bump(s),
        "x-bump": lambda x, s: x * bump(s),
        "zero": lambda x, s: 0.0,
    }
    report = bop.hs_front_face_criterion(
        kernels[args.kernel], args.support_c, args.eps,
        spec=num.QuadratureSpec(args.tol, args.tol, 200),
    )
    lines = [
        f"log(1/eps) slope: {report.slope:.12g}",
        f"front-face squared norm: {report.reference:.12g}",
    ]
    return report.to_jsonable(), lines, 0


# -- verify ----------------------------------------------------------------------


def _cmd_verify(args):
    results = verify_mod.run_suite(args.suite)
    lines = [r.line() for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    payload = {
        "suite": args.suite,
        "results": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed": passed,
        "total": len(results),
    }
    return payload, lines, 0 if passed == len(results) else 1


# -- parser -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: one stderr line and exit code 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _add_common_flags(parser, root: bool) -> None:
    # real defaults live on the root parser; subparsers use SUPPRESS so a
    # trailing flag overrides without clobbering a leading one
    def d(value):
        return value if root else argparse.SUPPRESS

    parser.add_argument("--truncate", type=_rational, default=d(Fraction(10)),
                        help="Re z bound for printed truncations (default 10)")
    parser.add_argument("--tol", type=float, default=d(1e-8),
                        help="numeric tolerance for checks (default 1e-8)")
    parser.add_argument("--json", action="store_true",
                        default=d(False), help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bcalc",
        description="index-set calculus with numeric cross-checks",
    )
    _add_common_flags(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indexset", help="index-set algebra")
    p.add_argument("action", choices=["union", "extunion", "sum", "complete", "inf", "truncate"])
    p.add_argument("files", nargs="+")
    _add_common_flags(p, root=False)
    p.set_defaults(handler=_cmd_indexset)

    p = sub.add_parser("space", help="model corners and blow-ups")
    sp = p.add_subparsers(dest="action", required=True)
    q = sp.add_parser("quadrant")
    q.add_argument("-k", type=int, required=True)
    q.add_argument("-n", type=int, required=True)
    q.add_argument("--names", default=None, help="comma-separated bhs names")
    _add_common_flags(q, root=False)
    q.set_defaults(handler=_cmd_space)
    b = sp.add_parser("blowup")
    b.add_argument("lattice")
    b.add_argument("--center", required=True, help="comma-separated bhs names")
    b.add_argument("--name", required=True, help="front face name")
    _add_common_flags(b, root=False)
    b.set_defaults(handler=_cmd_space)
    t = sp.add_parser("triple")
    _add_common_flags(t, root=False)
    t.set_defaults(handler=_cmd_space)

    p = sub.add_parser("map", help="b-map descriptors")
    p.add_argument("action", choices=["compose", "facemap", "check-bfibration"])
    p.add_argument("files", nargs="+")
    p.add_argument("--face", default="", help="comma-separated bhs names (facemap)")
    _add_common_flags(p, root=False)
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("transport", help="index transport theorems")
    p.add_argument("action", choices=["pullback", "pushforward"])
    p.add_argument("files", nargs=2, metavar=("MAP", "FAMILY"))
    _add_common_flags(p, root=False)
    p.set_defaults(handler=_cmd_transport)

    p = sub.add_parser("op", help="half-line operator calculus")
    p.add_argument("action", choices=[
        "specb", "split", "inverse", "apply-check", "compose", "action", "parametrix", "hs",
    ])
    p.add_argument("files", nargs="*")
    p.add_argument("--gamma", type=_rational, default=Fraction(0),
                   help="weight parameter (rational)")
    p.add_argument("--steps", type=int, default=1, help="parametrix iteration count")
    p.add_argument("--support", type=float, nargs=2, default=(1.0, 3.0),
                   help="test-function support for apply-check")
    p.add_argument("--kernel", choices=["bump", "x-bump", "zero"], default="bump",
                   help="built-in kernel for hs")
    p.add_argument("--support-c", dest="support_c", type=float, default=4.0)
    p.add_argument("--eps", type=float, default=1e-3)
    _add_common_flags(p, root=False)
    p.set_defaults(handler=_cmd_op)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", default="all", choices=sorted(verify_mod.SUITES))
    _add_common_flags(p, root=False)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, code = args.handler(args)
    except HypothesisViolation as exc:
        msg = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(args, "json", False):
            print(json.dumps(msg, sort_keys=True, indent=2))
        else:
            print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    _emit(args, payload, lines)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
