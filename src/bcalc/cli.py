"""Command-line front end.

Objects live in JSON files (schemas per module); subcommands run the
calculus operations and print deterministic text or JSON reports.
``_ACTIONS`` is the one declaration of what each action takes: its
handler, the kind of each file it reads, and the flags it reads.  The
parser is built from it, so a wrong number of files or a flag the action
does not read is a usage error; ``--json`` is accepted anywhere.  ``main``
builds the action leaves of the one command it runs (the first word of the
command line, since no top-level option takes a value); ``--help`` and
usage errors read the same as from the full parser, ``build_parser()``.
Each action loads only the layer it runs, by one rule: this module imports
nothing of bcalc but ``errors`` at the top, and whatever runs a layer
imports it in its body and calls it through the module.  So a handler
imports ``indexsets`` for ``indexset complete`` (through this module's
``complete``, which a tracer can wrap), ``geometry`` for ``space`` and
``map``, ``transport`` for ``transport``, ``boperators`` for ``op`` but
``hs``, and ``numeric`` for ``apply-check`` and ``hs``; ``main`` imports
``serialize`` only when the action reads files, and a rational flag, whose
string default parses too, imports ``rationals``.  ``json`` loads only to
write ``--json`` output or to read files (through ``serialize``).  NumPy
loads only where floats are crunched, with ``numeric`` in ``apply-check``,
``hs`` and ``verify``, and only ``verify`` runs QUADPACK and so loads
SciPy; the float root finder an ``op`` action runs on an indicial factor
of degree two or more is pure Python.
Exit codes: 0 success, 1 malformed input (unreadable files or flags, usage
errors), 2 violated theorem hypothesis (integrability, b-fibration,
composition condition, inadmissible weight), 3 numeric failure (quadrature,
conditioning or fit rejection).
"""
import argparse
import re
import sys

from .errors import HypothesisViolation, NumericFailure, SchemaError


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
        import json

        print(json.dumps(_round_floats(payload), sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _entry_text(e):
    z = str(e.z)
    return f"  z = {z:<12} p = {e.p}"


def _set_report(s, bound):
    lines = ["generators:"]
    lines += [_entry_text(g) for g in s.sorted_generators()] or ["  (empty)"]
    members = s.truncate(bound)
    lines.append(f"members with Re z <= {bound}:")
    lines += [_entry_text(e) for e in members] or ["  (none)"]
    payload = dict(s.to_jsonable())
    payload["truncation"] = [e.to_jsonable() for e in members]
    return payload, lines, 0


# Each handler takes the parsed flags and the objects read from its files,
# in the order and of the kinds its ``_ACTIONS`` entry declares, and returns
# (payload, text lines, exit code).

# -- indexset ---------------------------------------------------------------


def _set_operation(method):
    def handler(args, first, second):
        return _set_report(getattr(first, method)(second), args.truncate)
    return handler


def complete(entries):
    from . import indexsets

    return indexsets.complete(entries)


def _indexset_complete(args, entries):
    from .indexsets import IndexSet

    if isinstance(entries, IndexSet):
        entries = entries.sorted_generators()
    return _set_report(complete(entries), args.truncate)


def _indexset_inf(args, s):
    v = s.inf_re()
    text = "+inf" if v == float("inf") else str(v)
    return {"inf": text}, [f"inf Re z = {text}"], 0


def _indexset_truncate(args, s):
    return _set_report(s, args.truncate)


# -- space ------------------------------------------------------------------


def _space_quadrant(args):
    from . import geometry as geo

    names = tuple(args.names.split(",")) if args.names else None
    lat = geo.model_quadrant(args.k, args.n, names)
    payload = lat.to_jsonable()
    lines = [f"quadrant: {args.k} boundary hypersurfaces in dimension {args.n}",
             f"bhs: {', '.join(lat.bhs_names)}",
             f"faces: {payload['faces']}"]
    return payload, lines, 0


def _space_blowup(args, lat):
    from . import geometry as geo

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


def _space_triple(args):
    from . import geometry as geo

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


def _map_compose(args, f, g):
    from . import geometry as geo

    c = geo.compose(f, g)
    lines = ["exponent matrix rows (source bhs) x columns (target bhs):"]
    for name, row in zip(c.source.bhs_names, c.exponents):
        lines.append(f"  {name:<6} {list(row)}")
    return c.to_jsonable(), lines, 0


def _map_facemap(args, f):
    from . import geometry as geo

    face = [] if args.face in ("", "-") else args.face.split(",")
    image = geo.induced_face_map(f, face)
    payload = {"face": sorted(face), "image": sorted(image)}
    return payload, [f"{sorted(face)} -> {sorted(image)}"], 0


def _map_check_bfibration(args, f):
    from . import geometry as geo

    report = geo.check_b_fibration(f)
    lines = [f"codimension condition: {'ok' if report.codim_ok else 'VIOLATED'}"]
    if report.violating_faces:
        lines.append(f"violating bhs: {', '.join(report.violating_faces)}")
    lines.append(f"fibration over open faces (asserted): {report.fibration_on_faces}")
    lines.append(f"b-fibration: {report.verdict}")
    return report.to_jsonable(), lines, 0 if report.verdict else 2


# -- transport ----------------------------------------------------------------


def _family_lines(fam):
    lines = []
    for name, s in fam.sets:
        entries = ", ".join(f"({g.z},{g.p})" for g in s.sorted_generators()) or "empty"
        lines.append(f"  {name:<6} {entries}")
    return lines


def _transport_pullback(args, f, fam):
    from . import transport

    result = transport.pull_back_family(f, fam)
    return result.to_jsonable(), ["pulled-back family:"] + _family_lines(result), 0


def _transport_pushforward(args, f, fam):
    from . import transport

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


def _op_specb(args, op):
    from . import boperators as bop

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


def _op_split(args, op):
    from . import boperators as bop

    e_lb, e_rb = bop.split_spec(bop.indicial(op), args.gamma)
    payload = {"E_lb": e_lb.to_jsonable(), "E_rb": e_rb.to_jsonable()}
    lines = [f"E_lb = {e_lb}", f"E_rb = {e_rb}"]
    return payload, lines, 0


def _op_inverse(args, op):
    from . import boperators as bop

    kernel = bop.model_inverse(bop.indicial(op), args.gamma)
    lines = ["model kernel terms (s = ratio variable):"]
    for t in kernel.terms:
        lines.append(f"  side={t.side} z={t.z} p={t.p} coeff={t.coeff}")
    return kernel.to_jsonable(), lines, 0


def _op_apply_check(args, op):
    from . import boperators as bop
    from . import numeric as num

    kernel = bop.model_inverse(bop.indicial(op), args.gamma)
    a, b = args.support
    v = num.smooth_bump((a + b) / 2.0, (b - a) / 2.0)
    report = num.apply_check(op, kernel, v, (a, b))
    line = f"max residual of P(Kv) - v: {report.max_residual:.12g}"
    return report.to_jsonable(), [line], 0


def _op_compose(args, p, q):
    from . import boperators as bop

    c = bop.compose_descriptors(p, q)
    lines = [f"order {c.order}", f"E_lb = {c.E_lb}", f"E_rb = {c.E_rb}"]
    return c.to_jsonable(), lines, 0


def _op_action(args, p, f_set):
    from . import boperators as bop

    return _set_report(bop.action_index(p, f_set), args.truncate)


def _op_parametrix(args, op):
    from . import boperators as bop

    report = bop.parametrix_indices(op, args.gamma, args.steps)
    lines = [
        f"parametrix: order {report.parametrix.order}, "
        f"E_lb = {report.parametrix.E_lb}, E_rb = {report.parametrix.E_rb}",
        f"remainder: E_lb = {report.remainder.E_lb}, E_rb = {report.remainder.E_rb}",
    ]
    return report.to_jsonable(), lines, 0


def _op_hs(args):
    from . import numeric as num

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


# -- verify ----------------------------------------------------------------------


def _verify(args):
    from . import verify

    results = verify.run_suite(args.suite)
    lines = [r.line() for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    payload = {
        "suite": args.suite,
        "results": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail,
             "checks": [dict(zip(("label", "measured", "bound"), c)) for c in r.checks]}
            for r in results
        ],
        "passed": passed,
        "total": len(results),
    }
    return payload, lines, 0 if passed == len(results) else 1


# -- parser -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: one stderr line and exit code 1.

    A negative rational or decimal, with or without an exponent (``-1/2``,
    ``-1e-3``), is a flag value: argparse alone reads only ``-N`` and
    ``-N.M`` as numbers, and no bcalc option looks like a number.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+/\d+|(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)$")

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _rational(text: str):
    from .rationals import as_fraction

    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


_FLAGS = {
    # argparse runs a string default through ``type``: these parse to Fractions
    "--truncate": dict(type=_rational, default="10",
                       help="Re z bound for printed truncations (default 10)"),
    "--gamma": dict(type=_rational, default="0", help="weight parameter (rational)"),
    "--steps": dict(type=int, default=1, help="parametrix iteration count"),
    "--support": dict(type=float, nargs=2, default=(1.0, 3.0), help="test-function support"),
    "--kernel": dict(choices=["bump", "x-bump", "zero"], default="bump", help="built-in kernel"),
    "--support-c": dict(type=float, default=4.0),
    "--eps": dict(type=float, default=1e-3),
    "-k": dict(type=int, required=True),
    "-n": dict(type=int, required=True),
    "--names": dict(help="comma-separated bhs names"),
    "--center": dict(required=True, help="comma-separated bhs names"),
    "--name": dict(required=True, help="front face name"),
    "--face": dict(default="", help="comma-separated bhs names"),
    # verify.SUITES in sorted order, written out so the parser loads no NumPy
    "--suite": dict(default="all", choices=("all", "combinatorics", "frontface", "indexsets",
                                            "parametrix", "pullback", "pushforward")),
}

_COMMANDS = {
    "indexset": "index-set algebra",
    "space": "model corners and blow-ups",
    "map": "b-map descriptors",
    "transport": "index transport theorems",
    "op": "half-line operator calculus",
    "verify": "run the verification suite",
}

_SET, _MAP, _FAM = "IndexSet", "BMapDescriptor", "IndexFamily"
_OP, _DESC = "BDiffOp", "FullCalcDescriptor"

# (command, action) -> (handler, kinds of its files, flags it reads); a kind
# is the class name of the object a file must hold (so the table names the
# kinds without importing their modules), and None reads any object.  verify
# has no action.
_ACTIONS = {
    ("indexset", "union"): (_set_operation("union"), (_SET, _SET), ("--truncate",)),
    ("indexset", "extunion"): (_set_operation("extended_union"), (_SET, _SET), ("--truncate",)),
    ("indexset", "sum"): (_set_operation("sum_with"), (_SET, _SET), ("--truncate",)),
    ("indexset", "complete"): (_indexset_complete, (None,), ("--truncate",)),
    ("indexset", "inf"): (_indexset_inf, (_SET,), ()),
    ("indexset", "truncate"): (_indexset_truncate, (_SET,), ("--truncate",)),
    ("space", "quadrant"): (_space_quadrant, (), ("-k", "-n", "--names")),
    ("space", "blowup"): (_space_blowup, ("FaceLattice",), ("--center", "--name")),
    ("space", "triple"): (_space_triple, (), ()),
    ("map", "compose"): (_map_compose, (_MAP, _MAP), ()),
    ("map", "facemap"): (_map_facemap, (_MAP,), ("--face",)),
    ("map", "check-bfibration"): (_map_check_bfibration, (_MAP,), ()),
    ("transport", "pullback"): (_transport_pullback, (_MAP, _FAM), ()),
    ("transport", "pushforward"): (_transport_pushforward, (_MAP, _FAM), ("--truncate",)),
    ("op", "specb"): (_op_specb, (_OP,), ()),
    ("op", "split"): (_op_split, (_OP,), ("--gamma",)),
    ("op", "inverse"): (_op_inverse, (_OP,), ("--gamma",)),
    ("op", "apply-check"): (_op_apply_check, (_OP,), ("--gamma", "--support")),
    ("op", "compose"): (_op_compose, (_DESC, _DESC), ()),
    ("op", "action"): (_op_action, (_DESC, _SET), ("--truncate",)),
    ("op", "parametrix"): (_op_parametrix, (_OP,), ("--gamma", "--steps")),
    ("op", "hs"): (_op_hs, (), ("--kernel", "--support-c", "--eps")),
    ("verify", None): (_verify, (), ("--suite",)),
}


def _json_flag(parser, default=argparse.SUPPRESS) -> None:
    # only the root holds the default, so a later --json is not clobbered
    parser.add_argument("--json", action="store_true", default=default,
                        help="machine-readable output")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, with the action leaves of ``command``
    alone when one is named (of every command when it is None)."""
    parser = _Parser(prog="bcalc", description="index-set calculus with numeric cross-checks")
    _json_flag(parser, default=False)
    commands = parser.add_subparsers(dest="command", required=True)
    parents = {name: commands.add_parser(name, help=text) for name, text in _COMMANDS.items()}
    actions = {}
    for (name, action), (handler, kinds, flags) in _ACTIONS.items():
        if command not in (None, name):
            continue
        leaf = parents[name]
        if action is not None:
            if name not in actions:
                _json_flag(leaf)
                actions[name] = leaf.add_subparsers(dest="action", required=True)
            leaf = actions[name].add_parser(action)
        if kinds:
            leaf.add_argument("files", nargs=len(kinds), metavar="FILE")
        for flag in flags:
            leaf.add_argument(flag, **_FLAGS[flag])
        _json_flag(leaf)
        leaf.set_defaults(handler=handler, kinds=kinds, files=())
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # no top-level option takes a value, so the first word is the command
    args = build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
    try:
        objects = []
        if args.files:
            from . import serialize

            objects = [serialize.load_typed(path, kind) if kind else serialize.load_object(path)
                       for path, kind in zip(args.files, args.kinds)]
        payload, lines, code = args.handler(args, *objects)
    except HypothesisViolation as exc:
        if args.json:
            import json

            msg = {"error": type(exc).__name__, "message": str(exc)}
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
