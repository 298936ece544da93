"""The actions of the command-line front end, one module per command.

Each command module (``indexset``, ``space``, ``map``, ``transport``,
``op``, ``verify``) declares its actions in ``ACTIONS``, next to their
handlers: action name (None for ``verify``, which has none) ->
(handler, kinds of its files, flags it reads).  A kind is the class name
of the object a file must hold, so the table names the kinds without
importing their modules, and None reads any object; a flag is a key of
``_FLAGS``.  A handler takes the parsed flags and the objects read from
its files, in that order and of those kinds, and returns (payload, text
lines, exit code).  ``cli.build_parser`` imports only the module of the
command it runs, so a run compiles no other command's handlers.

Each action loads only the layer it runs, by one rule: this package
imports nothing of bcalc at the top, and whatever runs a layer imports it
in its body and calls it through the module.  So a handler imports
``indexsets`` for ``indexset complete`` (through ``cli.complete``, which a
tracer can wrap), ``geometry`` for ``space`` and ``map``, ``transport``
for ``transport``, ``boperators`` for ``op`` but ``hs``, and ``numeric``
for ``apply-check`` and ``hs``; ``cli.main`` imports ``serialize`` only
when the action reads files, and a rational flag, whose string default
parses too, imports ``rationals``.  ``json`` loads only to write
``--json`` output or to read files (through ``serialize``).  NumPy loads
only where floats are crunched, with ``numeric`` in ``apply-check``,
``hs`` and ``verify``, and only ``verify`` runs QUADPACK and so loads
SciPy; the float root finder an ``op`` action runs on an indicial factor
of degree two or more is pure Python.
"""
import argparse


def _rational(text: str):
    from ..rationals import as_fraction

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
