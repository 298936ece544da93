"""Command-line front end: the process entry.

Objects live in JSON files (schemas per module); subcommands run the
calculus operations and print deterministic text or JSON reports.  This
module holds the parser and the dispatch; the actions live in
``commands``, one module per command, each declaring in ``ACTIONS`` its
actions' handlers, the kinds of the files they read and the flags they
read.  The parser is built from those tables, so a wrong number of files
or a flag the action does not read is a usage error; ``--json`` is
accepted anywhere.  ``main`` imports the module of the one command it runs
(the first word of the command line, since no top-level option takes a
value) and builds its action leaves alone, and none without a command
word; ``--help`` and usage errors read the same as from the full parser,
``build_parser()``.  Of bcalc this module imports only ``errors`` at the
top: see ``commands`` for the layer each action loads.
Exit codes: 0 success, 1 malformed input (unreadable files or flags, usage
errors), 2 violated theorem hypothesis (integrability, b-fibration,
composition condition, inadmissible weight), 3 numeric failure (quadrature,
conditioning or fit rejection).
"""
import argparse
import importlib
import re
import sys

from .errors import HypothesisViolation, NumericFailure, SchemaError


def complete(entries):
    from . import indexsets

    return indexsets.complete(entries)


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


_COMMANDS = {
    "indexset": "index-set algebra",
    "space": "model corners and blow-ups",
    "map": "b-map descriptors",
    "transport": "index transport theorems",
    "op": "half-line operator calculus",
    "verify": "run the verification suite",
}


def _json_flag(parser, default=argparse.SUPPRESS) -> None:
    # only the root holds the default, so a later --json is not clobbered
    parser.add_argument("--json", action="store_true", default=default,
                        help="machine-readable output")


def _add_leaves(parent, command) -> None:
    """The action leaves of ``command`` under its parser ``parent``."""
    from .commands import _FLAGS

    actions = None
    table = importlib.import_module(f"{__package__}.commands.{command}").ACTIONS
    for action, (handler, kinds, flags) in table.items():
        leaf = parent
        if action is not None:
            if actions is None:
                _json_flag(parent)
                actions = parent.add_subparsers(dest="action", required=True)
            leaf = actions.add_parser(action)
        if kinds:
            leaf.add_argument("files", nargs=len(kinds), metavar="FILE")
        for flag in flags:
            leaf.add_argument(flag, **_FLAGS[flag])
        _json_flag(leaf)
        leaf.set_defaults(handler=handler, kinds=kinds, files=())


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, with the action leaves of ``command``
    alone when it is a word (of every command when it is None, and of none
    when the word names no command)."""
    parser = _Parser(prog="bcalc", description="index-set calculus with numeric cross-checks")
    _json_flag(parser, default=False)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, text in _COMMANDS.items():
        parent = commands.add_parser(name, help=text)
        if command in (None, name):
            _add_leaves(parent, name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # no top-level option takes a value, so the first word is the command;
    # without one (as for --help) no leaves are built
    args = build_parser(next((a for a in argv if not a.startswith("-")), "")).parse_args(argv)
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
    from .commands import _emit

    _emit(args, payload, lines)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
