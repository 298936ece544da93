"""``bcalc indexset``: index-set algebra."""
from . import _set_report


def _set_operation(method):
    def handler(args, first, second):
        return _set_report(getattr(first, method)(second), args.truncate)
    return handler


def _complete(args, entries):
    from .. import cli
    from ..indexsets import IndexSet

    if isinstance(entries, IndexSet):
        entries = entries.sorted_generators()
    return _set_report(cli.complete(entries), args.truncate)


def _inf(args, s):
    v = s.inf_re()
    text = "+inf" if v == float("inf") else str(v)
    return {"inf": text}, [f"inf Re z = {text}"], 0


def _truncate(args, s):
    return _set_report(s, args.truncate)


_SET = "IndexSet"

ACTIONS = {
    "union": (_set_operation("union"), (_SET, _SET), ("--truncate",)),
    "extunion": (_set_operation("extended_union"), (_SET, _SET), ("--truncate",)),
    "sum": (_set_operation("sum_with"), (_SET, _SET), ("--truncate",)),
    "complete": (_complete, (None,), ("--truncate",)),
    "inf": (_inf, (_SET,), ()),
    "truncate": (_truncate, (_SET,), ("--truncate",)),
}
