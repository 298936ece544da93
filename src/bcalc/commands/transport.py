"""``bcalc transport``: index transport theorems."""
from . import _set_report


def _family_lines(fam):
    lines = []
    for name, s in fam.sets:
        entries = ", ".join(f"({g.z},{g.p})" for g in s.sorted_generators()) or "empty"
        lines.append(f"  {name:<6} {entries}")
    return lines


def _pullback(args, f, fam):
    from .. import transport

    result = transport.pull_back_family(f, fam)
    return result.to_jsonable(), ["pulled-back family:"] + _family_lines(result), 0


def _pushforward(args, f, fam):
    from .. import transport

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


_MAP, _FAM = "BMapDescriptor", "IndexFamily"

ACTIONS = {
    "pullback": (_pullback, (_MAP, _FAM), ()),
    "pushforward": (_pushforward, (_MAP, _FAM), ("--truncate",)),
}
