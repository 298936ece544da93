"""``bcalc verify``: the acceptance suite; the command has no action."""


def _verify(args):
    from .. import verify

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


ACTIONS = {None: (_verify, (), ("--suite",))}
