"""Compare a base revision with the working tree on one benchmark workload, in pairs.

Copies two trees into a temporary directory: the committed tree of
``--base`` (``git archive``, so nothing is registered in ``.git``), and the
files of the working tree that git would commit (tracked, and untracked
but not ignored).  Then it runs ``perfbench/run.py`` in each in turn, for
``--pairs`` pairs at one seed, alternating which side runs first (base,
change, change, base, ...).  Both copies start without bytecode caches,
as a fresh checkout does.  Per metric it prints both medians, both
quartile ranges and the pairs each side won (by ``BENCHMARK.json``'s
``better``, or lower for the printed ``run_s``, ``op_p50_ms``,
``op_tail_ms``, ``verify_s`` and ``fail_frac``); then each side's
``correct`` and ``failed`` per run, the check that sets ``margin_max`` in
each run (its largest margin, known defects left out; untraced runs only),
and whether ``margin_max`` is identical on every run (a traced run reports
no ``margin_max``, so with ``--trace 1`` that line reads n/a).  Last, one
verdict per gated end-to-end metric of ``BENCHMARK.json`` (see ``verdict``).
``--json`` prints the same as one JSON object, with every run's values.  The
output is parsed by ``bench_trajectory.run``.

Usage: ``python3 scripts/bench_pairs.py --base REV --workload W --seed N
--pairs K [--seconds S] [--trace 1] [--json]``; ``--seconds`` defaults to
``BENCHMARK.json``'s ``run_seconds``.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from bench_trajectory import ROOT, WORKLOADS, run

SIDES = ("base", "change")


def extract(rev: str, dest: Path) -> None:
    """The committed tree of ``rev``, written to ``dest``."""
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=ROOT,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def copy_working_tree(dest: Path) -> None:
    """The working tree's tracked and unignored files, copied to ``dest``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def margin_max_check(record: dict):
    """The label of the run's largest margin outside the known defects, the
    check that sets its ``margin_max``; None for a traced run."""
    ratios = {label: m["measured"] / m["bound"] for label, m in record.get("margins", {}).items()
              if not m["known_defect"]}
    return max(ratios, key=ratios.get, default=None)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(runs: dict, better: dict) -> dict:
    """Per metric: each side's median, quartiles and values, and the pairs won."""
    out = {}
    for name in runs["base"][0]["values"]:
        series = {side: [r["values"][name] for r in runs[side]] for side in SIDES}
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        won = {"base": 0, "change": 0, "tie": 0}
        for b, c in zip(series["base"], series["change"]):
            won["tie" if b == c else "change" if sign * (c - b) > 0 else "base"] += 1
        out[name] = {"better": "lower" if sign < 0 else "higher", "won": won}
        for side in SIDES:
            q1, q3 = quartiles(series[side])
            out[name][side] = {"median": statistics.median(series[side]), "q1": q1, "q3": q3,
                               "values": series[side]}
    return out


def verdict(metric: dict, bound: float) -> str:
    """The verdict on one end-to-end metric of ``compare``, checked in this
    order: *regression* when the change's median is worse than the base's
    by more than ``bound``, a fraction of the base median; *unresolved* when
    the base's quartile distance is wider than that same allowance and not
    every change run beats every base run; *gain* when the change won at
    least 9 of 10 pairs (ties count for neither side) and the medians
    differ by more than the base's quartile distance; *no change* else."""
    base, change, won = metric["base"], metric["change"], metric["won"]
    sign = -1.0 if metric["better"] == "lower" else 1.0
    allowance = bound * abs(base["median"])
    spread = base["q3"] - base["q1"]
    pairs = sum(won.values())
    if sign * (change["median"] - base["median"]) < -allowance:
        return "regression"
    worst_change = min(sign * v for v in change["values"])
    if spread > allowance and not worst_change > max(sign * v for v in base["values"]):
        return "unresolved"
    if 10 * won["change"] >= 9 * pairs and sign * (change["median"] - base["median"]) > spread:
        return "gain"
    return "no change"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    rev = subprocess.run(["git", "rev-parse", "--short", args.base], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        tmp = Path(tmp)
        trees = {side: tmp / side for side in SIDES}
        extract(args.base, trees["base"])
        copy_working_tree(trees["change"])
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                print(f"pair {i + 1}/{args.pairs} {side}", file=sys.stderr, flush=True)
                record = run(args.workload, args.seed, seconds, args.trace, trees[side])
                record["values"] = {**record["metrics"], **record.get("printed", {})}
                runs[side].append(record)
    untraced = [r for side in SIDES for r in runs[side] if not r["trace"]]
    margins = {r["metrics"]["margin_max"] for r in untraced}
    report = {
        "base": rev, "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "seconds": seconds, "trace": args.trace,
        "correct": {side: [r["correct"] for r in runs[side]] for side in SIDES},
        "failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
        "margin_max_check": {side: [margin_max_check(r) for r in runs[side]] for side in SIDES},
        "margin_max_identical": len(margins) == 1 if untraced else None,
        "metrics": compare(runs, better),
    }
    report["verdicts"] = {name: verdict(report["metrics"][name], bound)
                          for name, bound in bounds.items() if name in report["metrics"]}
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0
    print(f"base {rev} against the working tree: workload {args.workload}, seed {args.seed}, "
          f"{args.pairs} pairs, --seconds {seconds:g}, --trace {args.trace}")
    for side in SIDES:
        print(f"{side:<6}  correct {report['correct'][side]}  failed {report['failed'][side]}")
    for side in SIDES:
        checks = report["margin_max_check"][side]
        named = ", ".join(f"{label or 'none (traced)'} ({checks.count(label)} of {len(checks)})"
                          for label in dict.fromkeys(checks))
        print(f"{side:<6}  margin_max set by: {named}")
    identical = report["margin_max_identical"]
    print("margin_max identical on every run: "
          f"{'n/a (traced)' if identical is None else 'yes' if identical else 'no'}")
    print(f"{'metric':<32} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32}  "
          "won base/change/tie")
    for name, m in report["metrics"].items():
        cells = [f"{m[side]['median']:.6g} [{m[side]['q1']:.4g}, {m[side]['q3']:.4g}]"
                 for side in SIDES]
        won = m["won"]
        print(f"{name:<32} {cells[0]:>32} {cells[1]:>32}  "
              f"{won['base']}/{won['change']}/{won['tie']} ({m['better']} is better)")
    for name, outcome in report["verdicts"].items():
        print(f"verdict {name}: {outcome} (bound {bounds[name]:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
