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
``correct`` and ``failed`` per run, and whether ``margin_max`` is
identical on every run.  ``--json`` prints the same as one JSON object,
with every run's values.  The output is parsed by
``bench_trajectory.run``.

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
    margins = {r["metrics"]["margin_max"] for side in SIDES for r in runs[side]}
    report = {
        "base": rev, "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "seconds": seconds, "trace": args.trace,
        "correct": {side: [r["correct"] for r in runs[side]] for side in SIDES},
        "failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
        "margin_max_identical": len(margins) == 1,
        "metrics": compare(runs, better),
    }
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0
    print(f"base {rev} against the working tree: workload {args.workload}, seed {args.seed}, "
          f"{args.pairs} pairs, --seconds {seconds:g}, --trace {args.trace}")
    for side in SIDES:
        print(f"{side:<6}  correct {report['correct'][side]}  failed {report['failed'][side]}")
    print(f"margin_max identical on every run: {'yes' if report['margin_max_identical'] else 'no'}")
    print(f"{'metric':<32} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32}  "
          "won base/change/tie")
    for name, m in report["metrics"].items():
        cells = [f"{m[side]['median']:.6g} [{m[side]['q1']:.4g}, {m[side]['q3']:.4g}]"
                 for side in SIDES]
        won = m["won"]
        print(f"{name:<32} {cells[0]:>32} {cells[1]:>32}  "
              f"{won['base']}/{won['change']}/{won['tie']} ({m['better']} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
