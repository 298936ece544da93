"""Run perfbench's in-process op list pass after pass and print what each op group leaves in memory.

Builds ``perfbench.workloads.symbolic_ops(seed)`` or ``oracle_ops(seed)``
and calls every op in order, ``--passes`` times, in this process.  Around
each call it reads the resident set size and the bytes held by CPython's
tuple free lists (from ``sys._debugmallocstats``, so CPython on Linux
only: RSS is read from ``/proc/self/statm``).  An op group is an op's
name up to its first ``[``, such as ``geometry.blowup_codim2``.  Per group it prints the calls per pass, the
RSS change its calls made in the first pass and in the later passes, and
the bytes its calls added to the tuple free lists over all passes.  Then
it prints RSS and free-tuple bytes before the first pass, after it and
after the last pass; their difference over passes 2..K is the drift.  The
first pass fills caches and imports lazily loaded modules, so its growth
is not drift.

A list that only fills, pass after pass, holds memory no later
allocation reuses: this is how a regression in ``peak_rss_mb`` is traced
to the op that causes it.  The script reads ``perfbench/`` and ``src/``
of the tree and writes nothing.

Usage: ``python3 scripts/rss_passes.py --workload symbolic|oracle --seed N
--passes K [--root DIR]``; ``--root`` defaults to the repository that
holds this script.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

FREE_TUPLES = re.compile(r"^\s*([\d,]+) free \d+-sized PyTupleObjects \* \d+ bytes each =\s*([\d,]+)$",
                         re.MULTILINE)
PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """The current resident set size."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * PAGE


def free_tuple_bytes() -> int:
    """Bytes held by the tuple free lists.  ``sys._debugmallocstats``
    writes to file descriptor 2, so that is pointed at an in-memory file
    for the call."""
    sys.stderr.flush()
    saved = os.dup(2)
    sink = os.memfd_create("mallocstats")
    try:
        os.dup2(sink, 2)
        sys._debugmallocstats()
    finally:
        os.dup2(saved, 2)
        os.close(saved)
    os.lseek(sink, 0, os.SEEK_SET)
    with os.fdopen(sink, "rb") as f:
        text = f.read().decode()
    return sum(int(total.replace(",", "")) for _, total in FREE_TUPLES.findall(text))


def group_of(name: str) -> str:
    return name.split("[", 1)[0]


def run_passes(ops, passes: int):
    """Call every op ``passes`` times; return per group [calls per pass,
    first-pass RSS change, later RSS change, free-tuple change] and the
    totals before, after the first pass and after the last."""
    groups = {}
    for op in ops:
        groups.setdefault(group_of(op.name), [0, 0, 0, 0])[0] += 1
    marks = [(rss_bytes(), free_tuple_bytes())]
    for i in range(passes):
        for op in ops:
            rss, free = rss_bytes(), free_tuple_bytes()
            try:
                op.fn()
            except Exception:  # a refused input is an outcome like any other
                pass
            row = groups[group_of(op.name)]
            row[1 if i == 0 else 2] += rss_bytes() - rss
            row[3] += free_tuple_bytes() - free
        if i == 0 or i == passes - 1:
            marks.append((rss_bytes(), free_tuple_bytes()))
    return groups, marks


def mb(n: int) -> str:
    return f"{n / 2**20:+.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("symbolic", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the tree whose perfbench/ and src/ are run")
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2: the first pass is not drift")
    root = args.root.resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import workloads

    ops, _ = (workloads.symbolic_ops if args.workload == "symbolic" else workloads.oracle_ops)(args.seed)
    groups, marks = run_passes(ops, args.passes)
    (rss0, free0), (rss1, free1), (rss_end, free_end) = marks
    print(f"rss_passes workload={args.workload} seed={args.seed} passes={args.passes} ops={len(ops)}")
    print(f"{'op group':<40} {'calls':>5} {'RSS pass 1':>11} {'RSS 2..K':>9} {'free tuples':>11}  (MB)")
    for name, (calls, first, later, free) in sorted(groups.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:<40} {calls:>5} {mb(first):>11} {mb(later):>9} {mb(free):>11}")
    print(f"RSS {rss0 / 2**20:.2f} MB before, {rss1 / 2**20:.2f} after pass 1, "
          f"{rss_end / 2**20:.2f} after pass {args.passes}")
    print(f"free tuples {free0 / 2**20:.3f} MB before, {free1 / 2**20:.3f} after pass 1, "
          f"{free_end / 2**20:.3f} after pass {args.passes}")
    print(f"drift over passes 2..{args.passes}: RSS {mb(rss_end - rss1)} MB, "
          f"free tuples {mb(free_end - free1)} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
