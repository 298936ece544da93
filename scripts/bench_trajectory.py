"""Record one point of the benchmark trajectory as a JSON file.

Runs ``perfbench/run.py`` on each workload at the seeds in ``SEEDS``, for
``BENCHMARK.json``'s ``run_seconds``, once untraced (``--trace 0``) and once
traced (``--trace 1``), one run at a time (about ten minutes in all), and
writes:

* the machine: platform, CPU count, Python, NumPy and SciPy versions, and
  ``git describe --always --dirty`` of the tree measured;
* per workload and run: ``correct``, ``failed``, the gated end-to-end
  metrics, the printed-only ones (``run_s``, ``fail_frac``, ...) and the
  largest margin of each acceptance check;
* per workload, the median over seeds of each gated metric, of ``run_s``
  and of each per-layer metric.

Usage: ``python3 scripts/bench_trajectory.py --out FILE.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("symbolic", "oracle", "cli")
SEEDS = (21, 22, 23)
GATED = ("setup_s", "margin_max", "peak_rss_mb")
PRINTED = re.compile(r"^  (run_s|op_p50_ms|op_tail_ms|verify_s|fail_frac) +(\S+)")
MARGIN = re.compile(r"^ +(\S+)  (\S+) / (\S+)  (.+?)(  \[known defect\])?$")


def run(workload: str, seed: int, seconds: float, trace: int, root: Path = ROOT) -> dict:
    """One perfbench run in the tree at ``root``: its result line, printed
    metrics and margins."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    record = {"seed": seed, "trace": trace, "correct": result["correct"],
              "attempted": result["attempted"], "failed": result["failed"],
              "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    if not trace:
        record["printed"] = {m[1]: float(m[2]) for m in map(PRINTED.match, lines) if m}
        start = next(i for i, line in enumerate(lines) if line.startswith("margins ("))
        record["margins"] = {
            m[4]: {"measured": float(m[2]), "bound": float(m[3]), "known_defect": bool(m[5])}
            for m in map(MARGIN.match, lines[start + 1:-1]) if m}
    return record


def machine() -> dict:
    git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         capture_output=True, text=True)
    return {"platform": platform.platform(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "git": git.stdout.strip() or None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    point = {"machine": machine(), "seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            for trace in (0, 1):
                print(f"{workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
                runs.append(run(workload, seed, seconds, trace))
        plain = [r for r in runs if not r["trace"]]
        traced = [r for r in runs if r["trace"]]
        point["workloads"][workload] = {
            "gated": {name: statistics.median(r["metrics"][name] for r in plain) for name in GATED},
            "run_s": statistics.median(r["printed"]["run_s"] for r in plain),
            "per_layer": {name: statistics.median(r["metrics"][name] for r in traced)
                          for name in traced[0]["metrics"]},
            "runs": runs,
        }
    Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
