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
  and of each per-layer metric;
* ``cold_start``: per subcommand in ``COLD_START``, the median wall time of
  ``COLD_REPEATS`` fresh ``python -m bcalc`` runs without bytecode caches
  (``PYTHONDONTWRITEBYTECODE=1``, as the benchmark runs), under
  ``quartiles`` the first and third quartiles of those runs, and the wall
  time of one tier-1 pytest run (``pytest_s``).  ``cold_start(parent,
  change)`` measures two trees at once, alternating them on each repeat,
  and counts under ``wins`` the repeats in which each tree was the faster.

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
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("symbolic", "oracle", "cli")
SEEDS = (21, 22, 23)
GATED = ("setup_s", "margin_max", "peak_rss_mb")
PRINTED = re.compile(r"^  (run_s|op_p50_ms|op_tail_ms|verify_s|fail_frac) +(\S+)")
MARGIN = re.compile(r"^ +(\S+)  (\S+) / (\S+)  (.+?)(  \[known defect\])?$")
COLD_REPEATS = 7
# argv per subcommand; SMOOTH, OP, SQRT2 and DESC stand for an index-set file, the
# operator files of z + 1 and z^2 - 2, and a full-calculus descriptor file;
# BLOWDOWN, QPROJ and PROJ for the b-maps X2b -> quadrant -> half-line and
# X2b -> half-line, and FAM for an index family on X2b; "space quadrant" loads
# geometry alone, "space triple" geometry and bmaps
COLD_START = {
    "--help": ["--help"],
    "space quadrant": ["space", "quadrant", "-k", "2", "-n", "2"],
    "space blowup": ["space", "blowup", "QUADRANT", "--center", "Hx,Hy", "--name", "ff"],
    "space triple": ["space", "triple"],
    "indexset extunion": ["indexset", "extunion", "SMOOTH", "SMOOTH"],
    "map compose": ["map", "compose", "BLOWDOWN", "QPROJ"],
    "transport pushforward": ["transport", "pushforward", "PROJ", "FAM"],
    "op specb": ["op", "specb", "OP"],
    "op specb z^2 - 2": ["op", "specb", "SQRT2"],
    "op compose": ["op", "compose", "DESC", "DESC"],
    "op apply-check": ["op", "apply-check", "OP"],
    "op hs": ["op", "hs"],
    "verify --suite all": ["verify", "--suite", "all"],
}


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


def _wall(argv, env, root) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=root, env=env, capture_output=True, check=True)
    return time.perf_counter() - start


def cold_start(*roots: Path) -> list:
    """Per tree in ``roots``: seconds per subcommand of ``COLD_START`` (the
    median of ``COLD_REPEATS`` fresh runs) and of one tier-1 pytest run,
    without bytecode caches.  Each repeat runs every tree once, in an order
    that reverses from one repeat to the next (as ``bench_pairs.py``
    alternates its sides), so drift of the machine does not read as a
    difference between trees.  Beside the medians, ``quartiles`` holds each
    subcommand's [first, third] quartile of its repeats and, for two trees,
    ``wins`` the number of repeats in which the tree was faster than the other."""
    envs = [{**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(root / "src")}
            for root in roots]
    out = [{} for _ in roots]
    with tempfile.TemporaryDirectory() as tmp:
        smooth = {"generators": [{"re": "0", "im": "0", "p": 0}]}
        x2b = {"dim": 2, "bhs": ["lb", "rb", "ff"],
               "faces": [[], ["ff"], ["lb"], ["rb"], ["ff", "lb"], ["ff", "rb"]]}
        quadrant = {"dim": 2, "bhs": ["Hx", "Hy"], "faces": [[], ["Hx"], ["Hy"], ["Hx", "Hy"]]}
        halfline = {"dim": 1, "bhs": ["H"], "faces": [[], ["H"]]}
        contents = {
            "SMOOTH": smooth,
            "QUADRANT": quadrant,
            "OP": {"coeffs": [["1"], ["1"]]},
            "SQRT2": {"coeffs": [["-2"], ["0"], ["1"]]},
            "DESC": {"order": -1.0, "E_lb": {"generators": []},
                     "E_rb": {"generators": [{"re": "1", "im": "0", "p": 0}]}},
            "BLOWDOWN": {"source": x2b, "target": quadrant, "e": [[1, 0], [0, 1], [1, 1]],
                         "fibration_faces": True},
            "QPROJ": {"source": quadrant, "target": halfline, "e": [[1], [0]],
                      "fibration_faces": True},
            "PROJ": {"source": x2b, "target": halfline, "e": [[1], [0], [1]],
                     "fibration_faces": True},
            "FAM": {"assignment": {"lb": smooth, "ff": smooth,
                                   "rb": {"generators": [{"re": "1", "im": "0", "p": 0}]}}},
        }
        files = {name: Path(tmp, f"{name.lower()}.json") for name in contents}
        for name, data in contents.items():
            files[name].write_text(json.dumps(data))
        for name, argv in COLD_START.items():
            argv = [sys.executable, "-m", "bcalc", *(str(files.get(a, a)) for a in argv)]
            walls = [[] for _ in roots]
            for i in range(COLD_REPEATS):
                for k in sorted(range(len(roots)), reverse=i % 2 == 1):
                    walls[k].append(_wall(argv, envs[k], roots[k]))
            for k, times in enumerate(walls):
                out[k][name] = statistics.median(times)
                q1, _, q3 = statistics.quantiles(times, n=4)
                out[k].setdefault("quartiles", {})[name] = [q1, q3]
                if len(roots) == 2:
                    other = walls[1 - k]
                    out[k].setdefault("wins", {})[name] = sum([t < u for t, u in zip(times, other)])
    for k, root in enumerate(roots):
        out[k]["pytest_s"] = _wall([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                    "--continue-on-collection-errors"], envs[k], root)
    return out


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
    print("cold start", file=sys.stderr, flush=True)
    [point["cold_start"]] = cold_start(ROOT)
    Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
