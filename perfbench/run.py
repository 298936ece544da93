"""bcalc benchmark: one seeded workload per run, outputs checked by oracles.

Run from the repository root:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): ``symbolic``,
``oracle`` and ``cli``.  Each is a closed loop with one client in one
process: the fixed op list drawn from the seed runs pass after pass while
another pass is expected to end within half a pass of ``--seconds``.  The
first pass is checked against the oracles, later passes against the first.
On ``oracle`` the acceptance suite then runs once; on every workload the
margins the acceptance cases pin are recomputed after timing.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the op list runs for half of ``--seconds`` untraced and half
under the span recorder, and the last line holds the per-layer metrics.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("symbolic", "oracle", "cli")
# fresh workers for setup_s: half before the timed loop, half after it, so
# that the median spans the run rather than one moment of it
SETUP_REPEATS = 8
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import bcalc, bcalc.cli; "
    "from bcalc import geometry; geometry.x2b(); geometry.triple_b_space(); "
    "print(time.perf_counter() - t, bcalc.__file__)"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_setup() -> float:
    """Import bcalc and bcalc.cli and build the built-in spaces in a new worker."""
    out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=120, check=True).stdout.split()
    if not out[1].startswith(str(SRC)):
        raise SystemExit(f"perfbench: worker imported bcalc from {out[1]}, not from {SRC}")
    return float(out[0])


def same(a, b) -> bool:
    """Output equality across passes; arrays compare elementwise, NaN equal."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def cpu_now() -> float:
    """CPU seconds of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def as_failure(result):
    """A check result as None or (reason, known defect or None)."""
    return result if result is None or isinstance(result, tuple) else (result, None)


@dataclasses.dataclass
class Loop:
    wall: list  # per op, its latency in every pass
    cpu: list  # per op, its CPU time (children included) in every pass
    pass_totals: list
    attempted: int = 0
    failures: dict = dataclasses.field(default_factory=dict)  # name -> (reason, defect, count)
    margins: list = dataclasses.field(default_factory=list)


def run_loop(ops, seconds: float) -> Loop:
    loop = Loop([[] for _ in ops], [[] for _ in ops], [])
    first = first_reasons = None
    # another pass starts while it is expected to end within half a pass of the budget
    while not loop.pass_totals or sum(loop.pass_totals) + loop.pass_totals[-1] / 2 < seconds:
        outcomes, total = [], 0.0
        for i, op in enumerate(ops):
            start, cpu = time.perf_counter(), cpu_now()
            try:
                outcome = ("ok", op.fn())
            except Exception as exc:  # a failing op is counted, the run goes on
                outcome = ("raised", exc)
            loop.cpu[i].append(cpu_now() - cpu)
            elapsed = time.perf_counter() - start
            loop.wall[i].append(elapsed)
            total += elapsed
            outcomes.append(outcome)
        loop.pass_totals.append(total)
        if first is None:
            first = outcomes
            first_reasons = [as_failure(op.check(*o)) for op, o in zip(ops, outcomes)]
            reasons = first_reasons
            for op in ops:
                loop.margins += op.margins
        else:
            reasons = [first_reasons[i] if o[0] == first[i][0] and same(o[1], first[i][1])
                       else ("output differs from the first pass", None) for i, o in enumerate(outcomes)]
        for op, failure in zip(ops, reasons):
            loop.attempted += 1
            if failure:
                prev = loop.failures.get(op.name)
                loop.failures[op.name] = (*failure, (prev[2] if prev else 0) + 1)
    return loop


def summarize(loop):
    """(run_s, op p50, op tail, tail percentile, samples, samples above it).

    run_s sums each op's median CPU time over the passes: one typical pass,
    with readings disturbed by other work on the machine left out.  The tail
    is the latency with 10 samples above it, at whatever percentile that is.
    """
    run_s = sum(statistics.median(c) for c in loop.cpu)
    samples = sorted(t for w in loop.wall for t in w)
    above = min(10, len(samples) - 1)
    level = 100.0 * (len(samples) - above) / len(samples)
    return run_s, statistics.median(samples), samples[-1 - above], level, len(samples), above


def run_verify(capture_apply: bool, time_cases: bool = False):
    """verify.run_suite("all"); returns (seconds, results, apply_check
    reports, seconds per case)."""
    from bcalc import boperators as bop
    from bcalc import verify

    reports = []
    original_apply = bop.apply_check
    original_cases = verify.CASES
    case_s = {}
    if capture_apply:
        def capture(*args, **kwargs):
            report = original_apply(*args, **kwargs)
            reports.append(report)
            return report
        bop.apply_check = capture
    if time_cases:
        def timed(cid, fn):
            def run():
                start = time.perf_counter()
                try:
                    return fn()
                finally:
                    case_s[cid] = time.perf_counter() - start
            return run
        verify.CASES = tuple((cid, name, timed(cid, fn)) for cid, name, fn in original_cases)
    try:
        start = time.perf_counter()
        results = verify.run_suite("all")
        seconds = time.perf_counter() - start
    finally:
        bop.apply_check = original_apply
        verify.CASES = original_cases
    return seconds, results, reports, case_s


def tally(loops, results, verified: bool):
    """Merge loop failures with failing acceptance cases, print them, and
    return (attempted, failed, known, correct).  ``failed`` counts the
    calls whose output neither the oracle nor a documented defect of the
    seed commit explains; ``known`` counts the calls that show a known
    defect.  A run is correct when nothing failed and, if the acceptance
    suite ran (``verified``), all 13 cases pass."""
    failures = {}
    attempted = failed = known = 0
    for loop in loops:
        attempted += loop.attempted
        for name, (reason, defect, count) in loop.failures.items():
            if defect:
                known += count
            else:
                failed += count
            prev = failures.get(name)
            failures[name] = (reason, defect, count + (prev[2] if prev else 0))
    for r in results:
        attempted += 1
        if not r.passed:
            failed += 1
            failures[f"verify.case_{r.cid:02d}"] = (r.detail, None, 1)
    correct = (len(results) == 13 or not verified) and failed == 0
    print(f"failures: {len(failures)} distinct ops; of {attempted} attempts {known} show a "
          f"known defect and {failed} failed unexpectedly")
    for name, (reason, defect, count) in sorted(failures.items()):
        print(f"  FAIL x{count} {name}: {reason}")
        print(f"       {'known defect: ' + defect if defect else 'UNEXPECTED'}")
    return attempted, failed, known, correct


def result_line(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def build(workload, seed, workdir):
    if workload == "cli":
        import cli_load
        return cli_load.cli_ops(seed, workdir, child_env())
    import workloads
    return (workloads.symbolic_ops if workload == "symbolic" else workloads.oracle_ops)(seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bcalc" / "__init__.py").is_file():
        print(f"perfbench: no bcalc package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import bcalc
    if not bcalc.__file__.startswith(str(SRC)):
        print(f"perfbench: imported bcalc from {bcalc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / "perfbench" / ".work"
    workdir.mkdir(exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()


def measure(args, workdir) -> int:
    from workloads import acceptance_margins

    ops, props = build(args.workload, args.seed, workdir)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("inputs: " + json.dumps(props, sort_keys=True, default=str))
    if args.trace:
        return measure_traced(args, ops, workdir)

    setup = [fresh_setup() for _ in range(SETUP_REPEATS // 2)]
    loop = run_loop(ops, args.seconds)
    setup += [fresh_setup() for _ in range(SETUP_REPEATS - len(setup))]
    # peak RSS of the timed work, read before any checking work
    if args.workload == "cli":
        rss_kb = max(op.peak_rss_kb for op in ops)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    results, verify_s, apply_reports = [], None, ()
    if args.workload == "oracle":
        verify_s, results, apply_reports, _ = run_verify(capture_apply=True)
    margins = loop.margins + acceptance_margins(apply_reports)

    run_s, p50_s, tail_s, level, samples, above = summarize(loop)
    gated = [m for m in margins if m[3] is None]
    worst = max(gated, key=lambda m: m[0] / m[1])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "margin_max": (worst[0] / worst[1], "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    print(f"passes: {len(loop.pass_totals)} of {len(ops)} ops; pass times "
          + ", ".join(f"{t:.3f}" for t in loop.pass_totals) + " s")
    attempted, failed, known, correct = tally([loop], results, verified=args.workload == "oracle")
    print("metrics (in BENCHMARK.json):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    # printed, not gated: their spread across seeds on a shared machine
    # exceeds the bounds the gate allows (see perfbench/README.md)
    print("metrics (printed only):")
    print(f"  {'run_s':<12} {run_s:.6g} s")
    print(f"  {'op_p50_ms':<12} {1e3 * p50_s:.6g} ms")
    print(f"  {'op_tail_ms':<12} {1e3 * tail_s:.6g} ms (p{level:.2f} of {samples} samples, {above} above it)")
    if verify_s is not None:
        print(f"  {'verify_s':<12} {verify_s:.6g} s ({sum(r.passed for r in results)}/{len(results)} passed)")
    print(f"  {'fail_frac':<12} {(known + failed) / attempted:.6g} ratio "
          f"({known} known-defect and {failed} unexpected of {attempted})")
    print(f"  margin_max from {worst[2]}: {worst[0]:.4g} against bound {worst[1]:.4g}")
    by_label = {}
    for measured, bound, label, defect in margins:
        if measured / bound >= by_label.get(label, (-1.0,))[0]:
            by_label[label] = (measured / bound, measured, bound, defect)
    print("margins (largest per check; known-defect checks are not in margin_max):")
    for label, (ratio, measured, bound, defect) in sorted(by_label.items(), key=lambda kv: -kv[1][0]):
        print(f"  {ratio:9.4g}  {measured:.4g} / {bound:.4g}  {label}{'  [known defect]' if defect else ''}")
    result_line(correct, attempted, failed, metrics)
    return 0


def importtime() -> dict:
    """Cumulative import times of numpy, scipy and bcalc in a fresh process."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bcalc, bcalc.cli"],
                         cwd=ROOT, env=child_env(), capture_output=True, text=True,
                         timeout=120, check=True).stderr
    cumulative = {}
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if parts[0].isdigit():
            cumulative[parts[2]] = int(parts[1]) * 1e-6
    return {
        "cli.import_numpy_s": cumulative.get("numpy", 0.0),
        "cli.import_scipy_s": cumulative.get("scipy", 0.0) + cumulative.get("scipy.integrate", 0.0),
        "cli.import_bcalc_s": cumulative.get("bcalc", 0.0),
    }


PER_PASS_EXEMPT = ("indexsets.kept_ratio",)


def measure_traced(args, ops, workdir) -> int:
    from spans import Recorder

    if args.workload == "cli":
        import cli_load
        ops = cli_load.in_process(ops)
    half = args.seconds / 2
    plain = run_loop(ops, half)
    recorder = Recorder()
    recorder.install()
    try:
        traced = run_loop(ops, half)
    finally:
        recorder.uninstall()
    _, results, _, case_s = run_verify(capture_apply=False, time_cases=True)

    passes = len(traced.pass_totals)
    metrics = {}
    for name, value in recorder.summary().items():
        metrics[name] = value if name in PER_PASS_EXEMPT else value / passes
    metrics.update(importtime())
    for cid in sorted(case_s):
        metrics[f"verify.case_{cid:02d}_s"] = case_s[cid]
    metrics["trace.overhead_s"] = summarize(traced)[0] - summarize(plain)[0]

    print(f"untraced passes {len(plain.pass_totals)}, traced passes {passes} "
          f"(per-layer values are per traced pass)")
    attempted, failed, known, correct = tally([plain, traced], results, verified=True)
    metrics["known_defect_ops"] = sum(c for _, d, c in traced.failures.values() if d) / passes
    print("per-layer metrics:")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit_of(name)}")
    result_line(correct, attempted, failed, {k: (v, unit_of(k)) for k, v in metrics.items()})
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
