"""The cli workload: one ``python -m bcalc`` child at a time on seeded JSON files.

The op list covers every ``indexset``, ``space``, ``map``, ``transport``
and symbolic ``op`` subcommand with valid input, plus inputs that must be
refused with exit code 2 (a violated hypothesis) and malformed inputs that
must give exit code 1 with a one-line error.  Three of the malformed inputs
print a traceback at the seed commit (ROADMAP item 5).  Input files are
written by the benchmark, not by bcalc's serializer, except the built-in
maps, which are fixed objects.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import threading
import traceback
from fractions import Fraction as F

import gen
import oracles as O
from workloads import (ITEM3, SNAP, TRACEBACK, Op, composition, descriptor_mismatch, diagnose, either, excused,
                       half_above, kernel_defect, parametrix_mismatch, program_operator, split_descriptor,
                       split_mismatch, top)
from bcalc import boperators as bop
from bcalc import geometry as geo

EXIT_CODES = (0, 1, 2)  # documented: success, malformed input, violated hypothesis


CHILD_TIMEOUT_S = 120


def run_child(argv, env, workdir):
    """Run one child to completion; returns (code, stdout, stderr, peak RSS kB).

    ``os.wait4`` reaps the child and gives its own resource usage; a timer
    kills a child that hangs."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss


class CliOp(Op):
    """A CLI call; ``fn`` runs it as a child and keeps its peak RSS."""

    def __init__(self, name, args, check, env=None, workdir=None):
        super().__init__(name, self._child, check)
        self.args = args
        self.env = env
        self.workdir = workdir
        self.peak_rss_kb = 0

    def _child(self):
        code, out, err, rss = run_child([sys.executable, "-m", "bcalc", *self.args], self.env, self.workdir)
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        return code, out, err


def in_process(ops):
    """The same argv run through ``cli.main`` in this process (traced run)."""
    from bcalc import cli

    def call(args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an uncaught exception is what a child prints as a traceback
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    return [Op(op.name, lambda a=op.args: call(a), op.check) for op in ops]


# ---------------------------------------------------------------------------
# checks on (exit code, stdout, stderr)
# ---------------------------------------------------------------------------


def _traceback(err):
    return "Traceback (most recent call last)" in err


def expect_ok(checker):
    def check(kind, value):
        if kind == "raised":
            return f"benchmark could not run the call: {value}"
        code, out, err = value
        if _traceback(err):
            return "printed a traceback"
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        return checker(json.loads(out))
    return check


def expect_exit(code_wanted):
    def check(kind, value):
        if kind == "raised":
            return f"benchmark could not run the call: {value}"
        code, out, err = value
        if _traceback(err):
            last = err.strip().splitlines()[-1]
            return f"printed a traceback ({last})"
        if code not in EXIT_CODES:
            return f"undocumented exit code {code}"
        if code != code_wanted:
            return f"exit code {code}, expected {code_wanted}"
        if code_wanted == 1 and len(err.strip().splitlines()) != 1:
            return "error message is not one line"
        return None
    return check


def traceback_of(exc_name=None):
    """Accepts exit code 1 with a traceback (of ``exc_name``, if given)."""
    def check(kind, value):
        if kind == "raised":
            return "no call"
        code, _, err = value
        last = err.strip().splitlines()[-1] if err.strip() else ""
        if code == 1 and _traceback(err) and (exc_name is None or last.startswith(exc_name)):
            return None
        return "no such traceback"
    return check


def _z(d):
    return (F(d["re"]), F(0), 0, F(d.get("im", "0")))


def _gens(payload):
    return [(_z(g), g["p"]) for g in payload["generators"]]


def _float_gens(payload):
    return [(O.value(_z(g)), g["p"]) for g in payload["generators"]]


def _desc(d):
    """A descriptor payload as (order, E_lb, E_rb) float generator lists."""
    return float(d["order"]), _float_gens(d["E_lb"]), _float_gens(d["E_rb"])


def split_check(roots, gamma):
    return expect_ok(lambda p: split_mismatch(_float_gens(p["E_lb"]), _float_gens(p["E_rb"]), roots, gamma))


# ---------------------------------------------------------------------------
# input files written by the benchmark
# ---------------------------------------------------------------------------


def _enc_set(gens):
    return {"generators": [{"re": str(z[0]), "im": str(z[3]), "p": p} for z, p in gens]}


def _enc_coeff(re, im):
    return str(re) if not im else {"re": str(re), "im": str(im)}


def _rational(z):
    """Exact tuple, or a rationalized stand-in for an irrational exponent."""
    if not z[1]:
        return z
    return (F(O.re_float(z)).limit_denominator(10 ** 12), F(0), 0, z[3])


def _quadrant(names):
    faces = [sorted(c) for r in range(len(names) + 1) for c in itertools.combinations(names, r)]
    return {"dim": len(names), "bhs": list(names), "faces": faces}


class Files:
    def __init__(self, workdir):
        self.workdir = workdir
        self.n = 0

    def write(self, obj, text=None):
        self.n += 1
        path = self.workdir / f"in{self.n:02d}.json"
        path.write_text(text if text is not None else json.dumps(obj))
        return str(path)


def cli_ops(seed, workdir, env):
    rng, shape = gen.stream(seed, "cli"), gen.shape_stream("cli")
    files = Files(workdir)
    ops = []
    props = {}

    def add(name, args, check):
        ops.append(CliOp(name, args, check, env, workdir))

    # -- indexset: every action on seeded sets -------------------------------
    a = gen.canonical_set(rng, 10, shape=shape)
    b = gen.canonical_set(rng, 10, share=gen.classes_of(a), shared=2, shape=shape)
    c = gen.canonical_set(rng, 3, shape=shape)
    raw = gen.with_implied(rng, a, shape)
    fa, fb, fc = files.write(_enc_set(a)), files.write(_enc_set(b)), files.write(_enc_set(c))
    fraw = files.write({"entries": _enc_set(raw)["generators"]})
    props["sets"] = {"A": gen.set_props(a), "B": gen.set_props(b), "raw_entries": len(raw)}
    trunc = half_above(max(O.re_float(z) for z, _ in a + b) + max(O.re_float(z) for z, _ in c))

    def set_check(expected_fn):
        def checker(payload):
            got = _gens(payload)
            bound = max(trunc, top(got))
            return O.set_mismatch(got, expected_fn(bound), bound)
        return checker

    for action, files_, fn in (
        ("union", (fa, fb), lambda t: O.union(O.members(a, t), O.members(b, t))),
        ("extunion", (fa, fb), lambda t: O.extended_union(O.members(a, t), O.members(b, t))),
        ("sum", (fa, fc), lambda t: O.set_sum(a, c, t)),
        ("complete", (fraw,), lambda t: O.members(raw, t)),
    ):
        add(f"cli.indexset.{action}", ["--json", "indexset", action, *files_], expect_ok(set_check(fn)))

    low = min((z for z, _ in a), key=O.re_float)
    add("cli.indexset.inf", ["--json", "indexset", "inf", fa],
        expect_ok(lambda p: None if F(p["inf"]) == low[0] else f"inf {p['inf']}, expected {low[0]}"))
    t_bound = F(rng.randint(0, 4))

    def trunc_check(payload):
        got = {(F(e["re"]), F(e["im"]), e["p"]) for e in payload["truncation"]}
        want = {(z[0], z[3], q) for z, p in O.members(a, float(t_bound)).items() for q in range(p + 1)}
        return None if got == want else f"truncation at {t_bound}: {len(got)} members, expected {len(want)}"

    add("cli.indexset.truncate", ["--json", "indexset", "truncate", fa, "--truncate", str(t_bound)],
        expect_ok(trunc_check))

    # -- space -------------------------------------------------------------
    k = rng.randint(2, 5)
    names = [f"H{i}" for i in rng.sample(range(10), k)]
    add(f"cli.space.quadrant[k={k}]", ["--json", "space", "quadrant", "-k", str(k), "-n", str(k),
                                       "--names", ",".join(names)],
        expect_ok(lambda p: None if len(p["faces"]) == 2 ** k and p["bhs"] == names
                  else f"{len(p['faces'])} faces, expected {2 ** k}"))
    fquad = files.write(_quadrant(names))
    center = sorted(rng.sample(names, 2))
    add(f"cli.space.blowup[k={k}]", ["--json", "space", "blowup", fquad, "--center", ",".join(center),
                                     "--name", "ff"],
        expect_ok(lambda p: None if len(p["result"]["faces"]) == 3 * 2 ** (k - 1)
                  else f"{len(p['result']['faces'])} faces, expected {3 * 2 ** (k - 1)}"))

    def triple_check(p):
        if sorted(p["lattice"]["bhs"]) != sorted(O.X3B_BLOWDOWN):
            return f"bhs {p['lattice']['bhs']}"
        for i in (1, 2, 3):
            desc = p["lifted_projections"][str(i)]
            src, tgt = desc["source"]["bhs"], desc["target"]["bhs"]
            mapped = {h: tuple(sorted(g for g, row in zip(src, desc["e"]) if row[j]))
                      for j, h in enumerate(tgt)}
            want = {h: tuple(sorted(v)) for h, v in O.lifted_projection_preimages(i).items()}
            if mapped != want:
                return f"lifted projection {i}: {mapped}"
        return None

    add("cli.space.triple", ["--json", "space", "triple"], expect_ok(triple_check))

    # -- map ---------------------------------------------------------------
    ka, kb, kc = (rng.randint(1, 4) for _ in range(3))
    la, lb, lc = (_quadrant([f"{p}{i}" for i in range(1, n + 1)]) for p, n in (("A", ka), ("B", kb), ("C", kc)))
    ef = [[rng.randint(0, 3) for _ in range(kb)] for _ in range(ka)]
    eg = [[rng.randint(0, 3) for _ in range(kc)] for _ in range(kb)]
    ff_ = files.write({"source": la, "target": lb, "e": ef, "fibration_faces": False})
    fg = files.write({"source": lb, "target": lc, "e": eg, "fibration_faces": False})
    product = [[sum(ef[i][h] * eg[h][j] for h in range(kb)) for j in range(kc)] for i in range(ka)]
    add(f"cli.map.compose[{ka}x{kb}x{kc}]", ["--json", "map", "compose", ff_, fg],
        expect_ok(lambda p: None if p["e"] == product else f"e {p['e']}, expected {product}"))
    face = sorted(rng.sample(la["bhs"], rng.randint(1, ka)))
    image = sorted(h for j, h in enumerate(lb["bhs"]) if any(ef[la["bhs"].index(g)][j] for g in face))
    add("cli.map.facemap", ["--json", "map", "facemap", ff_, "--face", ",".join(face)],
        expect_ok(lambda p: None if p["image"] == image else f"image {p['image']}, expected {image}"))
    i = rng.randint(1, 3)
    fpi = files.write(geo.lifted_projection(i).to_jsonable())
    add(f"cli.map.check-bfibration[pi{i}]", ["--json", "map", "check-bfibration", fpi],
        expect_ok(lambda p: None if p["b_fibration"] and p["codim_ok"] else f"verdict {p}"))

    # -- transport ---------------------------------------------------------
    fam = gen.family(rng, shape, ("Hx", "Hy"), size=(2, 4))
    fbd = files.write(geo.x2b_blowdown().to_jsonable())
    ffam = files.write({"assignment": {h: _enc_set(g) for h, g in fam.items()}})

    def pull_check(p):
        got = {h: _gens(s) for h, s in p["assignment"].items()}
        bound = max([half_above(sum(max(O.re_float(z) for z, _ in g) for g in fam.values()))]
                    + [top(g) for g in got.values()])
        for h, members in O.pull_back(O.X2B_BLOWDOWN, fam, bound).items():
            reason = O.set_mismatch(got[h], members, bound)
            if reason:
                return f"{h}: {reason}"
        return None

    add("cli.transport.pullback[x2b]", ["--json", "transport", "pullback", fbd, ffam], expect_ok(pull_check))
    side = rng.randint(1, 2)
    kept = ("lb", "ff") if side == 1 else ("rb", "ff")
    interior = "rb" if side == 1 else "lb"
    hfam = gen.family(rng, shape, ("lb", "rb", "ff"), size=(2, 4))
    hfam[interior] = gen.canonical_set(rng, 2, lo=1)
    fproj = files.write(geo.halfline_projection(side).to_jsonable())
    fhfam = files.write({"assignment": {h: _enc_set(g) for h, g in hfam.items()}})

    def push_check(p):
        got = _gens(p["result"])
        bound = max(top(*hfam.values()), top(got))
        want = O.extended_union(O.members(hfam[kept[0]], bound), O.members(hfam[kept[1]], bound))
        return O.set_mismatch(got, want, bound)

    add(f"cli.transport.pushforward[halfline {side}]", ["--json", "transport", "pushforward", fproj, fhfam],
        expect_ok(push_check))

    # -- op: symbolic subcommands on seeded operators -----------------------
    # Checked like the symbolic workload's ops; a failure is a known defect
    # only when the oracle, given the roots the program's ``indicial``
    # returns for the same operator, reproduces it.
    specs = [gen.operator(rng, shape, d) for d in (shape.randint(2, 6), shape.randint(2, 6))]
    props["operators"] = gen.operator_props(specs)
    fops = [files.write({"coeffs": [[_enc_coeff(*c) for c in s] for s in spec["series"]], "trunc": 1})
            for spec in specs]
    try:  # classification only; the calls themselves are checked below
        ind = bop.indicial(program_operator(specs[0]))
    except Exception:
        ind = None
    spec, fop = specs[0], fops[0]
    defect, model = diagnose(spec, ind)
    gamma, order, steps = spec["gamma"], len(spec["coeffs"]) - 1, spec["steps"]

    def op_add(name, args, make):
        """An op on the operator, checked by ``make(roots)`` on the true
        roots; under a known defect, ``make`` on the program's own roots
        decides whether a failure is that defect."""
        add(name, args, excused(make(spec["roots"]), defect, model and make(model)))

    op_add("cli.op.specb", ["--json", "op", "specb", fop], lambda roots: expect_ok(
        lambda p: O.gens_mismatch([(O.value(_z(e)), e["p"]) for e in p["spec_b"]],
                                  [(z, l) for z, m in roots for l in range(m)])))
    op_add("cli.op.split", ["--json", "op", "split", fop, f"--gamma={gamma}"],
           lambda roots: split_check(roots, gamma))

    def kernel_terms(p):
        return [(t["side"], O.value(_z(t["z"])), t["p"], O.value(_z(t["coeff"]))) for t in p["terms"]]

    k_defect, k_terms = kernel_defect(spec, ind, defect, model)
    k_model = None
    if k_terms is not None:
        k_model = expect_ok(lambda p: k_terms(kernel_terms(p)))
        if k_defect == SNAP:
            k_model = either(traceback_of("ZeroDivisionError"), k_model)
    add("cli.op.inverse", ["--json", "op", "inverse", fop, f"--gamma={gamma}"], excused(
        expect_ok(lambda p: O.kernel_mismatch(kernel_terms(p), spec["roots"], spec["coeffs"], float(gamma))),
        k_defect, k_model))
    op_add(f"cli.op.parametrix[steps={steps}]",
           ["--json", "op", "parametrix", fop, f"--gamma={gamma}", "--steps", str(steps)],
           lambda roots: expect_ok(lambda p: parametrix_mismatch(
               _desc(p["parametrix"]), _desc(p["remainder"]), roots, gamma, order, steps)))

    # descriptors from the oracle's weight splits of both operators; the
    # files hold rationals, so an irrational exponent is rationalized there
    descs, written = [], []
    for sp in specs:
        desc = split_descriptor(sp["roots"], sp["gamma"], len(sp["coeffs"]) - 1)
        stored = (desc[0], [(_rational(z), p) for z, p in desc[1]], [(_rational(z), p) for z, p in desc[2]])
        descs.append(desc)
        written.append((stored, files.write({"order": desc[0], "E_lb": _enc_set(stored[1]),
                                             "E_rb": _enc_set(stored[2])})))
    irrational = [any(z[1] for z, _ in sp["roots"]) for sp in specs]

    def compose_check(p, q):
        defined, c_order, lb_, rb_ = composition(p, q)
        if not defined:
            return expect_exit(2)
        return expect_ok(lambda d: descriptor_mismatch(_desc(d), c_order, lb_, rb_))

    add("cli.op.compose", ["--json", "op", "compose", written[0][1], written[1][1]],
        excused(compose_check(*descs), ITEM3 if any(irrational) else None,
                compose_check(written[0][0], written[1][0])))
    fset = gen.canonical_set(rng, 4, lo=1)
    fF = files.write(_enc_set(fset))

    def action_check(p):
        _, lb_, rb_ = p
        if not O.inf_sum_positive([z for z, _ in rb_], [z for z, _ in fset]):
            return expect_exit(2)
        bound = top(lb_, fset)
        want = O.generators_of(O.extended_union(O.members(lb_, bound), O.members(fset, bound)))
        return expect_ok(lambda got: O.gens_mismatch(_float_gens(got), want))

    add("cli.op.action", ["--json", "op", "action", written[0][1], fF],
        excused(action_check(descs[0]), ITEM3 if irrational[0] else None, action_check(written[0][0])))

    # -- refused: documented exit code 2 -------------------------------------
    fbad_fam = files.write({"assignment": {h: _enc_set(g if h != interior else gen.canonical_set(rng, 2, lo=-4))
                                           for h, g in hfam.items()}})
    rational_roots = [z for z, _ in spec["roots"] if not z[1] and not z[3]]
    refusals = [
        ("cli.refused.check-bfibration[x2b blowdown]", ["--json", "map", "check-bfibration", fbd],
         expect_exit(2)),
        (f"cli.refused.pushforward[{interior} not integrable]",
         ["--json", "transport", "pushforward", fproj, fbad_fam], expect_exit(2)),
    ]
    if rational_roots:
        at = rng.choice(rational_roots)[0]

        def on_root(roots):
            """Refused when the weight lies on a root, else a checked split."""
            if any(abs(O.re_float(z) - float(at)) <= 1e-9 for z, _ in roots):
                return expect_exit(2)
            return split_check(roots, at)

        refusals.append((f"cli.refused.split[gamma on root {at}]", ["--json", "op", "split", fop, f"--gamma={at}"],
                         excused(on_root(spec["roots"]), defect, model and on_root(model))))
    fneg = files.write({"order": -1, "E_lb": _enc_set([]), "E_rb": _enc_set([(O.ex(F(1, 3)), 0)])})
    fneg2 = files.write({"order": -1, "E_lb": _enc_set([(O.ex(F(-1, 3)), 0)]), "E_rb": _enc_set([])})
    refusals.append(("cli.refused.compose[inf sum = 0]", ["--json", "op", "compose", fneg, fneg2],
                     expect_exit(2)))
    for name, args, check in rng.sample(refusals, 3):
        add(name, args, check)

    # -- malformed: documented exit code 1, one line ------------------------
    f_gen5 = files.write({"generators": 5})
    f_div0 = files.write({"generators": [{"re": "1/0", "im": "0", "p": 0}]})
    first_order = files.write({"coeffs": [["1"], ["1"]], "trunc": 0})
    one_line = excused(expect_exit(1), TRACEBACK, traceback_of())
    add("cli.malformed.generators-not-a-list", ["indexset", "inf", f_gen5], one_line)
    add("cli.malformed.zero-denominator", ["indexset", "inf", f_div0], one_line)
    add("cli.malformed.apply-check-support-0", ["op", "apply-check", first_order, "--support", "0", "1"],
        one_line)
    clean = rng.choice((
        ("cli.malformed.invalid-json", ["indexset", "inf", files.write(None, text='{"generators": [')]),
        ("cli.malformed.unknown-schema", ["indexset", "inf", files.write({"colour": "blue"})]),
        ("cli.malformed.missing-file", ["indexset", "inf", str(files.workdir / "absent.json")]),
    ))
    add(*clean, expect_exit(1))

    rng.shuffle(ops)
    refused = sum(op.name.startswith("cli.refused") for op in ops)
    malformed = sum(op.name.startswith("cli.malformed") for op in ops)
    props["calls"] = {"total": len(ops), "refused_share": refused / len(ops),
                      "malformed_share": malformed / len(ops)}
    return ops, props
