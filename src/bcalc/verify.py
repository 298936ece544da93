"""End-to-end verification: every symbolic prediction the package makes is
confronted with an independent oracle (closed forms, monomial substitution,
brute-force quadrature, explicit ODE solutions).  Each case returns a claim
and its numeric checks, ``(label, measured, bound)`` triples made by
``_within``, which raises AssertionError past the bound (or on NaN);
``run_cases`` collects results without aborting."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import bmaps
from . import boperators as bop
from . import geometry as geo
from . import numeric as num
from . import transport
from .errors import CompositionUndefined, IntegrabilityError
from .indexsets import EMPTY, SMOOTH, IndexEntry, IndexFamily, IndexSet, sort_entries
from .rationals import ComplexRational
from .records import Record

LOG_SET = SMOOTH.extended_union(SMOOTH)  # integer exponents with log powers 0, 1


def _within(label: str, measured, bound: float) -> tuple:
    measured = float(measured)
    if not measured <= bound:
        raise AssertionError(f"{label}: {measured} above the bound {bound}")
    return label, measured, bound


def case_extended_union_law():
    expected = tuple(
        [IndexEntry(ComplexRational.of(n), p) for n in range(11) for p in (0, 1)]
    )
    got = LOG_SET.truncate(10)
    assert got == expected, f"truncation mismatch: {got}"
    return "0 extunion 0 truncates to N0 x {0,1} up to Re z = 10", ()


def case_pushforward_symbolic():
    f = bmaps.halfline_projection(1)
    fam = IndexFamily.of(
        {"lb": SMOOTH, "ff": SMOOTH, "rb": IndexSet.from_entries([(1, 0)])},
        f.source,
    )
    report = transport.push_forward_halfline(f, fam)
    assert report.integrability_ok, f"unexpected violations {report.violating_bhs}"
    assert report.result == LOG_SET, f"pushforward gave {report.result}"
    table = report.face_contributions["H"]
    log_faces = {
        face for face, s in table.items() if any(e.p >= 1 for e in s.truncate(10))
    }
    assert log_faces == {frozenset({"lb", "ff"})}, f"log sources: {log_faces}"
    return "half-line pushforward of smooth data is N0 x {0,1}; only corner lb^ff makes logs", ()


def _sqrt_closed_form(x):
    s = math.sqrt(1.0 + x * x)
    return 0.5 * s + 0.5 * x * x * math.log(1.0 + s) - 0.5 * x * x * math.log(x)


def case_pushforward_numeric():
    u = num.SampledFunction2D(lambda x, y: math.hypot(x, y), support=1.0)
    grid = num.geometric_grid(0.3, 0.9, 80)
    spec = num.QuadratureSpec(1e-12, 1e-12, 300)
    samples = num.numeric_pushforward(u, spec, grid)
    assert not samples.failed
    closed = np.array([_sqrt_closed_form(x) for x in grid])
    checks = [_within("closed form", np.max(np.abs(samples.values - closed)), 1e-10)]

    # predicted: pull x, y back, add u's front-face factor, push forward, undo the b-density
    bd, one = geo.x2b_blowdown(), IndexSet.from_entries([(1, 0)])
    xy = transport.pull_back_family(bd, IndexFamily.of({"Hx": one, "Hy": one}, bd.target))
    u_ff = IndexFamily.of({"lb": SMOOTH, "ff": one, "rb": SMOOTH}, bd.source)
    pushed = transport.push_forward_halfline(bmaps.halfline_projection(1), xy.sum_with(u_ff))
    predicted = pushed.result.shift(-1)
    fit = num.fit_expansion(grid, samples.values, LOG_SET, 8)
    report = num.compare_with_prediction(fit, predicted, 8)
    assert report["contained"], f"fitted terms outside {predicted}: {report['extra']}"
    checks.append(_within("x^2 log x coefficient", abs(fit.coeff_log_x(2, 1) + 0.5), 1e-6))

    # the remainder past the truncation Re z <= 3 must vanish like x^4
    logs = np.log(1.0 / grid)
    partial = np.zeros_like(grid)
    for z, p, c in fit.terms:
        if float(z) <= 3.0:
            partial += c * grid ** float(z) * logs ** p
    tail = samples.values - partial
    resolved = np.abs(tail) > 1e-12  # above quadrature/float noise
    assert np.count_nonzero(resolved) >= 10
    slope = num.line_slope(np.log(grid[resolved]), np.log(np.abs(tail[resolved])))
    checks.append(_within("|tail exponent - 4|", abs(slope - 4.0), 0.6))
    return f"fitted terms lie in the prediction {predicted}", checks


def case_hyperbola_kernel():
    b = num.smooth_bump(0.0, 1.0)
    u = num.SampledFunction2D(
        lambda x, y: b(x / y) * b(y) / y if y > x else 0.0, support=1.0
    )
    grid = num.geometric_grid(0.12, 0.86, 52)
    spec = num.QuadratureSpec(1e-11, 1e-11, 300)
    samples = num.numeric_pushforward(u, spec, grid)
    assert not samples.failed
    fit = num.fit_expansion(grid, samples.values, LOG_SET, 3)
    coeff = fit.coeff(0, 1)  # log(1/x) basis: +v(0,0)
    return "fitted x^0 log coefficient is v(0,0) = 1", [
        _within("log coefficient", abs(coeff - 1.0), 1e-5)]


def case_pullback_random():
    rng = random.Random(20260809)
    f = geo.x2b_blowdown()
    for _ in range(20):
        a = Fraction(rng.randint(-6, 8), rng.choice([1, 2, 3, 4]))
        b = Fraction(rng.randint(-6, 8), rng.choice([1, 2, 3, 4]))
        fam = IndexFamily.of(
            {"Hx": IndexSet.from_entries([(a, 0)]), "Hy": IndexSet.from_entries([(b, 0)])},
            f.target,
        )
        pulled = transport.pull_back_family(f, fam)
        # monomial oracle: x^a y^b has orders a at lb, b at rb, a+b at ff
        assert pulled["lb"] == IndexSet.from_entries([(a, 0)])
        assert pulled["rb"] == IndexSet.from_entries([(b, 0)])
        assert pulled["ff"] == IndexSet.from_entries([(a + b, 0)])
    return "20 random monomial pull-backs match the substitution oracle exactly", ()


def case_bfibration_checker():
    down = bmaps.check_b_fibration(geo.x2b_blowdown())
    assert not down.codim_ok and down.violating_faces == ("ff",), down
    assert len(geo.x3b_lattice().bhs_names) == 7
    pi3 = bmaps.lifted_projection(3)
    up = bmaps.check_b_fibration(pi3)
    assert up.verdict, up
    table = {
        "bf1": {"lb"}, "ff2": {"lb"},
        "bf2": {"rb"}, "ff1": {"rb"},
        "fff": {"ff"}, "ff3": {"ff"},
        "bf3": set(),
    }
    for g, image in table.items():
        got = bmaps.induced_face_map(pi3, {g})
        assert got == frozenset(image), f"{g} -> {sorted(got)}"
    return "blow-down fails at ff; lifted projection passes with the exact bhs table", ()


def _random_projection_matrix(rng, rows, cols):
    return tuple([tuple([rng.randint(0, 3) for _ in range(cols)]) for _ in range(rows)])


def case_matrix_functoriality():
    rng = random.Random(715)
    for _ in range(50):
        ka, kb, kc = (rng.randint(1, 4) for _ in range(3))
        la = geo.model_quadrant(ka, ka)
        lb_ = geo.model_quadrant(kb, kb)
        lc = geo.model_quadrant(kc, kc)
        f = geo.BMapDescriptor(la, lb_, _random_projection_matrix(rng, ka, kb))
        g = geo.BMapDescriptor(lb_, lc, _random_projection_matrix(rng, kb, kc))
        composed = bmaps.compose(f, g)
        # independent oracle: substitute monomial exponent dictionaries
        for i, gname in enumerate(la.bhs_names):
            for j, kname in enumerate(lc.bhs_names):
                total = sum(
                    f.exponents[i][h] * g.exponents[h][j] for h in range(kb)
                )
                assert composed.exponents[i][j] == total
    for i in (1, 2, 3):
        left = bmaps.compose(bmaps.lifted_projection(i), geo.x2b_blowdown())
        right = bmaps.compose(bmaps.x3b_blowdown(), bmaps.quadrant_projection(i))
        assert left.exponents == right.exponents, f"square {i} does not commute"
    return "50 random compositions follow the matrix product; all 3 squares commute", ()


def case_spec_b():
    for c in (Fraction(1), Fraction(1, 2), Fraction(-3, 4)):
        op = bop.BDiffOp.from_lists([[c], [1]])
        ind = bop.indicial(op)
        assert ind.spec_b == (IndexEntry(ComplexRational.of(-c), 0),)
    op = bop.BDiffOp.from_lists([[0], [0], [1], [1]])  # (x d/dx)^2 (x d/dx + 1)
    ind = bop.indicial(op)
    expected = sort_entries([
        IndexEntry(ComplexRational.of(-1), 0),
        IndexEntry(ComplexRational.of(0), 0),
        IndexEntry(ComplexRational.of(0), 1),
    ])
    assert ind.spec_b == expected, ind.spec_b
    # perturbed double root: z^2 - 2z + (1 - 2e-20), roots 1 +- sqrt(2)e-10
    eps = Fraction(2, 10**20)
    op = bop.BDiffOp.from_lists([[1 - eps], [-2], [1]])
    ind = bop.indicial(op)
    assert len(ind.roots) == 1 and ind.roots[0].multiplicity == 2
    assert abs(ind.roots[0].value.re - 1) <= Fraction(1, 10**9)
    return "boundary spectra exact for rational roots; perturbed double root clustered at 1e-9", ()


def case_model_inverse():
    for c in (ComplexRational.of(1), ComplexRational.of(Fraction(1, 2)),
              ComplexRational.of(2, 1)):
        op = bop.BDiffOp.from_lists([[c], [1]])
        ind = bop.indicial(op)
        gamma = Fraction(1) - c.re  # above -Re c
        kernel = bop.model_inverse(ind, gamma)
        assert kernel.terms == (
            bop.KernelTerm(c, 0, "rb", ComplexRational.of(1)),
        ), kernel.terms
    v = num.smooth_bump(2.0, 1.0)
    checks = []
    for c in (1, Fraction(1, 2), 2):
        op = bop.BDiffOp.from_lists([[c], [1]])
        kernel = bop.model_inverse(bop.indicial(op), Fraction(1) - Fraction(c))
        report = bop.apply_check(op, kernel, v, (1.0, 3.0))
        checks.append(_within("apply_check residual", report.max_residual, 1e-6))
    grid = num.geometric_grid(2.0, 0.9, 30)
    u = num.solve_model_ode(1, lambda t: 1.0, grid)
    checks.append(_within("ODE", np.max(np.abs(u - 1.0)), 1e-12))
    return "model kernels exact; P K v = v at c = 1, 1/2, 2; the model ODE gives u == 1", checks


def case_composition_log():
    c = Fraction(1, 2)
    op = bop.BDiffOp.from_lists([[c], [1]])
    kernel = bop.model_inverse(bop.indicial(op), 0)
    desc = bop.FullCalcDescriptor(-1.0, EMPTY, IndexSet.from_entries([(c, 0)]))
    composed = bop.compose_descriptors(desc, desc)
    assert composed.E_lb == EMPTY
    assert composed.E_rb == IndexSet.from_entries([(c, 0), (c, 1)]), composed.E_rb
    grid = np.geomspace(0.01, 0.99, 30)
    result = num.convolve_model_kernels(
        kernel, kernel, grid,
        spec=num.QuadratureSpec(1e-11, 1e-11, 300),
        predicted=composed.E_rb, fit_cutoff=Fraction(5, 2),
    )
    exact = grid ** float(c) * np.log(1.0 / grid)
    check = _within("convolution", np.max(np.abs(result.values - exact)), 1e-8)
    assert result.prediction_report["contained"], result.prediction_report
    return "self-convolution makes one log; fit contained in prediction", [check]


def case_action_boundary():
    c = Fraction(2, 3)
    desc = bop.FullCalcDescriptor(-1.0, EMPTY, IndexSet.from_entries([(c, 0)]))
    bad = IndexSet.from_entries([(-c, 0)])
    try:
        bop.action_index(desc, bad)
        raise AssertionError("action at the threshold must be refused")
    except CompositionUndefined:
        pass
    good = IndexSet.from_entries([(-c + Fraction(1, 10), 0)])
    assert bop.action_index(desc, good) == good
    cut = num.plateau_cutoff(0.5, 1.0)
    grid = np.sort(num.geometric_grid(0.8, 0.9, 20))
    try:
        num.solve_model_ode(c, lambda t: t ** float(-c) * cut(t), grid)
        raise AssertionError("divergence at the threshold was not detected")
    except IntegrabilityError:
        pass
    u = num.solve_model_ode(c, lambda t: t ** float(-c + Fraction(1, 10)) * cut(t), grid)
    assert np.all(np.isfinite(u))
    return "action refused exactly at inf E_rb + inf F <= 0; quadrature agrees", ()


def case_front_face_criterion():
    c_sup = 4.0
    bump = num.smooth_bump(1.0, 0.5)
    ref = num.integrate(lambda s: bump(s) ** 2 / s, 0.5, 1.5)
    rep_zero = bop.hs_front_face_criterion(lambda x, s: x * bump(s), c_sup, 1e-3)
    rep_log = bop.hs_front_face_criterion(lambda x, s: bump(s), c_sup, 1e-3)
    return "norm slope vanishes without a front-face term and is its integral with one", [
        _within("vanishing slope", abs(rep_zero.slope), 1e-4 * ref),
        _within("slope vs reference", abs(rep_log.slope - ref), 0.05 * ref)]


def case_chart_split():
    u = num.SampledFunction2D(lambda x, y: math.hypot(x, y), support=1.0)
    spec = num.QuadratureSpec(1e-12, 1e-12, 300)
    cutoffs = (num.plateau_cutoff(1.0, 2.0), num.plateau_cutoff(0.5, 3.0))
    gaps = []
    for x in (0.05, 0.11, 0.23):
        direct = num.integrate_from_zero(lambda y: u(x, y), 1.0, spec)
        gaps += [abs(sum(num.pushforward_chart_split(u, c, x, spec)) - direct) for c in cutoffs]
    return "near-diagonal + far split reproduces the fiber integral for two cutoffs", [
        _within("chart split", np.max(gaps), 1e-8)]


class CaseResult(Record):
    __slots__ = ("cid", "name", "passed", "detail", "checks")

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.cid:2d} {self.name}: {self.detail}"


CASES = (
    (1, "extended-union law", case_extended_union_law),
    (2, "push-forward theorem, symbolic", case_pushforward_symbolic),
    (3, "push-forward theorem, numeric", case_pushforward_numeric),
    (4, "hyperbola kernel log coefficient", case_hyperbola_kernel),
    (5, "pull-back formula vs monomial oracle", case_pullback_random),
    (6, "b-fibration checker", case_bfibration_checker),
    (7, "exponent-matrix functoriality", case_matrix_functoriality),
    (8, "boundary spectrum", case_spec_b),
    (9, "model inverse", case_model_inverse),
    (10, "composition generates one log", case_composition_log),
    (11, "action theorem boundary", case_action_boundary),
    (12, "front-face criterion", case_front_face_criterion),
    (13, "decomposition identity", case_chart_split),
)

SUITES = {
    "indexsets": (1,),
    "combinatorics": (6, 7),
    "pullback": (5,),
    "pushforward": (2, 3, 4, 13),
    "parametrix": (8, 9, 10, 11),
    "frontface": (12,),
    "all": tuple([cid for cid, _, _ in CASES]),
}


def run_cases(ids) -> list:
    results = []
    for cid, name, fn in CASES:
        if cid not in ids:
            continue
        try:
            claim, checks = fn()
            detail = "; ".join([claim, *[f"{label} {measured:.2g} (bound {bound:.2g})"
                                         for label, measured, bound in checks]])
            results.append(CaseResult(cid, name, True, detail, tuple(checks)))
        except Exception as exc:  # collect, do not abort the suite
            results.append(CaseResult(cid, name, False, f"{type(exc).__name__}: {exc}", ()))
    return results


def run_suite(name: str) -> list:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return run_cases(set(SUITES[name]))
