"""Each benchmark oracle accepts a right answer and rejects a deliberately
wrong one.  Run from the repository root:

    python3 -m pytest perfbench/test_oracles.py
"""
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import scipy.integrate

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402
from cli_load import expect_exit, expect_ok  # noqa: E402
from bcalc import boperators as bop  # noqa: E402
from bcalc.indexsets import IndexSet  # noqa: E402

A = [(O.ex(0), 0), (O.ex(F(1, 2)), 1)]
B = [(O.ex(2), 0), (O.ex(F(1, 3), 1), 0)]


def program_gens(entries):
    return W.exact_gens(IndexSet.from_entries([(W.to_cr(z), p) for z, p in entries]))


def test_union_oracle_rejects_a_missing_member():
    bound = 5.5
    want = O.union(O.members(A, bound), O.members(B, bound))
    assert O.set_mismatch(program_gens(A + B), want, bound) is None
    assert O.set_mismatch(program_gens(A), want, bound) is not None


def test_extended_union_oracle_rejects_a_result_without_the_log():
    bound = 4.5
    want = O.extended_union(O.members(A, bound), O.members([(O.ex(1), 0)], bound))
    assert want[O.ex(1)] == 1
    assert O.set_mismatch(program_gens(A + [(O.ex(1), 1)]), want, bound) is None
    assert O.set_mismatch(program_gens(A), want, bound) is not None


def test_sum_oracle_rejects_a_shifted_sum():
    bound = 6.5
    want = O.set_sum(A, B, bound)
    right = [(O.add(z, w), p + q) for z, p in A for w, q in B]
    assert O.set_mismatch(program_gens(right), want, bound) is None
    wrong = [(O.shift(z, 1), p) for z, p in right]
    assert O.set_mismatch(program_gens(wrong), want, bound) is not None


def test_set_oracle_rejects_non_canonical_generators():
    bound = 3.5
    gens = [(O.ex(0), 1), (O.ex(1), 0)]  # (1, 0) is implied by (0, 1)
    assert O.set_mismatch(gens, O.members(gens, bound), bound) == "generators are not canonical"


def test_canonical_joins_irrationals_an_integer_apart():
    r2 = O.ex_irr(0, 1, 2)
    gens = O.canonical([(r2, 0), (O.shift(r2, 1), 0)])
    assert gens == [(r2, 0)]
    assert O.gens_mismatch([(O.value(r2), 0), (O.value(O.shift(r2, 1)), 0)], gens) is not None


def snap_case():
    """(x d/dx)(x d/dx - 1/2): the program reports root 0 twice."""
    roots = [(O.ex(0), 1), (O.ex(F(1, 2)), 1)]
    spec = {"roots": roots, "coeffs": O.poly_from_roots(roots), "gamma": F(-1, 4), "steps": 1, "item3": False}
    spec["series"] = [[c] for c in spec["coeffs"]]
    return spec, bop.indicial(W.program_operator(spec))


def test_indicial_oracle_rejects_the_snapped_roots_as_a_known_defect():
    spec, ind = snap_case()
    check = W.excused(W.indicial_check(spec["coeffs"], spec["roots"]), W.SNAP, W.snap_model(spec["roots"]))
    reason, defect = check("ok", ind)
    assert defect == W.SNAP
    assert W.diagnose(spec, ind)[0] == W.SNAP
    good = [(complex(0), 1), (complex(0.5), 1)]
    assert O.gens_mismatch(good, spec["roots"]) is None
    # a collapse onto a root that is not the nearest integer is no snap
    assert not O.snap_explains([(complex(0.5), 1), (complex(0.5), 1)], spec["roots"])
    assert O.snap_explains([(complex(0), 1), (complex(0), 1)], spec["roots"])


def test_a_labelled_operator_with_another_wrong_answer_is_unexpected():
    spec, ind = snap_case()
    defect, model = W.diagnose(spec, ind)
    split_c, _, _ = W._operator_checks(spec["roots"], spec["coeffs"], spec["gamma"], 2, 1)
    split_m, _, _ = W._operator_checks(model, spec["coeffs"], spec["gamma"], 2, 1)
    check = W.excused(split_c, defect, split_m)
    # what split_spec returns on the snapped roots: the defect
    assert check("ok", bop.split_spec(ind, spec["gamma"]))[1] == W.SNAP
    # any other wrong answer on the same operator: unexpected
    wrong = (IndexSet.from_entries([]), IndexSet.from_entries([]))
    assert isinstance(check("ok", wrong), str)
    assert isinstance(check("raised", ValueError("x")), str)
    # model_inverse: only its ZeroDivisionError is the snap
    _, kernel_c, _ = W._operator_checks(spec["roots"], spec["coeffs"], spec["gamma"], 2, 1)
    kernel = W.excused(kernel_c, defect, W.raised(ZeroDivisionError))
    assert kernel("raised", ZeroDivisionError("x"))[1] == W.SNAP
    assert isinstance(kernel("raised", ValueError("x")), str)


def test_item3_is_only_the_missing_chain():
    r2 = [(O.ex_irr(0, s, 2), 1) for s in (1, -1)] + [(O.ex_irr(1, s, 2), 1) for s in (1, -1)]
    spec = {"roots": r2, "coeffs": O.poly_from_roots(r2), "gamma": F(-3), "steps": 1, "item3": True}
    spec["series"] = [[c] for c in spec["coeffs"]]
    ind = bop.indicial(W.program_operator(spec))
    defect, model = W.diagnose(spec, ind)
    assert defect == W.ITEM3
    split_c, _, _ = W._operator_checks(r2, spec["coeffs"], spec["gamma"], 4, 1)
    split_m, _, _ = W._operator_checks(model, spec["coeffs"], spec["gamma"], 4, 1)
    check = W.excused(split_c, defect, split_m)
    assert check("ok", bop.split_spec(ind, spec["gamma"]))[1] == W.ITEM3
    # the chain sqrt2, 1+sqrt2 joined (right answer) passes; a dropped root is unexpected
    lb = [(W.to_cr(z), 0) for z, _ in r2[:2]]  # sqrt2 and -sqrt2 generate both chains
    assert check("ok", (IndexSet.from_entries(lb), IndexSet.from_entries([]))) is None
    assert isinstance(check("ok", (IndexSet.from_entries(lb[1:]), IndexSet.from_entries([]))), str)


def test_apply_check_above_its_bound_is_known_only_when_finite():
    op = W.Op("probe", None, None)
    check = W._margin_check(op, lambda v: v, 2e-6, "residual", W.APPLY_TOL)
    assert check(1e-6) is None
    assert check(1.8e-4)[1] == W.APPLY_TOL
    assert isinstance(check(float("nan")), str)


def test_kernel_oracle_rejects_a_wrong_coefficient_and_a_wrong_side():
    roots = [(O.ex(-1), 1), (O.ex(-2), 1)]
    coeffs = O.poly_from_roots(roots)
    # 1/((z+1)(z+2)) = 1/(z+1) - 1/(z+2); both roots below weight 0
    right = [("rb", 1 + 0j, 0, 1 + 0j), ("rb", 2 + 0j, 0, -1 + 0j)]
    assert O.kernel_mismatch(right, roots, coeffs, 0.0) is None
    assert O.kernel_mismatch([("rb", 1 + 0j, 0, 1 + 0j), ("rb", 2 + 0j, 0, -0.9 + 0j)], roots, coeffs, 0.0)
    assert O.kernel_mismatch(right, roots, coeffs, -1.5) is not None


def test_blowup_counts_reject_a_wrong_face_count():
    lattice = W.blowup_sequence(4, [("H1", "H2"), ("H1", "H3"), ("H1", "H4"),
                                    ("H2", "H3"), ("H2", "H4"), ("H3", "H4")],
                                [f"F{i}" for i in range(6)])
    assert len(lattice.faces) == O.blowup_counts(4)["faces"]
    assert O.blowup_counts(4)["faces"] != len(lattice.faces) - 1
    # the known counts follow a_k = 4 a_(k-1) - 2 a_(k-2) from the quadrant (6) and octant (20)
    seq = [6, 20]
    for _ in range(3):
        seq.append(4 * seq[-1] - 2 * seq[-2])
    assert seq[2:] == [O.BLOWUP_FACES[k] for k in (4, 5, 6)]


def test_pull_back_oracle_rejects_a_wrong_front_face_exponent():
    fam = {"Hx": [(O.ex(F(1, 2)), 0)], "Hy": [(O.ex(1), 0)]}
    bound = 4.5
    want = O.pull_back(O.X2B_BLOWDOWN, fam, bound)
    assert O.set_mismatch([(O.ex(F(3, 2)), 0)], want["ff"], bound) is None
    assert O.set_mismatch([(O.ex(F(1, 2)), 0)], want["ff"], bound) is not None


def test_push_forward_oracle_rejects_a_missing_log_and_audits_integrability():
    names = ("bf1", "bf2", "bf3", "ff1", "ff2", "ff3", "fff")
    fam = {n: [(O.ex(0), 0)] for n in names}
    result, violating = O.push_forward(3, fam, 3.5)
    assert violating == ["bf3"]
    assert O.set_mismatch([(O.ex(0), 1)], result["lb"], 3.5) is None
    assert O.set_mismatch([(O.ex(0), 0)], result["lb"], 3.5) is not None


def test_closed_forms_match_direct_quadrature():
    x = 0.2
    direct = scipy.integrate.quad(lambda y: math.hypot(x, y), 0.0, 1.0, epsabs=1e-14, epsrel=1e-14)[0]
    assert abs(O.hypot_fiber(x) - direct) < 1e-13
    s, c = 0.3, 0.75
    conv = scipy.integrate.quad(lambda t: (s / t) ** c * t ** c / t, s, 1.0, epsabs=1e-14, epsrel=1e-14)[0]
    assert abs(O.self_convolution(s, c) - conv) < 1e-13
    assert abs(O.divergent_fiber(x, 0.5) - (1 + x) * scipy.integrate.quad(lambda y: y ** -0.5, 0, 1)[0]) < 1e-12


def test_cli_checks_reject_tracebacks_wrong_codes_and_long_errors():
    ok = expect_ok(lambda payload: None if payload == {"a": 1} else "wrong payload")
    assert ok("ok", (0, '{"a": 1}', "")) is None
    assert ok("ok", (0, '{"a": 2}', "")) == "wrong payload"
    assert ok("ok", (1, "", "error: x\n")) is not None
    refused = expect_exit(2)
    assert refused("ok", (2, "{}", "")) is None
    assert refused("ok", (0, "{}", "")) is not None
    malformed = expect_exit(1)
    assert malformed("ok", (1, "", "error: bad input\n")) is None
    assert malformed("ok", (1, "", "Traceback (most recent call last):\n  ...\nTypeError: x\n")) is not None
    assert malformed("ok", (1, "", "error: one\nerror: two\n")) is not None
    assert malformed("ok", (3, "", "error: x\n")) == "undocumented exit code 3"


def test_numeric_margin_check_fails_above_its_bound():
    op = W.Op("probe", None, None)
    check = W._margin_check(op, lambda v: v, 1e-6, "probe")
    assert check(5e-7) is None
    assert check(2e-6) is not None
    assert [m[0] / m[1] for m in op.margins] == [0.5, 2.0]
    assert isinstance(check(2e-6), str)


def test_exact_kernel_matches_the_program_where_it_is_right():
    # (z + 1)(z + 2) at weight -1/2 (both roots below) and at -3/2 (one on each side)
    op = bop.BDiffOp.from_lists([[2], [3], [1]])
    for gamma in (F(-1, 2), F(-3, 2)):
        assert W.exact_kernel([F(-1), F(-2)], gamma) == bop.model_inverse(bop.indicial(op), gamma)


def test_inexact_partial_fractions_are_known_only_to_their_accuracy():
    # -2 +- 1/sqrt2 and +-1/sqrt2 next to a triple root at -4/3: the float
    # path of model_inverse loses digits here
    roots = ([(O.ex_irr(a, s, 2), 1) for a in (-2, 0) for s in (F(1, 2), F(-1, 2))]
             + [(O.ex(F(-4, 3)), 3), (O.ex(F(-8, 3)), 1), (O.ex(F(-5, 2)), 1)])
    spec = {"roots": roots, "coeffs": O.poly_from_roots(roots, 3), "gamma": F(-9, 8), "lead": 3,
            "steps": 1, "item3": True}
    spec["series"] = [[c] for c in spec["coeffs"]]
    ind = bop.indicial(W.program_operator(spec))
    defect, model = W.diagnose(spec, ind)
    k_defect, k_terms = W.kernel_defect(spec, ind, defect, model)
    assert k_defect == W.INEXACT
    terms = W.kernel_terms(bop.model_inverse(ind, spec["gamma"]))
    assert O.kernel_mismatch(terms, roots, spec["coeffs"], float(spec["gamma"])) is not None
    assert k_terms(terms) is None
    flipped = [terms[0][:3] + (-terms[0][3],)] + terms[1:]
    assert k_terms(flipped) is not None
    moved = [(terms[0][0], terms[0][1] + 0.5, *terms[0][2:])] + terms[1:]
    assert k_terms(moved) is not None


def test_cli_traceback_is_known_only_as_a_traceback():
    from cli_load import traceback_of
    one_line = W.excused(expect_exit(1), W.TRACEBACK, traceback_of())
    assert one_line("ok", (1, "", "Traceback (most recent call last):\nTypeError: x\n"))[1] == W.TRACEBACK
    assert isinstance(one_line("ok", (0, "{}", "")), str)
    assert isinstance(one_line("ok", (1, "", "error: a\nerror: b\n")), str)
