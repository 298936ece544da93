import argparse
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from bcalc import bmaps
from bcalc import boperators as bop
from bcalc import cli, commands, rootfinder, serialize, verify
from bcalc import geometry as geo
from bcalc import numeric as num
from bcalc.cli import main
from bcalc.commands import op as op_command
from bcalc.errors import (
    ConditioningError,
    FitRejection,
    NumericFailure,
    QuadratureError,
    SchemaError,
)
from bcalc.indexsets import EMPTY, SMOOTH, IndexFamily, IndexSet
from bcalc.serialize import load_object, parse_object


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj.to_jsonable() if hasattr(obj, "to_jsonable") else obj))
    return str(path)


def exit_code(argv):
    """main's return code, or the code of the SystemExit a usage error raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_extunion_of_smooth_sets(tmp_path, capsys):
    smooth = write(tmp_path, "smooth.json", SMOOTH)
    code, out = run(capsys, "--json", "indexset", "extunion", smooth, smooth,
                    "--truncate", "5")
    assert code == 0
    data = json.loads(out)
    entries = [(e["re"], e["p"]) for e in data["truncation"]]
    assert entries == [(str(n), p) for n in range(6) for p in (0, 1)]


def test_indexset_complete_and_inf(tmp_path, capsys):
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps({"entries": [
        {"re": "-1", "im": "0", "p": 0}, {"re": "0", "im": "0", "p": 1}
    ]}))
    code, out = run(capsys, "--json", "indexset", "complete", str(raw))
    assert code == 0
    gens = json.loads(out)["generators"]
    assert [(g["re"], g["p"]) for g in gens] == [("-1", 0), ("0", 1)]
    # entries are objects inside {"entries": ...}: no bare list, no [z, p] items
    for data in ([{"re": "-1", "p": 0}], {"entries": [["-1", 0]]}, {"entries": [["-1", "0", 0]]}):
        raw.write_text(json.dumps(data))
        assert main(["indexset", "complete", str(raw)]) == 1, data
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, data

    empty = write(tmp_path, "empty.json", EMPTY)
    code, out = run(capsys, "--json", "indexset", "inf", empty)
    assert code == 0 and json.loads(out)["inf"] == "+inf"


def test_check_bfibration_exit_codes(tmp_path, capsys):
    blowdown = write(tmp_path, "blowdown_x2b.json", geo.x2b_blowdown())
    code, out = run(capsys, "--json", "map", "check-bfibration", blowdown)
    assert code == 2
    data = json.loads(out)
    assert data["violating_faces"] == ["ff"]
    assert data["b_fibration"] is False

    pi3 = write(tmp_path, "pi3.json", bmaps.lifted_projection(3))
    code, out = run(capsys, "--json", "map", "check-bfibration", pi3)
    assert code == 0
    assert json.loads(out)["b_fibration"] is True


def test_map_compose_and_facemap(tmp_path, capsys):
    pi3 = write(tmp_path, "pi3.json", bmaps.lifted_projection(3))
    bd = write(tmp_path, "bd.json", geo.x2b_blowdown())
    code, out = run(capsys, "--json", "map", "compose", pi3, bd)
    assert code == 0
    composed = json.loads(out)
    expected = bmaps.compose(bmaps.lifted_projection(3), geo.x2b_blowdown())
    assert composed["e"] == [list(r) for r in expected.exponents]
    code, out = run(capsys, "--json", "map", "facemap", bd, "--face", "ff")
    assert code == 0
    assert json.loads(out)["image"] == ["Hx", "Hy"]


def test_space_commands(tmp_path, capsys):
    code, out = run(capsys, "--json", "space", "quadrant", "-k", "2", "-n", "2",
                    "--names", "Hx,Hy")
    assert code == 0
    quad = json.loads(out)
    assert quad["bhs"] == ["Hx", "Hy"]
    lat = write(tmp_path, "quad.json", parse_object(quad))
    code, out = run(capsys, "--json", "space", "blowup", lat,
                    "--center", "Hx,Hy", "--name", "ff")
    assert code == 0
    rec = json.loads(out)
    assert rec["front_face"] == "ff"
    assert ["Hx", "Hy"] not in rec["result"]["faces"]
    code, out = run(capsys, "--json", "space", "triple")
    assert code == 0
    assert len(json.loads(out)["lattice"]["bhs"]) == 7


def test_space_refuses_bhs_names_that_cannot_be_addressed(tmp_path, capsys):
    # --names, --center and --face split on ",", and "" is the empty face, so
    # an empty name or one with a comma could never be selected again
    quad = write(tmp_path, "quad.json", geo.model_quadrant(2, 2, ("H1", "H2")))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "bhs": ["", "a,b"],
                               "faces": [[], [""], ["a,b"], ["", "a,b"]]}))
    for argv in (["space", "quadrant", "-k", "2", "-n", "2", "--names", "a,"],
                 ["space", "blowup", quad, "--center", "H1,H2", "--name", "a,b"],
                 ["space", "blowup", quad, "--center", "H1,H2", "--name", ""],
                 ["space", "blowup", str(bad), "--center", "a,b", "--name", "ff"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err.count("\n")) == ("", 1), argv
        assert "must be a non-empty string without ','" in captured.err, argv


def test_space_quadrant_reads_an_empty_names_flag_as_no_names(capsys):
    # "" is zero names, not a missing flag: k = 2 is refused, k = 0 is the point
    assert main(["space", "quadrant", "-k", "2", "-n", "2", "--names", ""]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err.count("\n")) == ("", 1)
    assert "number of names must equal k" in captured.err
    code, out = run(capsys, "--json", "space", "quadrant", "-k", "0", "-n", "2", "--names", "")
    assert code == 0
    assert json.loads(out) == {"dim": 2, "bhs": [], "faces": [[]]}


def test_transport_pushforward_exit_codes(tmp_path, capsys):
    proj = write(tmp_path, "proj.json", bmaps.halfline_projection(1))
    lat = geo.x2b_lattice()
    ok_fam = write(tmp_path, "fam.json", IndexFamily.of(
        {"lb": SMOOTH, "ff": SMOOTH, "rb": IndexSet.from_entries([(1, 0)])}, lat))
    code, out = run(capsys, "--json", "transport", "pushforward", proj, ok_fam)
    assert code == 0
    data = json.loads(out)
    gens = data["result"]["generators"]
    assert [(g["re"], g["p"]) for g in gens] == [("0", 1)]

    bad_fam = write(tmp_path, "bad.json", IndexFamily.of(
        {"lb": SMOOTH, "ff": SMOOTH, "rb": SMOOTH}, lat))
    code, out = run(capsys, "--json", "transport", "pushforward", proj, bad_fam)
    assert code == 2
    assert json.loads(out)["violating_bhs"] == ["rb"]


def test_transport_pullback(tmp_path, capsys):
    bd = write(tmp_path, "bd.json", geo.x2b_blowdown())
    fam = write(tmp_path, "fam.json", IndexFamily.of(
        {"Hx": IndexSet.from_entries([(Fraction(1, 2), 0)]),
         "Hy": IndexSet.from_entries([(1, 0)])}, geo.x2b_blowdown().target))
    code, out = run(capsys, "--json", "transport", "pullback", bd, fam)
    assert code == 0
    data = json.loads(out)
    assert data["assignment"]["ff"]["generators"][0]["re"] == "3/2"


def test_transport_pushforward_along_a_lifted_projection(tmp_path, capsys):
    # a target with three faces gives a family: each face gets the extended
    # union of its two preimages, here two smooth sets
    pi3 = bmaps.lifted_projection(3)
    fam = {n: SMOOTH if any(row) else SMOOTH.shift(1)
           for n, row in zip(pi3.source.bhs_names, pi3.exponents)}
    fpi, ffam = write(tmp_path, "pi3.json", pi3), write(tmp_path, "fam.json", IndexFamily.of(fam))
    code, out = run(capsys, "transport", "pushforward", fpi, ffam)
    assert code == 0
    assert out.splitlines() == ["push-forward family:", "  ff     (0,1)", "  lb     (0,1)",
                                "  rb     (0,1)", "integrability: ok"]
    code, out = run(capsys, "transport", "pushforward", fpi, ffam, "--json")
    assert code == 0
    data = json.loads(out)
    assert {n: s["generators"] for n, s in data["result"]["assignment"].items()} == {
        n: [{"re": "0", "im": "0", "p": 1}] for n in ("lb", "rb", "ff")}
    # bf3 lies over the interior, so a smooth set there is not integrable
    bad = write(tmp_path, "bad.json", IndexFamily.of({**fam, "bf3": SMOOTH}))
    code, out = run(capsys, "transport", "pushforward", fpi, bad)
    assert code == 2
    assert out.splitlines()[-2:] == ["integrability: VIOLATED", "violating bhs: bf3"]
    code, out = run(capsys, "--json", "transport", "pushforward", fpi, bad)
    assert code == 2 and json.loads(out)["violating_bhs"] == ["bf3"]


def test_indexset_complete_reads_an_index_set(tmp_path, capsys):
    s = IndexSet.from_entries([(Fraction(1, 2), 1), (0, 0)])
    path = write(tmp_path, "set.json", s)
    code, out = run(capsys, "indexset", "complete", path, "--truncate", "1")
    assert code == 0
    assert out.splitlines() == ["generators:", "  z = 0            p = 0", "  z = 1/2          p = 1",
                                "members with Re z <= 1:", "  z = 0            p = 0",
                                "  z = 1/2          p = 0", "  z = 1/2          p = 1",
                                "  z = 1            p = 0"]
    code, out = run(capsys, "indexset", "complete", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == s.to_jsonable()["generators"]
    assert len(data["truncation"]) == 11 + 2 * 10  # Re z <= 10: 0..10, and 1/2..19/2 twice


def test_each_action_refuses_what_it_does_not_read(tmp_path, capsys):
    smooth = write(tmp_path, "smooth.json", SMOOTH)
    op = write(tmp_path, "op.json", bop.BDiffOp.from_lists([[1], [1]]))
    proj = write(tmp_path, "proj.json", bmaps.halfline_projection(1))
    unread = [
        ["op", "specb", op, "--gamma", "0"],
        ["op", "specb", op, "--steps", "9"],
        ["op", "specb", op, "--eps", "1"],
        ["op", "specb", op, "--kernel", "zero"],
        ["op", "split", op, "--tol", "1e-9"],
        ["op", "hs", "--gamma", "0"],
        ["op", "hs", "--truncate", "5"],
        ["op", "apply-check", op, "--truncate", "5"],
        ["indexset", "inf", smooth, "--truncate", "5"],
        ["indexset", "union", smooth, smooth, "--tol", "1e-9"],
        ["map", "check-bfibration", proj, "--face", "lb"],
        ["transport", "pullback", proj, smooth, "--truncate", "5"],
        ["space", "triple", "--truncate", "5"],
        ["verify", "--suite", "indexsets", "--tol", "1e-9"],
        ["--truncate", "5", "indexset", "truncate", smooth],
    ]
    # a wrong number of files; one file for pushforward was a traceback
    wrong_count = [
        ["transport", "pushforward", proj],
        ["transport", "pushforward", proj, smooth, smooth],
        ["indexset", "inf", smooth, smooth],
        ["op", "compose", op],
        ["op", "hs", op],
        ["space", "blowup", "--center", "H1,H2", "--name", "F"],
        ["map", "facemap"],
    ]
    for argv in unread + wrong_count:
        assert exit_code(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.strip().splitlines()) == 1, argv
        assert "Traceback" not in captured.err, argv
    # --json is read before the command, before the action and after it
    for argv in (["--json", "indexset", "inf", smooth], ["indexset", "--json", "inf", smooth],
                 ["indexset", "inf", smooth, "--json"]):
        code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out) == {"inf": "0"}, argv


def test_op_specb_refuses_a_coefficient_beyond_float_range(tmp_path, capsys):
    # z^2 + c with |c| above the float range: the root finder cannot take it
    for c in ("1e400", {"re": "1", "im": "1e400"}):
        path = write(tmp_path, "op.json", {"coeffs": [[c], ["0"], ["1"]]})
        assert main(["op", "specb", path]) == 1, c
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.strip().splitlines()) == 1, c


def test_op_actions_refuse_a_factor_the_root_finder_cannot_solve(tmp_path, capsys, monkeypatch):
    # one Aberth sweep cannot converge on z^2 - 2: one line, exit 1
    monkeypatch.setattr(rootfinder, "ABERTH_SWEEPS", 1)
    path = write(tmp_path, "op.json", {"coeffs": [["-2"], ["0"], ["1"]]})
    for argv in (["op", "specb", path], ["op", "split", path, "--gamma", "0"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
        assert "the float root finder did not converge on the degree-2 indicial factor" in (
            captured.err), argv


def test_op_actions_refuse_an_indicial_polynomial_beyond_its_budget(tmp_path, capsys):
    # degree 300 with one-digit coefficients (beyond degree^2 x bits), and
    # degree 12 with 4000-digit ones (beyond bits): the exact square-free
    # step would take seconds on each, so both are refused before it
    ops = {"deg300.json": [[str(1 + j % 9)] for j in range(301)],
           "digits4000.json": [[str(10 ** 3999 + 7 * j + 1)] for j in range(13)]}
    for name, coeffs in ops.items():
        path = write(tmp_path, name, {"coeffs": coeffs})
        for argv in (["op", "specb", path], ["op", "split", path, "--gamma", "0"],
                     ["op", "inverse", path, "--gamma", "0"],
                     ["op", "parametrix", path, "--gamma", "0"]):
            start = time.perf_counter()
            assert main(argv) == 1, argv
            assert time.perf_counter() - start < 1.0, argv
            captured = capsys.readouterr()
            assert captured.out == "" and len(captured.err.strip().splitlines()) == 1, argv
            assert "budget" in captured.err, argv


def test_op_actions_keep_a_root_beyond_float_range_exact(tmp_path, capsys):
    # z + 10^400: the weight is compared with the exact root, not its float
    path = write(tmp_path, "op.json", {"coeffs": [["1e400"], ["1"]]})
    big = str(10 ** 400)
    code, out = run(capsys, "--json", "op", "split", path, "--gamma", "0")
    assert code == 0
    data = json.loads(out)
    assert data["E_lb"]["generators"] == []
    assert data["E_rb"]["generators"] == [{"re": big, "im": "0", "p": 0}]
    code, out = run(capsys, "--json", "op", "inverse", path, "--gamma", "0")
    assert code == 0
    assert json.loads(out)["terms"] == [{"z": {"re": big, "im": "0"}, "p": 0, "side": "rb",
                                         "coeff": {"re": "1", "im": "0"}}]
    code, out = run(capsys, "--json", "op", "parametrix", path, "--gamma", "0")
    assert code == 0
    assert json.loads(out)["parametrix"]["E_rb"]["generators"] == [{"re": big, "im": "0", "p": 0}]


def test_op_split_of_a_tiny_constant_term_prints_no_log(tmp_path, capsys):
    # z^2 + 10^-20 has the two simple roots +-10^-10 i, both exact
    op = write(tmp_path, "op.json", {"coeffs": [["1e-20"], ["0"], ["1"]]})
    assert run(capsys, "op", "split", op, "--gamma", "1/2") == (
        0, "E_lb = {}\nE_rb = {(0-1/10000000000i,0), (0+1/10000000000i,0)}+N0\n")


def test_op_output_for_coefficients_below_float_range(tmp_path, capsys):
    # 10^-400 is 0.0 to the float root finder: z^2 + 10^-400 z + 1 keeps its
    # inexact roots +-i, and z^2 + 10^-400 still prints one double root 0 (a
    # known defect, ROADMAP item 3: its roots +-10^-200 i are simple)
    want = {
        (("1",), ("1e-400",), ("1",)): (
            "boundary spectrum:\n  z = 0-1i         p = 0\n  z = 0+1i         p = 0\n",
            "E_lb = {}\nE_rb = {(0-1i,0), (0+1i,0)}+N0\n",
            "model kernel terms (s = ratio variable):\n"
            "  side=rb z=0-1i p=0 coeff=0-1/2i\n  side=rb z=0+1i p=0 coeff=0+1/2i\n"),
        (("1e-400",), ("0",), ("1",)): (
            "boundary spectrum:\n  z = 0            p = 0\n  z = 0            p = 1\n",
            "E_lb = {}\nE_rb = {(0,1)}+N0\n",
            "model kernel terms (s = ratio variable):\n  side=rb z=0 p=1 coeff=1\n"),
    }
    for coeffs, outputs in want.items():
        op = write(tmp_path, "op.json", {"coeffs": coeffs})
        for action, out in zip((["specb"], ["split", "--gamma", "1/2"],
                                ["inverse", "--gamma", "1/2"]), outputs):
            assert run(capsys, "op", action[0], op, *action[1:]) == (0, out), (coeffs, action)


def test_op_specb_prints_irrational_roots_of_equal_magnitude(tmp_path, capsys):
    # z^2 - 2: each root is the rational nearest +-sqrt(2), so they are negatives
    op = write(tmp_path, "op.json", {"coeffs": [["-2"], ["0"], ["1"]]})
    code, out = run(capsys, "--json", "op", "specb", op)
    assert code == 0
    roots = [Fraction(e["re"]) for e in json.loads(out)["spec_b"]]
    assert len(roots) == 2 and roots[0] == -roots[1] != 0


def test_op_actions_on_an_order_zero_operator(tmp_path, capsys):
    op = write(tmp_path, "op.json", {"coeffs": [["1"]]})
    assert run(capsys, "op", "specb", op) == (0, "boundary spectrum:\n")
    assert run(capsys, "op", "split", op, "--gamma", "0") == (0, "E_lb = {}\nE_rb = {}\n")
    assert main(["op", "inverse", op, "--gamma", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: indicial polynomial is constant; nothing to invert"


def test_op_hs_samples_the_kernel_for_a_wide_support(capsys):
    # the bump's front-face norm, which one quadrature over [1/C, C] missed from C = 120
    code, out = run(capsys, "--json", "op", "hs", "--support-c", "1e6")
    assert code == 0
    data = json.loads(out)
    assert abs(data["reference"] - 0.506824726381) < 1e-9
    assert abs(data["slope"] - 0.506824726381) < 1e-9
    # unrounded, the slope is the mpmath value 0.50682472638052931 to rounding
    for c in ("4", "1e3", "1e10"):
        payload, _, code = op_command._hs(cli.build_parser("op").parse_args(["op", "hs", "--support-c", c]))
        assert code == 0 and abs(payload["slope"] - 0.50682472638052931) < 1e-13, c
    # beyond 1e10 the x-bump norms swamp their increments; at C <= 1 the
    # kernel's s-range [1/C, C] is empty; below C = 2 it would cut off part of
    # the kernels' s-support (0.5, 1.5), and the slope read 0.495356355056 at 1.5
    for c in ("1e11", "1e308", "1", "0.5", "1.5", "1.9"):
        assert main(["op", "hs", "--support-c", c]) == 1, c
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.strip().splitlines()) == 1, c
    for c in ("2", "4"):
        assert run(capsys, "op", "hs", "--support-c", c) == (0, (
            "log(1/eps) slope: 0.506824726381\n"
            "front-face squared norm: 0.506824726381\n")), c


def test_op_hs_refuses_an_eps_whose_bottom_rung_has_no_finite_reciprocal(capsys):
    # the ladder's bottom cutoff is eps * 1e-3: below about 5.6e-309 its
    # reciprocal overflowed and the slope printed nan with exit 0, and at
    # 5e-324 it underflowed to 0 ("math domain error")
    for eps in ("5e-306", "1e-320", "5e-324"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["op", "hs", "--eps", eps]) == 1, eps
        captured = capsys.readouterr()
        assert not caught and captured.out == "", eps
        assert len(captured.err.strip().splitlines()) == 1, eps
    assert run(capsys, "op", "hs", "--eps", "6e-306") == (0, (
        "log(1/eps) slope: 0.506824726381\n"
        "front-face squared norm: 0.506824726381\n"))


def test_readme_redirect_examples_write_what_the_next_line_reads(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("bcalc ") and " > " in line]
    assert len(lines) == 2
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, target = line.split(" > ")
        assert main(command.split()[1:]) == 0, line
        (tmp_path / target.strip()).write_text(capsys.readouterr().out)
    assert json.loads((tmp_path / "x2b.json").read_text())["center"] == ["Hx", "Hy"]


def test_op_apply_check_refuses_non_real_coefficients(tmp_path, capsys):
    # the kernel of z + 1 + i is complex, and the check would read only its real part
    op = write(tmp_path, "op.json", {"coeffs": [[{"re": "1", "im": "1"}], ["1"]]})
    assert main(["op", "apply-check", op, "--gamma", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.strip().splitlines()) == 1


def test_op_specb_and_split(tmp_path, capsys):
    op = write(tmp_path, "op.json", bop.BDiffOp.from_lists([[Fraction(1, 2)], [1]]))
    code, out = run(capsys, "--json", "op", "specb", op)
    assert code == 0
    data = json.loads(out)
    assert data["spec_b"] == [{"re": "-1/2", "im": "0", "p": 0}]
    code, out = run(capsys, "--json", "op", "split", op, "--gamma", "0")
    assert code == 0
    data = json.loads(out)
    assert data["E_lb"]["generators"] == []
    assert data["E_rb"]["generators"][0]["re"] == "1/2"


def test_op_inverse_weight_on_root_is_exit_2(tmp_path, capsys):
    op = write(tmp_path, "op.json", bop.BDiffOp.from_lists([[1], [1]]))
    code = main(["--json", "op", "inverse", op, "--gamma", "-1"])
    capsys.readouterr()
    assert code == 2
    # an exact root is compared by equality: 1e-10 beside it is admissible
    op0 = write(tmp_path, "op0.json", {"coeffs": [["0"], ["1"]]})
    code, out = run(capsys, "op", "split", op0, "--gamma", "1/10000000000")
    assert code == 0 and out == "E_lb = {}\nE_rb = {(0,0)}+N0\n"


def test_negative_rational_flag_values_need_no_equals_sign(tmp_path, capsys):
    op = write(tmp_path, "op.json", {"coeffs": [["1"], ["1"]]})
    s = write(tmp_path, "s.json", {"generators": [{"re": "-2", "p": 0}]})
    for argv, flag, value in (
        (["op", "split", op], "--gamma", "-1/2"),
        (["op", "inverse", op], "--gamma", "-3/4"),
        (["--json", "op", "split", op], "--gamma", "-1e-3"),
        (["op", "split", op], "--gamma", "-2/2"),  # on the root: exit 2
        (["indexset", "truncate", s], "--truncate", "-3/2"),
    ):
        spaced = exit_code(argv + [flag, value]), capsys.readouterr().out
        joined = exit_code(argv + [f"{flag}={value}"]), capsys.readouterr().out
        assert spaced == joined and spaced[0] in (0, 2), (argv, value, spaced)
    assert exit_code(["op", "split", op, "--gamma", "-x"]) == 1
    assert "--gamma: expected one argument" in capsys.readouterr().err


def test_op_compose_threshold_is_exit_2(tmp_path, capsys):
    d1 = write(tmp_path, "d1.json",
               bop.FullCalcDescriptor(0.0, EMPTY, SMOOTH))
    d2 = write(tmp_path, "d2.json",
               bop.FullCalcDescriptor(0.0, SMOOTH, EMPTY))
    code = main(["--json", "op", "compose", d1, d2])
    capsys.readouterr()
    assert code == 2


def test_op_action(tmp_path, capsys):
    d = write(tmp_path, "d.json",
              bop.FullCalcDescriptor(-1.0, EMPTY, IndexSet.from_entries([(1, 0)])))
    f = write(tmp_path, "f.json", SMOOTH)
    code, out = run(capsys, "--json", "op", "action", d, f)
    assert code == 0
    assert json.loads(out)["generators"] == [{"re": "0", "im": "0", "p": 0}]


def test_op_apply_check(tmp_path, capsys):
    op = write(tmp_path, "op.json", bop.BDiffOp.from_lists([[1], [1]]))
    code, out = run(capsys, "--json", "op", "apply-check", op, "--gamma", "0")
    assert code == 0
    report = json.loads(out)
    assert report["max_residual"] < 1e-7
    # the cost: the default support 1 3 needs 1,244 points of the log grid
    assert (report["grid_points"], report["nodes"]) == (1244, 200)
    assert 0.0019 < report["log_step"] <= 0.002
    code, out = run(capsys, "op", "apply-check", op)
    assert code == 0 and out.startswith("max residual of P(Kv) - v: 1.56")
    assert len(out.splitlines()) == 1


def test_op_apply_check_takes_no_tolerance(tmp_path, capsys):
    # the residual is the stencil's, not a quadrature's: no action takes --tol
    op = write(tmp_path, "op.json", bop.BDiffOp.from_lists([[1], [1]]))
    assert exit_code(["op", "apply-check", op, "--tol", "1e-9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
    assert "--tol" in captured.err


def test_op_hs_zero_kernel(capsys):
    code, out = run(capsys, "--json", "op", "hs", "--kernel", "zero")
    assert code == 0
    assert json.loads(out)["slope"] == 0.0
    # fixed-order Gauss-Legendre takes no tolerance
    assert exit_code(["op", "hs", "--kernel", "zero", "--tol", "1e-6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_op_parametrix(tmp_path, capsys):
    op = write(tmp_path, "op.json", bop.BDiffOp.from_lists([[Fraction(1, 2)], [1]]))
    code, out = run(capsys, "--json", "op", "parametrix", op, "--gamma", "0",
                    "--steps", "2")
    assert code == 0
    data = json.loads(out)
    gens = data["parametrix"]["E_rb"]["generators"]
    assert [(g["re"], g["p"]) for g in gens] == [("1/2", 1)]


def test_verify_suite_runs(capsys):
    code, out = run(capsys, "--json", "verify", "--suite", "indexsets")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] == data["total"] == 1
    # the parser lists the suites without importing verify, and so NumPy
    assert list(commands._FLAGS["--suite"]["choices"]) == sorted(verify.SUITES)


def test_verify_json_lists_each_check_with_its_bound(capsys):
    code, out = run(capsys, "--json", "verify", "--suite", "parametrix")
    assert code == 0
    results = {r["id"]: r for r in json.loads(out)["results"]}
    residuals = [c for c in results[9]["checks"] if c["label"] == "apply_check residual"]
    assert len(residuals) == 3
    assert all(c["bound"] == 1e-6 and 0.0 <= c["measured"] <= 1e-6 for c in residuals)
    assert results[8]["checks"] == [] and results[11]["checks"] == []


def test_malformed_input_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["indexset", "inf", str(bad)]) == 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["indexset", "inf", str(deep)]) == 1
    wrong = write(tmp_path, "fam.json", IndexFamily.of({"H": SMOOTH}, geo.halfline()))
    assert main(["indexset", "inf", wrong]) == 1
    smooth = write(tmp_path, "smooth.json", SMOOTH)
    assert exit_code(["indexset", "union", smooth]) == 1  # missing second operand
    capsys.readouterr()
    kernel = {"terms": [{"z": "1/2", "p": 0, "side": "rb", "coeff": {"re": "1"}}]}
    unreadable = {
        "not-a-list.json": {"generators": 5},
        "zero-den.json": {"generators": [{"re": "1/0", "im": "0", "p": 0}]},
        "kernel.json": kernel,
        "bad-scalar.json": {"coeffs": [[{"im": "1"}], [[1]]]},
        "coeffs-not-a-list.json": {"coeffs": 5},
        "assignment-int.json": {"assignment": 5},
        "assignment-set-int.json": {"assignment": {"H": 5}},
        "bhs-int.json": {"bhs": 5, "dim": 1, "faces": []},
        "map-ints.json": {"e": 5, "source": 5},
        "order-list.json": {"order": [], "E_lb": {"generators": []}, "E_rb": {"generators": []}},
        "trunc-str.json": {"coeffs": [["1"], ["1"]], "trunc": "x"},
        "trunc-float.json": {"coeffs": [["1"], ["1"]], "trunc": 1.7},
        "trunc-bool.json": {"coeffs": [["1"], ["1"]], "trunc": True},
        "trunc-negative.json": {"coeffs": [["1"], ["1"]], "trunc": -1},
        "long-scalar.json": {"generators": [{"re": "1" * 5000, "p": 0}]},
        "huge-exponent.json": {"generators": [{"re": "1e10000000", "p": 0}]},
    }
    for name, data in unreadable.items():
        start = time.perf_counter()
        assert main(["indexset", "inf", write(tmp_path, name, data)]) == 1, name
        assert time.perf_counter() - start < 2.0, name
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, name
    # more members than the truncation budget, from one generator's Re z or p
    for gen in ({"re": "-20000", "p": 0}, {"re": "0", "p": 3000}):
        start = time.perf_counter()
        assert main(["indexset", "truncate", write(tmp_path, "big.json", {"generators": [gen]})]) == 1
        assert time.perf_counter() - start < 2.0, gen
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.strip().splitlines()) == 1, gen
    # more chains than the budget from a push-forward's scale_down, more faces from -k
    fam = write(tmp_path, "fam.json", IndexFamily.of({n: SMOOTH for n in ("lb", "rb", "ff")}))
    big_e = write(tmp_path, "big-e.json", {**bmaps.halfline_projection(1).to_jsonable(),
                                           "e": [[100000], [0], [1]]})
    for argv in (["transport", "pushforward", big_e, fam], ["space", "quadrant", "-k", "14", "-n", "14"]):
        start = time.perf_counter()
        assert main(argv) == 1, argv
        assert time.perf_counter() - start < 0.5, argv
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.strip().splitlines()) == 1, argv
    # values are taken as written: each file below once read as a valid object
    proj = bmaps.halfline_projection(1).to_jsonable()  # a b-fibration with e = [[1], [0], [1]]
    check = ["map", "check-bfibration", "FILE"]
    coerced = {
        "e-float.json": ({**proj, "e": [[1.7], [0], [1]]}, check),
        "e-str.json": ({**proj, "e": [["1"], [0], [1]]}, check),
        "e-bool.json": ({**proj, "e": [[True], [0], [1]]}, check),
        "fibration-str.json": ({**proj, "fibration_faces": "false"}, check),
        "dim-float.json": ({**geo.model_quadrant(2, 2).to_jsonable(), "dim": 2.9},
                           ["space", "blowup", "FILE", "--center", "H1,H2", "--name", "F"]),
        "p-bool.json": ({"generators": [{"re": "0", "p": True}]}, ["indexset", "inf", "FILE"]),
        "order-nan.json": ({"order": "nan", "E_lb": {"generators": []},
                            "E_rb": SMOOTH.shift(1).to_jsonable()},
                           ["op", "compose", "FILE", "FILE"]),
    }
    for name, (data, argv) in coerced.items():
        path = write(tmp_path, name, data)
        assert main([path if a == "FILE" else a for a in argv]) == 1, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert len(captured.err.strip().splitlines()) == 1, name
    op = write(tmp_path, "op.json", bop.BDiffOp.from_lists([[1], [1]]))
    # numeric flags out of range, refused before any quadrature: a support
    # wider than the grid budget, a cutoff outside (0, support_c), a support_c
    # of at most 1, more Neumann steps than the budget
    numeric_flags = [["op", "apply-check", op, "--support", *support] for support in (
        ["0", "1"], ["3", "1"], ["1", "1"], ["1", "inf"], ["1e-300", "1e300"], ["1e-100", "1e100"])]
    numeric_flags += [["op", "hs", *flag] for flag in (
        ["--eps", "nan"], ["--eps", "0"], ["--eps", "-1"], ["--eps", "4"],
        ["--support-c", "1", "--eps", "0.5"], ["--support-c", "nan"], ["--support-c", "0"])]
    numeric_flags += [["op", "parametrix", op, "--steps", "1000000"]]
    # coefficients, roots or kernel coefficients beyond the float range
    for i, coeffs in enumerate(([["1e400"], ["1"]], [["1"], ["1e-400"]])):
        huge = write(tmp_path, f"huge{i}.json", {"coeffs": coeffs})
        numeric_flags += [["op", "apply-check", huge]]
    for argv in numeric_flags:
        start = time.perf_counter()
        assert main(argv) == 1, argv
        assert time.perf_counter() - start < 0.5, argv
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.strip().splitlines()) == 1, argv
    for argv in (["op", "split", op, "--gamma", "1/0"],
                 ["op", "split", op, "--gamma", "1e10000000"],
                 ["indexset", "truncate", smooth, "--truncate", "1/0"],
                 ["indexset", "truncate", smooth, "--truncate", "abc"],
                 ["--tol", "abc", "indexset", "inf", smooth],
                 ["indexset", "bogus", smooth]):
        assert exit_code(argv) == 1, argv
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, argv


# dict keys from the schema vocabulary, so the sniff in parse_object reaches every reader
_SCHEMA_KEYS = ("generators", "re", "im", "p", "assignment", "H", "e", "source", "target",
                "bhs", "dim", "faces", "fibration_faces", "coeffs", "trunc", "order", "E_lb",
                "E_rb", "terms", "z", "side", "coeff", "entries")
_VALID_PARTS = (SMOOTH.to_jsonable(), geo.halfline().to_jsonable(),
                geo.model_quadrant(2, 2).to_jsonable(), {"re": "1/2", "im": "-1"},
                {"re": "-20000", "p": 0}, {"re": "0", "p": 3000})
# scalars at and past the bounds: Fraction would expand these exponents exactly
_BIG_SCALARS = ("1e4300", "-1e4300", "1e-4300", "1e4301", "1e10000000", "-2.5E-999999",
                "1" * 4300, "1" * 5000, "1/" + "3" * 4400, "0." + "0" * 5000 + "1")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=True)
    | st.sampled_from(["0", "1/2", "-1", "1/0", "-inf", "nan", "lb", "rb", "H", "abc", ""])
    | st.sampled_from(_BIG_SCALARS)
    | st.text(max_size=4) | st.sampled_from(_VALID_PARTS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_SCHEMA_KEYS), inner, max_size=5),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(_json_values)
def test_any_json_is_read_or_refused_in_one_line(data):
    try:
        parse_object(data)
    except SchemaError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(data))
        for action in ("inf", "truncate"):
            err = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["indexset", action, str(path)])
            assert time.perf_counter() - start < 5.0, action
            assert code == 0 or code == 1 and len(err.getvalue().strip().splitlines()) == 1, action


def test_only_quadrature_loads_scipy(tmp_path):
    smooth = write(tmp_path, "smooth.json", SMOOTH)
    proj = write(tmp_path, "proj.json", bmaps.halfline_projection(1))
    fam = write(tmp_path, "fam.json", IndexFamily.of(
        {"lb": SMOOTH, "ff": SMOOTH, "rb": IndexSet.from_entries([(1, 0)])}, geo.x2b_lattice()))
    desc = write(tmp_path, "desc.json", bop.FullCalcDescriptor(-1.0, EMPTY, SMOOTH.shift(1)))
    op = write(tmp_path, "op.json", bop.BDiffOp.from_lists([[1], [1]]))
    child = f"""
import contextlib, io, json, sys
import bcalc, bcalc.cli
from bcalc import cli, geometry
geometry.x2b(); geometry.triple_b_space()
loaded = [["numpy" in sys.modules, "scipy" in sys.modules]]
argvs = [["indexset", "extunion", {smooth!r}, {smooth!r}], ["space", "triple"],
         ["transport", "pushforward", {proj!r}, {fam!r}], ["op", "compose", {desc!r}, {desc!r}],
         ["op", "specb", {op!r}], ["op", "apply-check", {op!r}, "--json"]]
codes = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes.append(cli.main(argv))
    loaded.append(["numpy" in sys.modules, "scipy" in sys.modules])
print(json.dumps({{"codes": codes, "loaded": loaded, "apply": json.loads(out.getvalue())}}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * 6
    # the import, the built-in spaces and the exact subcommands (a first-order
    # operator's root is exact) load neither NumPy nor SciPy; apply-check's
    # Gauss-Legendre quadrature loads NumPy, not SciPy
    assert report["loaded"] == [[False, False]] * 6 + [[True, False]]
    assert report["apply"]["max_residual"] < 1e-7


def test_each_action_loads_only_its_layer(tmp_path):
    smooth = write(tmp_path, "smooth.json", SMOOTH)
    proj = write(tmp_path, "proj.json", bmaps.halfline_projection(1))
    fam = write(tmp_path, "fam.json", IndexFamily.of(
        {"lb": SMOOTH, "ff": SMOOTH, "rb": IndexSet.from_entries([(1, 0)])}, geo.x2b_lattice()))
    fam_h = write(tmp_path, "fam_h.json", IndexFamily.of({"H": SMOOTH}))
    pi2 = write(tmp_path, "pi2.json", bmaps.lifted_projection(2))
    quad = write(tmp_path, "quad.json", geo.model_quadrant(2, 2))
    desc = write(tmp_path, "desc.json", bop.FullCalcDescriptor(-1.0, EMPTY, SMOOTH.shift(1)))
    op = write(tmp_path, "op.json", bop.BDiffOp.from_lists([[1], [1]]))
    sqrt2 = write(tmp_path, "sqrt2.json", bop.BDiffOp.from_lists([[-2], [0], [1]]))
    # z^2 + i z + 1: roots (-1 +- sqrt 5) i / 2, irrational with complex coefficients
    cquad = write(tmp_path, "cquad.json", {"coeffs": [["1"], [{"re": "0", "im": "1"}], ["1"]]})
    # argv arrives as words, so that the child loads json only if bcalc does
    child = """
import contextlib, io, sys
argv = sys.argv[1:]
import bcalc, bcalc.cli
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = bcalc.cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
else:  # the benchmark's setup snippet
    from bcalc import geometry
    geometry.x2b(); geometry.triple_b_space()
    code = 0
loaded = set(sys.modules)
import json
print(json.dumps([code, sorted(m for m in loaded if m.split(".")[0] == "bcalc"),
                  [m for m in ("numpy", "scipy", "dataclasses", "inspect") if m in loaded],
                  [m for m in ("fractions", "decimal") if m in loaded],
                  [m for m in ("json", "__future__") if m in loaded]]))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    # the spaces need no index sets, no rationals, no serializer and no b-map
    # algebra; whatever maps between spaces loads bmaps
    spaces = {"bcalc", "cli", "errors", "records", "geometry"}
    maps = spaces | {"bmaps"}

    def loads(*argv, rationals=True, numpy=False, reads_json=True):
        proc = subprocess.run([sys.executable, "-c", child, *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        code, modules, heavy, fractions, light = json.loads(proc.stdout)
        # NumPy itself loads inspect
        assert code == 0 and heavy == (["numpy", "inspect"] if numpy else []), (argv, code, heavy)
        # Fraction (and the decimal module it imports) loads with the layers that use it
        assert bool(fractions) == rationals, (argv, fractions)
        modules = {m.removeprefix("bcalc.") for m in modules}
        # a run compiles the shared helpers and its own command's module
        # alone, and the setup snippet and --help compile no command module
        command = next((a for a in argv if not a.startswith("-")), None)
        actions = {m for m in modules if m.split(".")[0] == "commands"}
        assert actions == ({"commands", f"commands.{command}"} if command else set()), (argv, actions)
        modules -= actions
        # json loads to write --json output or to read files, and __future__
        # only with a layer beyond the spaces and the maps between them
        assert ("json" in light) == reads_json, (argv, light)
        assert ("__future__" in light) == bool(modules - maps), (argv, light)
        return modules

    core = {"bcalc", "cli", "errors", "indexsets", "rationals", "records", "serialize"}
    # the exact layers are records, not dataclasses: no dataclasses, no inspect
    assert loads(rationals=False, reads_json=False) == spaces
    assert loads("--help", rationals=False, reads_json=False) == spaces - {"geometry", "records"}
    assert loads("space", "quadrant", "-k", "2", "-n", "2", rationals=False,
                 reads_json=False) == spaces
    assert loads("space", "blowup", quad, "--center", "H1,H2", "--name", "ff",
                 rationals=False) == spaces | {"serialize"}
    assert loads("space", "triple", rationals=False, reads_json=False) == maps
    assert loads("space", "triple", "--json", rationals=False) == maps
    assert loads("map", "compose", pi2, proj, rationals=False) == maps | {"serialize"}
    assert loads("map", "facemap", proj, rationals=False) == maps | {"serialize"}
    assert loads("map", "check-bfibration", proj, rationals=False) == maps | {"serialize"}
    assert loads("indexset", "extunion", smooth, smooth) == core
    assert loads("transport", "pushforward", proj, fam) == core | maps | {"transport"}
    assert loads("transport", "pullback", proj, fam_h) == core | maps | {"transport"}
    # the exact calculus loads its root finder, and neither loads NumPy,
    # for a first-order operator or a quadratic factor, real or complex
    assert loads("op", "compose", desc, desc) == core | {"boperators", "rootfinder"}
    assert loads("op", "specb", op) == core | {"boperators", "rootfinder"}
    assert loads("op", "specb", sqrt2) == core | {"boperators", "rootfinder"}
    assert loads("op", "specb", cquad) == core | {"boperators", "rootfinder"}
    # the apply check crunches floats with NumPy, and loads no SciPy
    assert loads("op", "apply-check", op, numpy=True) == core | {"boperators", "rootfinder",
                                                                  "numeric"}
    # so does the HS probe, which reads no file and needs no exact calculus
    assert loads("op", "hs", numpy=True, reads_json=False) == core - {"serialize"} | {"numeric"}
    # the acceptance suite's layers, numeric among them, are records too
    # (NumPy itself loads inspect), and it checks the b-map algebra, so loads bmaps
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bcalc.verify; "
         "print('dataclasses' in sys.modules, 'bcalc.bmaps' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout == "False True\n", proc.stderr


def test_the_traced_names_of_cli_stay_the_calls_it_makes(tmp_path, monkeypatch):
    # a tracer wraps cli.complete, cli.main and serialize.load_typed by name, so
    # the calls a run makes must go through those names
    assert callable(cli.complete) and callable(cli.main)
    seen = []

    def complete(entries):
        seen.append("complete")
        return original_complete(entries)

    def load_typed(path, kind):
        seen.append(kind)
        return original_load_typed(path, kind)

    original_complete, original_load_typed = cli.complete, serialize.load_typed
    monkeypatch.setattr(cli, "complete", complete)
    monkeypatch.setattr(serialize, "load_typed", load_typed)
    raw = write(tmp_path, "raw.json", {"entries": [{"re": "0", "im": "0", "p": 0}]})
    assert main(["indexset", "complete", raw]) == 0
    assert seen == ["complete"]
    proj = write(tmp_path, "proj.json", bmaps.halfline_projection(1))
    pi2 = write(tmp_path, "pi2.json", bmaps.lifted_projection(2))
    assert main(["map", "compose", pi2, proj]) == 0
    assert seen == ["complete", "BMapDescriptor", "BMapDescriptor"]


HELP = {
    ("indexset", "union"): """\
usage: bcalc indexset union [-h] [--truncate TRUNCATE] [--json] FILE FILE

positional arguments:
  FILE

options:
  -h, --help           show this help message and exit
  --truncate TRUNCATE  Re z bound for printed truncations (default 10)
  --json               machine-readable output
""",
    ("op", "split"): """\
usage: bcalc op split [-h] [--gamma GAMMA] [--json] FILE

positional arguments:
  FILE

options:
  -h, --help     show this help message and exit
  --gamma GAMMA  weight parameter (rational)
  --json         machine-readable output
""",
}


def test_rational_flag_defaults_are_fractions(capsys, monkeypatch):
    parser = cli.build_parser()
    truncate = parser.parse_args(["indexset", "union", "a", "b"]).truncate
    gamma = parser.parse_args(["op", "split", "a"]).gamma
    assert (truncate, gamma) == (Fraction(10), Fraction(0))
    assert type(truncate) is Fraction and type(gamma) is Fraction
    monkeypatch.setenv("COLUMNS", "80")
    for argv, text in HELP.items():
        assert exit_code([*argv, "--help"]) == 0
        assert capsys.readouterr().out == text


ROOT_HELP = """\
usage: bcalc [-h] [--json] {indexset,space,map,transport,op,verify} ...

index-set calculus with numeric cross-checks

positional arguments:
  {indexset,space,map,transport,op,verify}
    indexset            index-set algebra
    space               model corners and blow-ups
    map                 b-map descriptors
    transport           index transport theorems
    op                  half-line operator calculus
    verify              run the verification suite

options:
  -h, --help            show this help message and exit
  --json                machine-readable output
"""

OP_HELP = """\
usage: bcalc op [-h] [--json]
                {specb,split,inverse,apply-check,compose,action,parametrix,hs}
                ...

positional arguments:
  {specb,split,inverse,apply-check,compose,action,parametrix,hs}

options:
  -h, --help            show this help message and exit
  --json                machine-readable output
"""

COMMANDS = "'indexset', 'space', 'map', 'transport', 'op', 'verify'"


def test_help_and_usage_errors_read_as_from_the_full_parser(capsys, monkeypatch):
    # main builds one command's leaves; what it prints without a command, or
    # for a command's own help, is pinned here
    monkeypatch.setenv("COLUMNS", "80")
    for argv, code, out, err in (
        (["--help"], 0, ROOT_HELP, ""),
        (["-h", "op"], 0, ROOT_HELP, ""),
        ([], 1, "", "bcalc: error: the following arguments are required: command\n"),
        (["bogus"], 1, "", f"bcalc: error: argument command: invalid choice: 'bogus' "
                           f"(choose from {COMMANDS})\n"),
        (["op"], 1, "", "bcalc op: error: the following arguments are required: action\n"),
        (["op", "--help"], 0, OP_HELP, ""),
    ):
        assert exit_code(argv) == code, argv
        assert capsys.readouterr() == (out, err), argv


def _leaves(parser):
    """{(command, action): leaf parser} of the leaves ``parser`` holds."""
    def sub(p):
        return next((a.choices for a in p._actions if isinstance(a, argparse._SubParsersAction)), {})

    leaves = {}
    for command, p in sub(parser).items():
        actions = sub(p)
        if not actions and len(p._actions) > 1:  # a leaf itself, not a bare -h parser
            leaves[command, None] = p
        leaves.update(((command, action), leaf) for action, leaf in actions.items())
    return leaves


def _describe(leaf):
    return ([(a.option_strings, a.dest, a.default, a.type, a.choices, a.nargs, a.required, a.help)
             for a in leaf._actions], leaf.format_help())


def test_a_command_parser_builds_the_leaves_of_the_full_parser():
    full = _leaves(cli.build_parser())
    tables = {(command, action) for command in cli._COMMANDS
              for action in importlib.import_module(f"bcalc.commands.{command}").ACTIONS}
    assert sorted(full, key=str) == sorted(tables, key=str)
    for command in cli._COMMANDS:
        mine = _leaves(cli.build_parser(command))
        assert {key[0] for key in mine} == {command}
        assert mine.keys() == {key for key in full if key[0] == command}, command
        for key, leaf in mine.items():
            assert _describe(leaf) == _describe(full[key]), key


def test_each_table_names_handlers_of_its_own_module():
    for command in cli._COMMANDS:
        module = importlib.import_module(f"bcalc.commands.{command}")
        assert module.ACTIONS, command
        for action, (handler, kinds, flags) in module.ACTIONS.items():
            assert callable(handler) and handler.__module__ == module.__name__, (command, action)
            assert all(kind is None or isinstance(kind, str) for kind in kinds), (command, action)
            assert set(flags) <= commands._FLAGS.keys(), (command, action)


def test_numeric_failure_is_exit_3(tmp_path, capsys, monkeypatch):
    for exc in (QuadratureError, ConditioningError, FitRejection):
        assert issubclass(exc, NumericFailure)

    def fail(*args, **kwargs):
        raise QuadratureError("quadrature did not converge")

    monkeypatch.setattr(num, "hs_front_face_criterion", fail)
    assert main(["op", "hs"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric failure: quadrature did not converge\n"
    # a kernel that grows like s^2000 overflows the apply check's grid
    op = write(tmp_path, "op.json", {"coeffs": [["2000"], ["1"]]})
    assert main(["op", "apply-check", op, "--gamma", "-3000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_output_is_deterministic(tmp_path, capsys):
    smooth = write(tmp_path, "smooth.json", SMOOTH)
    _, first = run(capsys, "--json", "indexset", "extunion", smooth, smooth)
    _, second = run(capsys, "--json", "indexset", "extunion", smooth, smooth)
    assert first == second


def test_module_entry_point(tmp_path):
    smooth = tmp_path / "smooth.json"
    smooth.write_text(json.dumps(SMOOTH.to_jsonable()))
    proc = subprocess.run(
        [sys.executable, "-m", "bcalc", "--json", "indexset", "union",
         str(smooth), str(smooth)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["generators"] == [{"re": "0", "im": "0", "p": 0}]


def test_load_object_detects_types(tmp_path):
    for obj in (SMOOTH, geo.x2b_lattice(), geo.x2b_blowdown(),
                bop.BDiffOp.from_lists([[1], [1]]),
                bop.FullCalcDescriptor(0.0, EMPTY, SMOOTH)):
        path = write(tmp_path, "obj.json", obj)
        assert type(load_object(path)) is type(obj)
