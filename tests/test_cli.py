import json
import subprocess
import sys
from fractions import Fraction

from bcalc import boperators as bop
from bcalc import geometry as geo
from bcalc.cli import main
from bcalc.errors import ConditioningError, FitRejection, NumericFailure, QuadratureError
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

    pi3 = write(tmp_path, "pi3.json", geo.lifted_projection(3))
    code, out = run(capsys, "--json", "map", "check-bfibration", pi3)
    assert code == 0
    assert json.loads(out)["b_fibration"] is True


def test_map_compose_and_facemap(tmp_path, capsys):
    pi3 = write(tmp_path, "pi3.json", geo.lifted_projection(3))
    bd = write(tmp_path, "bd.json", geo.x2b_blowdown())
    code, out = run(capsys, "--json", "map", "compose", pi3, bd)
    assert code == 0
    composed = json.loads(out)
    assert composed["e"] == [list(r) for r in
                             geo.compose(geo.lifted_projection(3), geo.x2b_blowdown()).exponents]
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


def test_transport_pushforward_exit_codes(tmp_path, capsys):
    proj = write(tmp_path, "proj.json", geo.halfline_projection(1))
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
    code, out = run(capsys, "--json", "op", "apply-check", op, "--gamma", "0",
                    "--tol", "1e-9")
    assert code == 0
    assert json.loads(out)["max_residual"] < 1e-5


def test_op_hs_zero_kernel(capsys):
    code, out = run(capsys, "--json", "op", "hs", "--kernel", "zero", "--tol", "1e-6")
    assert code == 0
    assert json.loads(out)["slope"] == 0.0


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


def test_malformed_input_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["indexset", "inf", str(bad)]) == 1
    wrong = write(tmp_path, "fam.json", IndexFamily.of({"H": SMOOTH}, geo.halfline()))
    assert main(["indexset", "inf", wrong]) == 1
    smooth = write(tmp_path, "smooth.json", SMOOTH)
    assert main(["indexset", "union", smooth]) == 1  # missing second operand
    capsys.readouterr()
    kernel = {"terms": [{"z": "1/2", "p": 0, "side": "rb", "coeff": {"re": "1"}}]}
    unreadable = {
        "not-a-list.json": {"generators": 5},
        "zero-den.json": {"generators": [{"re": "1/0", "im": "0", "p": 0}]},
        "kernel.json": kernel,
        "bad-scalar.json": {"coeffs": [[{"im": "1"}], [[1]]]},
        "terms-not-a-list.json": {"terms": 5},
        "coeffs-not-a-list.json": {"coeffs": 5},
    }
    for name, data in unreadable.items():
        assert main(["indexset", "inf", write(tmp_path, name, data)]) == 1, name
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, name
    op = write(tmp_path, "op.json", bop.BDiffOp.from_lists([[1], [1]]))
    for support in (["0", "1"], ["3", "1"], ["1", "1"], ["1", "inf"]):
        assert main(["op", "apply-check", op, "--support", *support]) == 1, support
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, support
    for argv in (["op", "split", op, "--gamma", "1/0"],
                 ["indexset", "truncate", smooth, "--truncate", "1/0"],
                 ["indexset", "truncate", smooth, "--truncate", "abc"],
                 ["--tol", "abc", "indexset", "inf", smooth],
                 ["indexset", "bogus", smooth]):
        assert exit_code(argv) == 1, argv
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, argv


def test_numeric_failure_is_exit_3(capsys):
    for exc in (QuadratureError, ConditioningError, FitRejection):
        assert issubclass(exc, NumericFailure)
    assert main(["op", "hs", "--tol", "1e-15"]) == 3  # QuadratureError
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
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["generators"] == [{"re": "0", "im": "0", "p": 0}]


def test_load_object_detects_types(tmp_path):
    for obj in (SMOOTH, geo.x2b_lattice(), geo.x2b_blowdown(),
                bop.BDiffOp.from_lists([[1], [1]]),
                bop.FullCalcDescriptor(0.0, EMPTY, SMOOTH),
                bop.model_inverse(bop.indicial(bop.BDiffOp.from_lists([[1], [1]])), 0)):
        path = write(tmp_path, "obj.json", obj)
        assert type(load_object(path)) is type(obj)
