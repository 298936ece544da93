"""Golden CLI transcripts: exact exit code, stdout and stderr of ``cli.main``.

``tests/data/cli_golden.json`` holds the input files (as text) and, for each
call, its argv and the exit code, stdout and stderr it produced.  The calls
cover one per ``indexset``, ``space``, ``map`` and ``transport`` action,
``op specb|split|inverse|parametrix|compose|action`` on operators whose
roots are exact, the README's CLI examples (``verify`` runs its exact
suites only: ``--suite all`` prints quadrature digits that depend on the
SciPy build), hypothesis violations and malformed or usage-error calls.
Every call runs once as written and once with ``--json`` appended.  Each
runs in the directory holding its input files, so a message that names a
file names it as given.

A change that is meant to alter CLI output regenerates the goldens, and the
diff of the data file shows every byte it alters::

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import io
import json
import os
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

_OP1 = "op1.json"  # z + 1: one exact root
_OP2 = "op2.json"  # (z + 5/4)(z + 11/4): two exact roots an integer and a half apart
_OP_DOUBLE = "op_double.json"  # (z + 1)^2: one exact double root

_CALLS = [
    # indexset
    ["indexset", "union", "smooth.json", "shifted.json"],
    ["indexset", "extunion", "smooth.json", "smooth.json", "--truncate", "5"],  # README
    ["indexset", "sum", "shifted.json", "shifted.json", "--truncate", "3"],
    ["indexset", "complete", "entries.json"],
    ["indexset", "inf", "shifted.json"],
    ["indexset", "truncate", "shifted.json", "--truncate", "-3/2"],
    # space
    ["space", "quadrant", "-k", "2", "-n", "2", "--names", "Hx,Hy"],  # README
    ["space", "quadrant", "-k", "3", "-n", "4"],
    ["space", "blowup", "quad.json", "--center", "Hx,Hy", "--name", "ff"],  # README
    ["space", "triple"],
    # map
    ["map", "compose", "lp2.json", "proj.json"],
    ["map", "facemap", "lp2.json", "--face", "bf1,fff"],
    ["map", "facemap", "lp2.json", "--face", ""],
    ["map", "check-bfibration", "blowdown_x2b.json"],  # README, exit 2
    ["map", "check-bfibration", "lp2.json"],
    # transport
    ["transport", "pullback", "blowdown_x2b.json", "fam_q.json"],
    ["transport", "pushforward", "proj.json", "family.json"],  # README
    ["transport", "pushforward", "proj.json", "family_bad.json"],  # exit 2
    ["transport", "pushforward", "lp3.json", "fam3.json"],
    # op
    ["op", "specb", _OP1],  # README
    ["op", "specb", _OP2],
    ["op", "specb", _OP_DOUBLE],
    ["op", "split", _OP1, "--gamma", "-1/2"],  # README
    ["op", "split", _OP2, "--gamma", "-2"],
    ["op", "inverse", _OP1, "--gamma", "1/2"],  # README
    ["op", "inverse", _OP2, "--gamma", "-2"],
    ["op", "inverse", _OP_DOUBLE, "--gamma", "0"],
    ["op", "inverse", _OP1, "--gamma", "-1"],  # weight on a root: exit 2
    ["op", "parametrix", _OP1, "--gamma", "0", "--steps", "3"],  # README
    ["op", "parametrix", _OP_DOUBLE, "--gamma", "-2", "--steps", "2"],
    ["op", "compose", "desc1.json", "desc2.json"],
    ["op", "compose", "desc_rb.json", "desc_lb.json"],  # threshold: exit 2
    ["op", "action", "desc1.json", "smooth.json"],
    # verify, exact suites
    ["verify", "--suite", "combinatorics"],
    ["verify", "--suite", "indexsets"],
    ["verify", "--suite", "pullback"],
    # malformed input and usage errors
    ["op", "specb", _OP1, "--gamma", "0"],
    ["op", "split", _OP1, "--gamma", "x"],
    ["space", "quadrant", "-k", "2"],
    ["indexset", "inf", "broken.json"],
    ["indexset", "inf", "absent.json"],
    ["indexset", "inf", _OP1],
    ["indexset", "union", "entries.json", "smooth.json"],
    ["space", "blowup", "smooth.json", "--center", "Hx,Hy", "--name", "ff"],
    ["transport", "pullback", "family.json", "proj.json"],
    ["transport", "pushforward", "proj.json", "smooth.json"],
    ["op", "compose", _OP1, "desc1.json"],
]


def _inputs():
    """The input files as text, built through the library."""
    from bcalc import bmaps
    from bcalc import boperators as bop
    from bcalc import geometry as geo
    from bcalc.indexsets import EMPTY, SMOOTH, IndexFamily, IndexSet

    half = Fraction(1, 2)
    shifted = IndexSet.from_entries([(half, 0), (1, 1)])
    x2b = geo.x2b_lattice()
    fam_q = IndexFamily.of({"Hx": IndexSet.from_entries([(half, 0)]),
                            "Hy": IndexSet.from_entries([(1, 0)])}, geo.x2b_blowdown().target)
    lp3 = bmaps.lifted_projection(3)
    fam3 = IndexFamily.of({n: SMOOTH if any(row) else SMOOTH.shift(1)
                           for n, row in zip(lp3.source.bhs_names, lp3.exponents)})
    objects = {
        "smooth.json": SMOOTH,
        "shifted.json": shifted,
        "entries.json": {"entries": [{"re": "-1", "p": 0}, {"re": "0", "im": "0", "p": 1}]},
        "quad.json": geo.model_quadrant(2, 2, ("Hx", "Hy")),
        "blowdown_x2b.json": geo.x2b_blowdown(),
        "lp2.json": bmaps.lifted_projection(2),
        "lp3.json": lp3,
        "proj.json": bmaps.halfline_projection(1),
        "fam_q.json": fam_q,
        "family.json": IndexFamily.of(
            {"lb": SMOOTH, "ff": SMOOTH, "rb": IndexSet.from_entries([(1, 0)])}, x2b),
        "family_bad.json": IndexFamily.of({"lb": SMOOTH, "ff": SMOOTH, "rb": SMOOTH}, x2b),
        "fam3.json": fam3,
        _OP1: bop.BDiffOp.from_lists([[1], [1]]),
        _OP2: bop.BDiffOp.from_lists([["55/16"], [4], [1]]),
        _OP_DOUBLE: bop.BDiffOp.from_lists([[1], [2], [1]]),
        "desc1.json": bop.FullCalcDescriptor(-1, EMPTY, SMOOTH.shift(1)),
        "desc2.json": bop.FullCalcDescriptor(0, shifted, SMOOTH.shift(2)),
        "desc_rb.json": bop.FullCalcDescriptor(0, EMPTY, SMOOTH),
        "desc_lb.json": bop.FullCalcDescriptor(0, SMOOTH, EMPTY),
    }
    files = {name: json.dumps(obj.to_jsonable() if hasattr(obj, "to_jsonable") else obj,
                              sort_keys=True)
             for name, obj in objects.items()}
    files["broken.json"] = '{"generators": ['
    return files


def _argvs():
    for argv in _CALLS:
        yield argv
        yield argv + ["--json"]


def _run(argv):
    from bcalc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # a usage error
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_inputs(files, directory):
    for name, text in files.items():
        (Path(directory) / name).write_text(text)


def test_cli_matches_golden_transcripts(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    _write_inputs(golden["files"], tmp_path)
    monkeypatch.chdir(tmp_path)
    assert [c["argv"] for c in golden["calls"]] == list(_argvs())
    for want in golden["calls"]:
        assert _run(want["argv"]) == want


def _regenerate():
    import tempfile

    files = _inputs()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(files, tmp)
        os.chdir(tmp)
        try:
            calls = [_run(argv) for argv in _argvs()]
        finally:
            os.chdir(here)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"files": files, "calls": calls}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(calls)} calls to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
