"""The benchmark's hooks into bcalc, checked by the test suite rather than
only by a benchmark run.

The traced run (``perfbench/run.py --trace 1``) wraps bcalc functions where
callers look them up: installing and uninstalling its span recorder here
makes a rename or deletion of any wrapped name fail.  Every run checks each
pass's outputs against the first pass's with ``run.same``: a result whose
``==`` cannot compare its arrays would crash that check.
"""
import importlib.util
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np

from bcalc import boperators as bop
from bcalc import numeric as num
from bcalc.indexsets import SMOOTH, IndexSet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # run.py's dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_recorder_restores_every_patched_attribute():
    recorder = _load("spans").Recorder()
    try:
        recorder.install()  # in the try, so a part-way failure is undone too
        saved = list(recorder._saved)
        assert saved
        for owner, attr, original in saved:
            assert _current(owner, attr) is not original, (owner, attr)
        num.integrate_from_zero(lambda t: t ** -0.5, 1.0)
        summary = recorder.summary()
        assert summary["numeric.calls"] >= 1 and summary["numeric.quad_calls"] >= 1
    finally:
        recorder.uninstall()
    for owner, attr, original in saved:
        assert _current(owner, attr) is original, (owner, attr)


def _divergent(x, y):  # integrable fibers for x <= 0.1, divergent (1/y) beyond
    return (1.0 + x) * y ** -0.5 if x <= 0.1 else 1.0 / y


def test_repeated_outputs_compare_equal_across_passes():
    same = _load("run").same
    op = bop.BDiffOp.from_lists([[F(1, 2)], [1]])
    kernel = bop.model_inverse(bop.indicial(op), 0)
    grid = num.geometric_grid(0.3, 0.8, 12)
    samples = num.numeric_pushforward(num.SampledFunction2D(math.hypot, support=1.0),
                                      num.QuadratureSpec(1e-12, 1e-12, 300), grid).values
    calls = {
        "divergent fibers": lambda: num.numeric_pushforward(
            num.SampledFunction2D(_divergent, support=1.0), num.QuadratureSpec(1e-10, 1e-10, 200),
            np.array([0.05, 0.1, 0.2, 0.3])),
        "convolution with a prediction": lambda: num.convolve_model_kernels(
            kernel, kernel, np.geomspace(0.05, 0.95, 8), spec=num.QuadratureSpec(1e-11, 1e-11, 300),
            predicted=IndexSet.from_entries([(F(1, 2), 0), (F(1, 2), 1)]), fit_cutoff=F(5, 2)),
        "fit": lambda: num.fit_expansion(grid, samples, SMOOTH.extended_union(SMOOTH), 4),
        "model inverse": lambda: bop.model_inverse(bop.indicial(op), 0),
        "parametrix": lambda: bop.parametrix_indices(op, 0, 3),
    }
    for name, call in calls.items():
        first, second = call(), call()
        assert same(first, second), name
    divergent = calls["divergent fibers"]()
    assert divergent.failed == (2, 3) and np.isnan(divergent.values[2:]).all()
