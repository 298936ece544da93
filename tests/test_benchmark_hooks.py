"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps bcalc
functions where callers look them up.  Installing and uninstalling its span
recorder here makes a rename or deletion of any wrapped name fail the test
suite, not only a traced benchmark run.
"""
import importlib.util
from pathlib import Path

from bcalc import numeric as num

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_recorder_restores_every_patched_attribute():
    recorder = _load_spans().Recorder()
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
