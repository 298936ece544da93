"""Acceptance gate: every criterion of the verification suite, one test per
criterion, with a printed pass/fail line each.  A case returns its claim
and its numeric checks, ``(label, measured, bound)`` triples; each bound is
written once, in the case's ``_within`` call, which raises past it.
"""
import pytest

from bcalc import transport, verify
from bcalc.indexsets import SMOOTH


def _ids():
    return [f"{cid:02d}-{name.replace(' ', '-')}" for cid, name, _ in verify.CASES]


@pytest.mark.parametrize("case", verify.CASES, ids=_ids())
def test_acceptance_criterion(case, capsys):
    cid, name, fn = case
    try:
        claim, checks = fn()
    except Exception as exc:
        with capsys.disabled():
            print(f"\nACCEPTANCE {cid:2d} FAIL {name}: {type(exc).__name__}: {exc}")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {cid:2d} PASS {name}: {claim}; checks {checks}")


def test_every_criterion_is_registered():
    assert [cid for cid, _, _ in verify.CASES] == list(range(1, 14))
    assert set(verify.SUITES["all"]) == set(range(1, 14))


def test_a_check_past_its_bound_fails_the_suite_and_the_gate(monkeypatch, capsys):
    def over_bound():
        return "a claim", [verify._within("probe gap", 2e-3, 1e-3)]

    cases = tuple((cid, name, over_bound if cid == 1 else fn) for cid, name, fn in verify.CASES)
    monkeypatch.setattr(verify, "CASES", cases)
    [result] = verify.run_suite("indexsets")
    assert not result.passed and result.checks == ()
    assert result.detail == "AssertionError: probe gap: 0.002 above the bound 0.001"
    with pytest.raises(AssertionError, match="probe gap"):
        test_acceptance_criterion(cases[0], capsys)
    with pytest.raises(AssertionError, match="nan above"):
        verify._within("probe gap", float("nan"), 1e-3)


def test_case_3_checks_the_predicted_log(monkeypatch):
    real = transport.push_forward_halfline

    def without_log(f, family):
        report = real(f, family)
        return type(report)(SMOOTH, report.integrability_ok, report.violating_bhs,
                            report.face_contributions)

    monkeypatch.setattr(verify.transport, "push_forward_halfline", without_log)
    with pytest.raises(AssertionError, match=r"fitted terms outside \{\(-1,0\)\}\+N0"):
        verify.case_pushforward_numeric()
