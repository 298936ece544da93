"""The claim verdicts of ``scripts/bench_pairs.py``."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from bench_pairs import compare, verdict  # noqa: E402


def metric(base, change, better="lower"):
    """``compare``'s entry for one metric with these runs."""
    runs = {side: [{"values": {"m": v}} for v in values]
            for side, values in (("base", base), ("change", change))}
    return compare(runs, {"m": better})["m"]


BASE = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]


def test_a_clear_win_on_nine_pairs_is_a_gain():
    change = [v - 2.0 for v in BASE]
    change[0] = BASE[0] + 0.1  # one pair lost
    assert verdict(metric(BASE, change), 0.25) == "gain"
    # higher is better: the mirror image
    assert verdict(metric([-v for v in BASE], [-v for v in change], "higher"), 0.25) == "gain"


def test_eight_wins_or_a_median_inside_the_spread_are_no_gain():
    change = [v - 2.0 for v in BASE]
    change[0] = change[1] = BASE[1] + 0.1
    assert verdict(metric(BASE, change), 0.25) == "no change"
    # ten wins by less than the base's quartile distance
    assert verdict(metric(BASE, [v - 0.1 for v in BASE]), 0.25) == "no change"


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    assert verdict(metric(BASE, [v * 1.3 for v in BASE]), 0.25) == "regression"
    assert verdict(metric(BASE, [v * 1.2 for v in BASE]), 0.25) == "no change"
    # identical runs, as margin_max reads on unchanged code, are no change
    assert verdict(metric([0.0027] * 10, [0.0027] * 10), 0.05) == "no change"


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    # quartile distance 2.75 against an allowance of 0.1 x 11
    wide = [8.0, 8.0, 9.0, 10.0, 10.0, 11.0, 12.0, 12.0, 13.0, 13.0]
    assert verdict(metric(wide, [v - 0.5 for v in wide]), 0.1) == "unresolved"
    # unless every change run beats every base run
    assert verdict(metric(wide, [5.0] * 10), 0.1) == "gain"
