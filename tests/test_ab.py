"""The paired A/B script's summary of benchmark runs (tools/ab.py)."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

END_TO_END = [{"name": "cycles_per_s", "unit": "cycles/s", "better": "higher"},
              {"name": "setup_s", "unit": "s", "better": "lower"}]


def run(cycles, setup, correct=True, failed=0):
    return {"correct": correct, "failed": failed, "attempted": 10, "metrics": {
        "w/cycles_per_s": {"value": cycles, "unit": "cycles/s"},
        "w/setup_s": {"value": setup, "unit": "s"},
        "w/dhdp.share": {"value": 0.5, "unit": "fraction"}}}


def test_summary_counts_wins_by_each_metrics_better_side():
    base = [run(100.0, 0.30), run(110.0, 0.20), run(120.0, 0.25), run(130.0, 0.40)]
    change = [run(105.0, 0.30), run(110.0, 0.10), run(119.0, 0.20), run(140.0, 0.50)]
    lines, ok = ab.summarize(END_TO_END, base, change)
    assert ok
    assert lines == [
        "4 pairs; every run correct with 0 failed: True",
        # ties win for no one; quartiles 107.5 and 122.5
        "w/cycles_per_s (cycles/s, higher is better): median 115 -> 114.5, "
        "base IQR 15, change wins 2/4",
        "  base:   100 110 120 130",
        "  change: 105 110 119 140",
        # lower wins: 0.10 and 0.20 beat 0.20 and 0.25; quartiles 0.2375 and 0.325
        "w/setup_s (s, lower is better): median 0.275 -> 0.25, base IQR 0.0875, "
        "change wins 2/4",
        "  base:   0.3 0.2 0.25 0.4",
        "  change: 0.3 0.1 0.2 0.5",
    ]


def test_summary_fails_on_an_incorrect_failed_or_unfinished_run():
    good = [run(100.0, 0.3)] * 2
    for bad in (run(100.0, 0.3, correct=False), run(100.0, 0.3, failed=1),
                {"correct": False, "failed": None, "attempted": None, "metrics": {}}):
        lines, ok = ab.summarize(END_TO_END, good, [good[0], bad])
        assert not ok
        assert lines[0] == "2 pairs; every run correct with 0 failed: False"


def test_verdicts_follow_the_first_rule_that_holds():
    end_to_end = [{"name": "cycles_per_s", "unit": "cycles/s", "better": "higher", "bound": 0.25},
                  {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    steady = [100.0 + i % 2 for i in range(10)]  # IQR 1, far inside the bound
    wide = [50.0 + 10.0 * i for i in range(10)]  # IQR 45, wider than 25% of its median 95
    cases = [
        # the median 26% worse is worse, however the pairs go
        (steady, [74.0] * 10, "worse"),
        # a wide base spread leaves a 20% gain in every pair unresolved ...
        (wide, [v * 1.2 for v in wide], "unresolved"),
        # ... unless every change run reads better than every base run
        (wide, [200.0] * 10, "gain"),
        # 9 of 10 pairs won, the median moved by more than the base IQR
        (steady, [110.0] * 9 + [90.0], "gain"),
        # 8 of 10 wins, or a move inside the base IQR, or a loss inside the bound
        (steady, [110.0] * 8 + [90.0] * 2, "no change"),
        (steady, [v + 0.5 for v in steady], "no change"),
        (steady, [80.0] * 10, "no change"),
    ]
    for was, now, verdict in cases:
        # setup_s is lower-better, so a value mirrored about 200 reads as its cycles_per_s does
        base, change = ([run(v, (200.0 - v) / 100.0) for v in side] for side in (was, now))
        assert ab.verdicts(end_to_end, base, change) == [
            f"w/cycles_per_s: {verdict}", f"w/setup_s: {verdict}"], (was, now)
