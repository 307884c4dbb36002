"""The paired A/B script's summary of benchmark runs (tools/ab.py)."""

import argparse
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
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


def test_a_bench_point_holds_both_sides_runs_and_host_readings(monkeypatch):
    monkeypatch.setattr(ab, "_git", lambda *args: {"status": " M src/x.py"}.get(args[0], "c0ffee"))
    end_to_end = [dict(m, bound=0.25) for m in END_TO_END]
    base, change = [run(100.0, 0.3), run(102.0, 0.3)], [run(120.0, 0.3), run(121.0, 0.2)]
    manifest = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "cpus_allowed": 2,
                "platform": "Linux"}
    hosts = {side: [{"w": {"manifest": manifest, "batch_wall_s": wall, "host_factor": 1.25}}
                    for wall in walls]
             for side, walls in (("base", (0.4, 0.5)), ("change", (0.3, 0.35)))}
    args = argparse.Namespace(rev="HEAD~1", workload="w", seed=3, seconds=12.0)
    point = ab.bench_point({"end_to_end": end_to_end}, args, base, change, hosts)
    assert point["base"] == {"rev": "HEAD~1", "commit": "c0ffee"}
    assert point["change"] == {"commit": "c0ffee", "uncommitted_changes": True}
    assert (point["pairs"], point["correct"], point["attempted"], point["failed"]) == (2, True, 40, 0)
    assert point["metrics"]["w/cycles_per_s"] == {
        "unit": "cycles/s", "better": "higher", "wins": 2, "verdict": "gain",
        "base": {"median": 101.0, "runs": [100.0, 102.0]},
        "change": {"median": 120.5, "runs": [120.0, 121.0]}}
    assert point["metrics"]["w/setup_s"]["wins"] == 1
    assert point["manifest"]["runs"] == {
        "base": {"w": {"batch_wall_s": [0.4, 0.5], "host_factor": [1.25, 1.25]}},
        "change": {"w": {"batch_wall_s": [0.3, 0.35], "host_factor": [1.25, 1.25]}}}
    assert point["manifest"]["conditions"] == "untraced, one host, one session"
    # the raw walls are judged beside the normalised metrics: 2 of 2 wins, and
    # the median moved 0.125 s, more than the base IQR of 0.05 s
    assert point["raw_walls"] == {"w/batch_wall_s": {
        "unit": "s", "better": "lower", "wins": 2, "verdict": "gain",
        "base": {"median": 0.45, "runs": [0.4, 0.5]},
        "change": {"median": pytest.approx(0.325), "runs": [0.3, 0.35]}}}


def test_raw_wall_verdicts_judge_each_workloads_median_raw_batch_wall():
    # the raw wall takes cycles_per_s's bound and the verdict rules; it can
    # disagree with a normalised metric whose host factor moved
    end_to_end = [dict(m, bound=0.25) for m in END_TO_END]
    walls = {
        "fast": ([0.40 + 0.001 * i for i in range(10)], [0.35] * 10),  # gain
        "slow": ([1.00 + 0.001 * i for i in range(10)], [1.30] * 10),  # 30% slower: worse
        "flat": ([0.50 + 0.001 * i for i in range(10)], [0.5045] * 10),  # inside the IQR
        "noisy": ([0.2 + 0.03 * i for i in range(10)], [0.2 + 0.03 * i - 0.01 for i in range(10)]),
    }
    hosts = {side: [{w: {"batch_wall_s": runs[k][pair], "host_factor": 1.4}
                     for w, runs in walls.items()} for pair in range(10)]
             for k, side in enumerate(("base", "change"))}
    spec, base, change = ab.raw_walls(end_to_end, hosts)
    assert spec == [{"name": "batch_wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert base[3]["metrics"]["slow/batch_wall_s"] == {"value": 1.003, "unit": "s"}
    assert ab.verdicts(spec, base, change) == [
        "fast/batch_wall_s: gain", "flat/batch_wall_s: no change",
        "noisy/batch_wall_s: unresolved", "slow/batch_wall_s: worse"]
    lines, ok = ab.summarize(spec, base, change)
    assert ok and lines[1].startswith("fast/batch_wall_s (s, lower is better): median 0.4045 -> 0.35")


def test_every_bench_point_is_a_correct_run_of_every_end_to_end_metric():
    # the committed trajectory: each point parses, names its commits and holds
    # every workload's end-to-end metrics on both sides; no time is read
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {f"{w['name']}/{m['name']}" for w in spec["workloads"] for m in spec["end_to_end"]}
    assert len(want) == 12
    points = sorted(ROOT.glob("BENCH_*.json"))
    assert points
    for path in points:
        point = json.loads(path.read_text())
        for side in ("base", "change"):
            assert re.fullmatch(r"[0-9a-f]{40}", point[side]["commit"]), path
        assert point["correct"] is True and point["failed"] == 0, path
        assert set(point["metrics"]) == want, path
        for entry in point["metrics"].values():
            assert all(len(entry[side]["runs"]) == point["pairs"] for side in ("base", "change"))
        # points from tools/ab.py's raw verdicts on also judge each workload's raw wall
        if "raw_walls" in point:
            assert set(point["raw_walls"]) == {
                f"{w['name']}/batch_wall_s" for w in spec["workloads"]}, path
            for entry in point["raw_walls"].values():
                assert all(len(entry[side]["runs"]) == point["pairs"]
                           for side in ("base", "change"))
