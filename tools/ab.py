"""Paired A/B runs of the benchmark: a git revision against the working tree.

Usage, from the repository root:

    python3 tools/ab.py REV [--pairs N] [--workload W] [--seconds S] [--seed N]
                            [--record BENCH_prNN.json]

REV is extracted with ``git archive`` into a temporary directory.  Each
pair runs REV's ``bench/run.py`` and the working tree's once each, with
the same arguments, the two taking turns to go first.  For every
end-to-end metric that ``BENCHMARK.json`` names, on every workload, the
script prints both medians, the interquartile range of REV's runs, the
working tree's wins out of N pairs by the metric's ``better`` (a tie is
no one's win) and every run, then one verdict per workload/metric (see
:func:`verdicts`).  When every run was correct, it then gives each
workload a second verdict, on its raw batch wall (see :func:`raw_walls`),
read with the host factor from the ``bench/out/result-*-trace0.json``
files the run wrote.  It exits 1 if any run was not ``correct``, failed an
operation or did not finish.  It reads the benchmark's results only from
the last line ``bench/run.py`` prints and those files.  ``--record PATH``
also writes the pairs as one point of the benchmark trajectory (see
:func:`bench_point`).
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(tree: Path, args) -> dict:
    """The last line of one ``bench/run.py`` run in ``tree``, its metrics keyed workload/metric."""
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "failed": None, "attempted": None, "metrics": {}}
    result = json.loads(lines[-1])
    if args.workload != "all":
        result["metrics"] = {f"{args.workload}/{name}": entry
                             for name, entry in result["metrics"].items()}
    return result


def host_readings(tree: Path, result: dict) -> dict:
    """Per workload of the run ``result`` just made in ``tree``: its full result's
    manifest, the median raw batch wall and the host factor, the median normalised
    batch time over the median raw one."""
    readings = {}
    for workload in sorted({key.split("/", 1)[0] for key in result["metrics"]}):
        full = json.loads((tree / "bench" / "out" / f"result-{workload}-trace0.json").read_text())
        raw = statistics.median(full["batch_walls_s"]["raw"])
        readings[workload] = {"manifest": full["manifest"], "batch_wall_s": raw,
                              "host_factor": statistics.median(
                                  full["batch_walls_s"]["normalised"]) / raw}
    return readings


# A workload's median raw batch wall, judged as an end-to-end metric with
# cycles_per_s's bound.  A change that runs work in another process moves
# the host factor (the calibration slices compete with it), so the
# normalised metrics alone cannot judge it.
RAW_WALL = {"name": "batch_wall_s", "unit": "s", "better": "lower"}


def raw_walls(end_to_end: list[dict], hosts: dict[str, list[dict]]):
    """The raw-wall metric as a ``BENCHMARK.json`` entry, then the base's and the
    change's runs as results holding it per workload, read from each run's
    :func:`host_readings`: :func:`verdicts` and :func:`summarize` read them as
    they read the benchmark's own runs."""
    bound = next(m["bound"] for m in end_to_end if m["name"] == "cycles_per_s")
    key = RAW_WALL["name"]

    def runs(side: str) -> list[dict]:
        return [{"correct": True, "failed": 0, "metrics": {
            f"{workload}/{key}": {"value": reading[key], "unit": RAW_WALL["unit"]}
            for workload, reading in run.items()}} for run in hosts[side]]

    return [dict(RAW_WALL, bound=bound)], runs("base"), runs("change")


def _entries(end_to_end: list[dict], base: list[dict], change: list[dict]) -> dict:
    """Each metric's unit, better side, wins, verdict, and median and runs on both sides."""
    verdict = dict(line.rsplit(": ", 1) for line in verdicts(end_to_end, base, change))
    return {key: {"unit": unit, "better": metric["better"], "wins": wins,
                  "verdict": verdict[key],
                  "base": {"median": statistics.median(was), "runs": was},
                  "change": {"median": statistics.median(now), "runs": now}}
            for metric, key, unit, was, now, wins in _series(end_to_end, base, change)}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def bench_point(spec: dict, args, base: list[dict], change: list[dict],
                hosts: dict[str, list[dict]]) -> dict:
    """One ``BENCH_*.json`` point of runs that were all correct with none failed:
    both commits, each end-to-end metric's median and runs on both sides with
    its wins and verdict, the same for each workload's raw batch wall
    (``raw_walls``), and a manifest holding every run's raw batch wall and
    host factor by side and workload."""
    first = next(iter(hosts["change"][0].values()))["manifest"]
    return {
        "schema": "kneetrack-bench-point",
        "base": {"rev": args.rev, "commit": _git("rev-parse", f"{args.rev}^{{commit}}")},
        # the working tree: HEAD, plus its uncommitted changes if any
        "change": {"commit": _git("rev-parse", "HEAD"),
                   "uncommitted_changes": _git("status", "--porcelain") != ""},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pairs": len(base),
        "correct": all(r["correct"] is True for r in base + change),
        "attempted": sum(r["attempted"] for r in base + change),
        "failed": sum(r["failed"] for r in base + change),
        "metrics": _entries(spec["end_to_end"], base, change),
        "raw_walls": _entries(*raw_walls(spec["end_to_end"], hosts)),
        "manifest": {
            "python": first["python"], "numpy": first["numpy"], "nproc": first["nproc"],
            "cpus_allowed": first["cpus_allowed"], "platform": first["platform"],
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "conditions": "untraced, one host, one session",
            # per side and workload, one value per run in pair order
            "runs": {side: {workload: {name: [run[workload][name] for run in runs]
                                       for name in ("batch_wall_s", "host_factor")}
                            for workload in runs[0]}
                     for side, runs in hosts.items()},
        },
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _series(end_to_end: list[dict], base: list[dict], change: list[dict]):
    """Each end-to-end metric's runs on both sides, in workload/metric order: its
    ``BENCHMARK.json`` entry, key, unit, base values, change values and the change's
    wins by the metric's ``better`` (a tie is no one's win), over the pairs that have it."""
    spec = {m["name"]: m for m in end_to_end}
    keys = sorted({key for r in base + change for key in r["metrics"]
                   if key.rsplit("/", 1)[-1] in spec})
    for key in keys:
        pairs = [(b["metrics"][key], c["metrics"][key]) for b, c in zip(base, change)
                 if key in b["metrics"] and key in c["metrics"]]
        if not pairs:
            continue
        metric = spec[key.rsplit("/", 1)[-1]]
        was, now = ([entry["value"] for entry in side] for side in zip(*pairs))
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (c - b) > 0.0 for b, c in zip(was, now))
        yield metric, key, pairs[0][0]["unit"], was, now, wins


def summarize(end_to_end: list[dict], base: list[dict],
              change: list[dict]) -> tuple[list[str], bool]:
    """Report lines for paired runs, and whether every run was correct with none failed.

    ``base`` and ``change`` hold one ``bench/run.py`` result per pair, in
    pair order, with metrics keyed workload/metric.
    """
    ok = all(r["correct"] is True and r["failed"] == 0 for r in base + change)
    lines = [f"{len(base)} pairs; every run correct with 0 failed: {ok}"]
    for metric, key, unit, was, now, wins in _series(end_to_end, base, change):
        q1, q3 = _quartiles(was)
        lines += [f"{key} ({unit}, {metric['better']} is better): "
                  f"median {statistics.median(was):.6g} -> {statistics.median(now):.6g}, "
                  f"base IQR {q3 - q1:.3g}, change wins {wins}/{len(was)}",
                  "  base:   " + " ".join(f"{v:.6g}" for v in was),
                  "  change: " + " ".join(f"{v:.6g}" for v in now)]
    return lines, ok


def verdicts(end_to_end: list[dict], base: list[dict], change: list[dict]) -> list[str]:
    """One verdict line per workload/metric of paired runs, the first rule that holds:

    * ``worse``: the change's median is worse than the base's by more than the
      metric's ``bound``, a fraction of the base median;
    * ``unresolved``: the base runs' interquartile range is wider than ``bound``
      of their median, and not every change run reads better than every base run;
    * ``gain``: the change wins at least 9 of every 10 pairs, and its median is
      better than the base's by more than the base IQR;
    * ``no change``: anything else.
    """
    lines = []
    for metric, key, _, was, now, wins in _series(end_to_end, base, change):
        sign = 1.0 if metric["better"] == "higher" else -1.0
        median = statistics.median(was)
        moved = sign * (statistics.median(now) - median)
        q1, q3 = _quartiles(was)
        if moved < -metric["bound"] * abs(median):
            verdict = "worse"
        elif (q3 - q1 > metric["bound"] * abs(median)
              and not min(sign * v for v in now) > max(sign * v for v in was)):
            verdict = "unresolved"
        elif 10 * wins >= 9 * len(was) and moved > q3 - q1:
            verdict = "gain"
        else:
            verdict = "no change"
        lines.append(f"{key}: {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--record", type=Path,
                        help="also write the pairs as a BENCH_*.json trajectory point")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    archive = subprocess.run(["git", "archive", "--format=tar", args.rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    base, change = [], []
    hosts = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="kneetrack-ab-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        for pair in range(args.pairs):
            order = ((Path(tmp), base, hosts["base"]), (ROOT, change, hosts["change"]))
            for tree, runs, readings in order if pair % 2 == 0 else order[::-1]:
                runs.append(run_bench(tree, args))
                if runs[-1]["correct"] is True:
                    readings.append(host_readings(tree, runs[-1]))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    lines, ok = summarize(spec["end_to_end"], base, change)
    print(f"base {args.rev} vs the working tree; --workload {args.workload} "
          f"--seed {args.seed} --seconds {args.seconds:g}")
    print("\n".join(lines))
    print("verdicts, by each metric's better side and bound in BENCHMARK.json:")
    print("\n".join(verdicts(spec["end_to_end"], base, change)))
    if ok:
        walls = raw_walls(spec["end_to_end"], hosts)
        print("\n".join(summarize(*walls)[0][1:]))
        print("raw-wall verdicts, by cycles_per_s's bound:")
        print("\n".join(verdicts(*walls)))
    if args.record is not None and ok:
        args.record.write_text(json.dumps(bench_point(spec, args, base, change, hosts),
                                          indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
