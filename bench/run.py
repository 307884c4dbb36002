"""Closed-loop benchmark of kneetrack's once-per-gait-cycle tuning loop.

Usage, from the repository root:

    python3 bench/run.py --workload s1-test --seed 3 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 3

One run builds the workload's inputs from ``--seed``, measures set-up,
warms up, then repeats the same batch at least MIN_BATCHES times and for
about ``--seconds`` seconds, checking every trial of every batch.  Times
are normalised for host speed (see hostspeed.py).  With ``--trace 0`` it
reports the end-to-end metrics named in BENCHMARK.json; with ``--trace 1``
it alternates untraced and traced batches and reports the per-layer
metrics, including the tracing overhead.  ``--workload all`` runs each
workload in its own process and prints one table.  bench/README.md
defines every workload and metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full result with the run manifest, also written to ``bench/out/``.
The benchmark exits non-zero without a result when the checkout has no
``src/kneetrack``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import hostspeed
import workloads
from workloads import BENCH_DIR, OUT_DIR, ROOT, SRC, WORKLOADS

SETUP_REPEATS = 5       # fresh processes per run; setup_s is their median
MIN_BATCHES = 2         # timed batches per untraced run, whatever --seconds says
MIN_TRACED_PAIRS = 1    # untraced+traced batch pairs per traced run
CHILD_TIMEOUT_S = 170   # per workload when --workload all runs them in turn


def _median(values):
    return statistics.median(values) if values else 0.0


def measure_setup(name: str, seed: int, sampler) -> tuple[list[float], list[float]]:
    """Raw and normalised seconds from process start to ready-for-first-trial.

    The sampler's slices run in this process while it waits for the probe,
    on the other core, so the probe's wall time is scaled, not reduced.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)]
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        _, wall, _, factor = sampler.timed(subprocess.run, cmd, check=True, cwd=ROOT,
                                           timeout=60)
        raw.append(wall)
        norm.append(wall * factor)
    return raw, norm


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def manifest(wl, args) -> dict:
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": wl.sizes(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": workloads.np.__version__,
        "kneetrack": wl.mods["kneetrack"].__version__,
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def outcome_metrics(outcomes: list[dict]) -> dict:
    """Science of one batch: deterministic for a given seed and numpy."""
    steps = [o["tuning_steps"] for o in outcomes
             if o["outcome"] == "success" and o["tuning_steps"] is not None]
    return {
        "success_rate": sum(o["outcome"] == "success" for o in outcomes) / len(outcomes),
        "tuning_steps_mean": statistics.fmean(steps) if steps else 0.0,
        "cycles_per_trial": sum(o["cycles_run"] for o in outcomes) / len(outcomes),
    }


class Tally:
    """Trials attempted and failed across every timed batch of the run.

    The first batch's outcomes are the reference: every later batch must
    repeat each trial's digest exactly.
    """

    def __init__(self):
        self.reference: list[dict] | None = None
        self.attempted = 0
        self.failed = 0

    def add(self, outcomes: list[dict]) -> None:
        self.attempted += len(outcomes)
        if self.reference is None:
            self.reference = outcomes
        ref = self.reference
        for i, out in enumerate(outcomes):
            repeated = i < len(ref) and out["digest"] == ref[i]["digest"]
            if not (workloads.trial_ok(out) and repeated):
                self.failed += 1


def _repeat(seconds: float, minimum: int, step) -> None:
    """Call ``step`` at least ``minimum`` times, then until the next call,
    taking as long as the last one, would end after ``seconds``."""
    start = time.perf_counter()
    for n in itertools.count(1):
        last = step()
        if n >= minimum and time.perf_counter() - start + last > seconds:
            return


def run_untraced(wl, args, sampler) -> tuple[dict, Tally, dict]:
    setup_raw, setup_norm = measure_setup(wl.name, args.seed, sampler)
    wl.prepare()
    wl.warm_up()
    tally = Tally()
    walls, norms = [], []

    def step():
        raw, wall, norm, _ = sampler.timed(wl.run)
        tally.add(wl.collect(raw))
        walls.append(wall)
        norms.append(norm)
        return wall

    _repeat(args.seconds, MIN_BATCHES, step)
    trials = len(tally.reference)
    cycles = sum(o["cycles_run"] for o in tally.reference)
    metrics = {
        "setup_s": _median(setup_norm),
        "trials_per_s": _median([trials / t for t in norms]),
        "cycles_per_s": _median([cycles / t for t in norms]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s.raw": _median(setup_raw),
        "cycles_per_s.raw": _median([cycles / t for t in walls]),
        **outcome_metrics(tally.reference),
    }
    return metrics, tally, {"setup_raw": setup_raw, "setup": setup_norm,
                            "raw": walls, "normalised": norms}


class _Sums:
    """Per-function calls/total/self and counters summed over traced segments."""

    def __init__(self):
        self.stats: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}

    def add(self, summary: dict, counts: dict, factor: float) -> None:
        """Add one traced segment, its times (keys ending in _ns) scaled by the host factor."""
        for name, s in summary["stats"].items():
            acc = self.stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += s["calls"]
            acc[1] += s["total_ns"] * factor
            acc[2] += s["self_ns"] * factor
        for key, value in list(summary["linked"].items()) + list(counts.items()):
            scale = factor if key.endswith("_ns") else 1
            self.counts[key] = self.counts.get(key, 0) + value * scale

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def mean(self, name, scale):
        calls, total, _ = self.stats.get(name, [0, 0.0, 0.0])
        return total / calls / scale if calls else 0.0

    def self_mean(self, name, scale):
        calls, _, self_ns = self.stats.get(name, [0, 0.0, 0.0])
        return self_ns / calls / scale if calls else 0.0

    def layer_self_ns(self, layer: str) -> float:
        return sum(s[2] for name, s in self.stats.items() if name.startswith(layer + "."))


def _ratio(a, b):
    return a / b if b else 0.0


def _ipc(records) -> tuple[float, float]:
    """Mean pickled size and pickle+unpickle time of a TrialRecord."""
    sizes, times = [], []
    for rec in records:
        t0 = time.perf_counter()
        blob = pickle.dumps(rec)
        pickle.loads(blob)
        times.append(time.perf_counter() - t0)
        sizes.append(len(blob))
    return _ratio(sum(sizes), len(sizes)), _ratio(sum(times), len(times)) * 1e6


def layer_metrics(every: _Sums, batches: _Sums, wall_ns: float, ipc) -> dict:
    us, ms = 1e3, 1e6
    trials = batches.counts["trials"]
    cycles = batches.counts["cycles"]
    m = {f"dhdp.{fn}.us": every.mean(f"dhdp.{fn}", us) for fn in (
        "actor_eval", "critic_eval", "critic_update", "actor_update",
        "stability_monitor", "stage_cost")}
    m.update({
        "dhdp.monitor_violation_ratio": _ratio(batches.counts.get("monitor_violations", 0),
                                               batches.calls("dhdp.stability_monitor")),
        "plant.feature_map_step.us": every.mean("plant.feature_map_step", us),
        "plant.target_for.us": every.mean("plant.target_for", us),
        "plant.ode_step.us": every.mean("plant.ode_step", us),
        "plant.ode_probe_steps_per_trial": _ratio(batches.counts.get("ode_probe_steps", 0),
                                                  trials),
        "plant.ode_step.probe_share": _ratio(batches.counts.get("ode_probe_ns", 0), wall_ns),
        "plant.ode_step.cycle_share": _ratio(batches.counts.get("ode_cycle_ns", 0), wall_ns),
        "fsm.apply_delta.us": every.mean("fsm.apply_delta", us),
        "fsm.clamp_ratio": _ratio(batches.counts.get("clamps", 0),
                                  batches.calls("fsm.apply_delta")),
        "fsm.step_fsm.calls_per_cycle": _ratio(batches.counts.get("step_fsm", 0),
                                               batches.calls("plant.ode_step")),
        "core.within_bound.us": every.mean("core.within_bound", us),
        "core.within_bound.calls": _ratio(batches.calls("core.within_bound"), cycles),
        "harness.safety_check.us": every.mean("harness.safety_check", us),
        "harness.step.us": every.mean("harness.step", us),
        "harness.step_self.us": every.self_mean("harness.step", us),
        "harness.trial_init.ms": every.mean("harness.trial_init", ms),
        "harness.trial_init.share": _ratio(batches.stats.get("harness.trial_init",
                                                             [0, 0.0])[1], wall_ns),
        "harness.draw_initial_impedance.ms": every.mean("harness.draw_initial_impedance", ms),
        "harness.initial_draws_per_trial": _ratio(
            batches.counts.get("initial_draw_profiles", 0),
            batches.calls("harness.draw_initial_impedance")),
        "harness.reset_cycle_ratio": _ratio(batches.counts["resets"], cycles),
        "harness.compute_rms.us": every.mean("harness.compute_rms", us),
        "harness.write_trial_csv.ms": every.mean("harness.write_trial_csv", ms),
        "harness.write_trial_csv.calls": _ratio(batches.calls("harness.write_trial_csv"),
                                                trials),
        "harness.csv_bytes_per_trial": _ratio(batches.counts.get("csv_bytes", 0), trials),
        "harness.ipc_bytes_per_trial": ipc[0],
        "harness.ipc_roundtrip_us": ipc[1],
        "config.load_config.us": every.mean("config.load_config", us),
        "config.trial_config_from.us": every.mean("config.trial_config_from", us),
        "dhdp.load_policy.us": every.mean("dhdp.load_policy", us),
        "dhdp.save_policy.us": every.mean("dhdp.save_policy", us),
        "cli.write_plot_data.ms": every.mean("cli.write_plot_data", ms),
    })
    for layer in ("dhdp", "plant", "fsm", "core", "harness", "config", "cli"):
        m[f"{layer}.share"] = _ratio(batches.layer_self_ns(layer), wall_ns)
    return m


PROBE_CALLS = 5


def probe_uncalled(mods: dict, records: list, every: _Sums) -> None:
    """Call each per-call-timed function the workload never called a few
    times, on the run's own records, so every per-call time is measured.

    These calls count toward per-call means only: shares, counts and the
    ratios come from the traced batches alone.
    """
    harness, plant, dhdp, cli = mods["harness"], mods["plant"], mods["dhdp"], mods["cli"]
    cfg = harness.TrialConfig()
    impedance = cfg.feature_map.reference_impedance
    probe_dir = OUT_DIR / "probe"
    probe_dir.mkdir(parents=True, exist_ok=True)
    batch = harness.BatchResult(cfg=cfg, seed=0, records=records,
                                metrics=harness.aggregate_metrics(records))
    calls = {
        "plant.feature_map_step": lambda: plant.FeatureMapPlant(
            cfg.feature_map, np.random.default_rng(0)).step(impedance),
        "plant.ode_step": lambda: plant.OdeKneePlant(cfg.ode).step(impedance),
        "harness.write_trial_csv": lambda: harness.write_trial_csv(
            records[0], probe_dir / "trial.csv"),
        "dhdp.save_policy": lambda: dhdp.save_policy(
            probe_dir / "policy.json", records[0].actors, records[0].critics),
        "dhdp.load_policy": lambda: dhdp.load_policy(workloads.POLICY_DIR / "policy_01.json"),
        "cli.write_plot_data": lambda: cli._write_plot_data(batch, probe_dir),
    }
    try:
        for name, call in calls.items():
            if every.calls(name) == 0:
                for _ in range(PROBE_CALLS):
                    call()
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)


def run_traced(wl, args, sampler) -> tuple[dict, Tally, dict]:
    import tracer

    recorder = tracer.Recorder(wl.mods)
    every, batches = _Sums(), _Sums()
    recorder.install()
    try:                                     # set-up spans count toward per-call means
        _, _, _, factor = sampler.timed(wl.prepare)
    finally:
        recorder.uninstall()
    every.add(recorder.summary(), recorder.counts, factor)
    wl.warm_up()

    tally = Tally()
    plain, traced = [], []

    def step():
        raw, wall, norm, _ = sampler.timed(wl.run)
        tally.add(wl.collect(raw))
        plain.append(norm)

        recorder.clear()
        recorder.install()
        try:
            raw, wall2, norm2, factor = sampler.timed(wl.run)
        finally:
            recorder.uninstall()
        tally.add(wl.collect(raw))
        traced.append(norm2)
        records = recorder.records
        counts = dict(recorder.counts, trials=len(records),
                      cycles=sum(r.cycles_run for r in records),
                      resets=sum(r.resets for r in records))
        summary = recorder.summary()
        every.add(summary, counts, factor)
        batches.add(summary, counts, factor)
        return wall + wall2

    _repeat(args.seconds, MIN_TRACED_PAIRS, step)

    OUT_DIR.mkdir(exist_ok=True)
    recorder.write(OUT_DIR / f"spans-{wl.name}.npz")
    records = recorder.records               # the last traced batch
    recorder.clear()
    recorder.install()
    try:
        _, _, _, factor = sampler.timed(probe_uncalled, wl.mods, records, every)
    finally:
        recorder.uninstall()
    every.add(recorder.summary(), recorder.counts, factor)
    metrics = layer_metrics(every, batches, sum(traced) * 1e9, _ipc(records))
    trials = len(tally.reference)
    metrics["run.trials_per_s"] = _median([trials / t for t in plain])
    metrics.update({f"run.{k}": v for k, v in outcome_metrics(tally.reference).items()})
    metrics["trace.overhead_s"] = _median(traced) - _median(plain)
    metrics["trace.overhead_ratio"] = _median(traced) / _median(plain) - 1.0
    return metrics, tally, {"untraced": plain, "traced": traced}


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.make(args.workload, args.seed)
    runner = run_traced if args.trace else run_untraced
    computed, tally, walls = runner(wl, args, hostspeed.Sampler())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']:>16.6g} {entry['unit']}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    full = dict(result, manifest=manifest(wl, args), batch_walls_s=walls,
                extra={k: v for k, v in computed.items() if k not in metrics})
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{wl.name}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(full, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another, in one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {name}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:36s} {entry['value']:>16.6g} {entry['unit']}")
            combined["metrics"][f"{name}/{metric}"] = entry
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "kneetrack" / "__init__.py").is_file():
        print(f"error: no kneetrack sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
