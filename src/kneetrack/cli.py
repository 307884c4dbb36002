"""Command-line front end: run batches, manage policy snapshots, report.

Subcommands:

* ``run`` executes the configured scenario batch and writes per-trial CSV
  logs, JSON summaries, plot-ready data files and (while training) policy
  snapshots to the output directory.
* ``save-policy`` validates a snapshot and rewrites it canonically.
* ``load-policy`` validates a snapshot, optionally against expected
  network sizes from a config file.
* ``report`` aggregates a directory of trial summaries into a results
  table and RMS bar data.

Every flag has a config-file equivalent; flags win over file values.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .config import ConfigError, load_trial_config
from .config import load_config, trial_config_from  # noqa: F401 (bench/tracer.py wraps them)
from .dhdp import PolicyFormatError, load_policy, save_policy
from .harness import (
    BatchResult,
    Metrics,
    TrialRecord,
    aggregate_metrics,
    batch_summary,
    run_testing_batch,
    run_training_batch,
    trial_summary,
    write_json,
    write_trial_csv,
)


def _write_rms_csv(path: Path, groups: list[tuple[int, str, Metrics]]) -> None:
    """Initial and final RMS rows, two per (scenario, stage, metrics) group."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "stage", "metric", "initial", "final"])
        for scenario, stage, m in groups:
            initial = m.rms_initial or {}
            final = m.rms_final or {}
            for metric, key in (("peak_angle_rad", "peak_rad"),
                                ("duration_pct", "duration_pct")):
                writer.writerow([scenario, stage, metric, initial.get(key), final.get(key)])


def _write_plot_data(batch: BatchResult, outdir: Path) -> None:
    plots = outdir / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    record = batch.records[0]
    tolerance = batch.cfg.bounds.tolerance
    phases = record.column("phase")
    for phase in range(1, 5):
        rows = phases == phase
        tol = tolerance[phase - 1]
        with open(plots / f"tracking_error_phase{phase}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cycle", "d_peak_rad", "d_duration_pct",
                             "tol_angle_rad", "tol_duration_pct"])
            for values in zip(*(record.column(name)[rows].tolist()
                                for name in ("cycle", "d_peak_rad", "d_duration_pct"))):
                writer.writerow([*values, tol.angle, tol.duration_pct])

    _write_rms_csv(plots / "rms_summary.csv",
                   [(batch.cfg.scenario, batch.cfg.stage, batch.metrics)])


def _load_policies(policy_dir: Path, cfg):
    paths = sorted(policy_dir.glob("policy_*.json"))
    if not paths:
        raise PolicyFormatError(f"no policy snapshots found in {policy_dir}")
    return [
        load_policy(p, expect_actor_hidden=cfg.dhdp.actor_hidden,
                    expect_critic_hidden=cfg.dhdp.critic_hidden)
        for p in paths
    ]


def cmd_run(args) -> int:
    overrides = {
        "scenario": args.scenario,
        "stage": args.stage,
        "plant": args.plant,
        "seed": args.seed,
        "out_dir": None if args.out is None else str(args.out),
        "strict_monitor": True if args.strict_monitor else None,
    }
    try:
        resolved, cfg = load_trial_config(args.config, overrides)
        if cfg.stage == "testing" and not resolved["policy_dir"]:
            raise ConfigError("policy_dir: the testing stage needs one in the config")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    seed = int(resolved["seed"])
    outdir = Path(resolved["out_dir"])
    trials_dir = outdir / "trials"
    try:
        if cfg.stage == "training":
            batch = run_training_batch(cfg, seed, trials=int(resolved["trials"]),
                                       keep_policies=int(resolved["keep_policies"]))
        else:
            policies = _load_policies(Path(resolved["policy_dir"]), cfg)
            batch = run_testing_batch(cfg, seed, policies,
                                      trials_per_policy=int(resolved["trials_per_policy"]))
        # the output directory is made only for a batch that ran
        trials_dir.mkdir(parents=True, exist_ok=True)
        write_json(resolved, outdir / "config.json")
        if cfg.stage == "training":
            (outdir / "policies").mkdir(exist_ok=True)
        for n, trial_idx in enumerate(batch.policy_trials, start=1):
            rec = batch.records[trial_idx]
            save_policy(outdir / "policies" / f"policy_{n:02d}.json", rec.actors, rec.critics)
    except (PolicyFormatError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    trials_meta = []
    for i, rec in enumerate(batch.records):
        write_trial_csv(rec, trials_dir / f"trial_{i:03d}.csv")
        p_idx = batch.policy_index[i] if batch.policy_index else None
        summary = trial_summary(rec, i, p_idx)
        write_json(summary, trials_dir / f"trial_{i:03d}.json")
        trials_meta.append(summary)
    write_json(batch_summary(batch, trials_meta), outdir / "summary.json")
    _write_plot_data(batch, outdir)

    m = batch.metrics
    steps = "n/a" if m.tuning_steps_mean is None else f"{m.tuning_steps_mean:.1f}"
    print(f"scenario {cfg.scenario} {cfg.stage}: {m.successes}/{m.trials} succeeded, "
          f"mean tuning steps {steps}, monitor violations {m.monitor_violations}")
    return 0


def cmd_save_policy(args) -> int:
    try:
        actors, critics = load_policy(args.source)
        save_policy(args.dest, actors, critics)
    except PolicyFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"saved policy snapshot to {args.dest}")
    return 0


def cmd_load_policy(args) -> int:
    expect_actor = expect_critic = None
    if args.config is not None:
        try:
            _, cfg = load_trial_config(args.config)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        expect_actor = cfg.dhdp.actor_hidden
        expect_critic = cfg.dhdp.critic_hidden
    try:
        actors, critics = load_policy(args.snapshot, expect_actor_hidden=expect_actor,
                                      expect_critic_hidden=expect_critic)
    except PolicyFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    kinds = "actor+critic" if critics is not None else "actor-only"
    print(f"{args.snapshot}: valid {kinds} snapshot, "
          f"actor hidden {actors[0].hidden_size}")
    return 0


def _rms_ok(value) -> bool:
    """Whether ``value`` is None or an RMS object of finite, non-negative numbers."""
    return value is None or type(value) is dict and all(
        type(value.get(key)) in (int, float) and 0.0 <= value[key] < math.inf
        for key in ("peak_rad", "duration_pct"))


# The trial-summary fields ``report`` reads and the values each may hold;
# types match exactly, so a boolean is not taken for a number.
_SUMMARY_FIELDS = {
    "scenario": lambda value: type(value) is int and value in (1, 2, 3),
    "stage": lambda value: value in ("training", "testing"),
    "outcome": lambda value: value in ("success", "failure"),
    "tuning_steps": lambda value: value is None or type(value) is int and value >= 0,
    "rms_initial": _rms_ok,
    "rms_final": _rms_ok,
}


def cmd_report(args) -> int:
    directory = Path(args.directory)
    trial_files = sorted(directory.rglob("trial_*.json"))
    if not trial_files:
        print(f"error: no trial summaries under {directory}", file=sys.stderr)
        return 1

    records: dict[tuple, list[TrialRecord]] = {}
    skipped = 0
    for path in trial_files:
        try:
            doc = json.loads(path.read_text())
            if not isinstance(doc, dict):
                raise ValueError("top level is not a JSON object")
            if doc.get("schema") != "kneetrack-trial":
                continue
            fields = {key: doc.get(key) if key.startswith("rms_") else doc[key]
                      for key in _SUMMARY_FIELDS}
            for key, value in fields.items():
                if not _SUMMARY_FIELDS[key](value):
                    raise ValueError(f"{key}: unexpected value {value!r}")
            if (fields["outcome"] == "success") != (fields["tuning_steps"] is not None):
                raise ValueError(f"tuning_steps: {fields['tuning_steps']!r} "
                                 f"with outcome {fields['outcome']!r}")
            record = TrialRecord(**fields)
        except (ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
            print(f"warning: skipping malformed {path}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        records.setdefault((record.scenario, record.stage), []).append(record)

    if not records:
        print(f"error: no readable trial summaries under {directory}", file=sys.stderr)
        return 1

    groups = [(scenario, stage, aggregate_metrics(recs))
              for (scenario, stage), recs in sorted(records.items())]
    table = [{
        "scenario": scenario,
        "stage": stage,
        "trials": m.trials,
        "success_rate": m.success_rate,
        "tuning_steps_mean": m.tuning_steps_mean,
        "tuning_steps_std": m.tuning_steps_std,
    } for scenario, stage, m in groups]

    report = {"schema": "kneetrack-report", "skipped_files": skipped, "results": table}
    out_dir = Path(args.out) if args.out else directory
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(report, out_dir / "report.json")
    _write_rms_csv(out_dir / "report_rms.csv", groups)

    for entry in table:
        steps = ("n/a" if entry["tuning_steps_mean"] is None
                 else f"{entry['tuning_steps_mean']:.2f}+-{entry['tuning_steps_std']:.2f}")
        print(f"scenario {entry['scenario']} {entry['stage']}: "
              f"success rate {entry['success_rate']:.2f}, steps {steps}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kneetrack",
        description="Tune robotic-knee impedance online to track intact-knee gait features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario batch")
    run_p.add_argument("--config", type=Path, help="JSON config file")
    run_p.add_argument("--scenario", type=int, choices=(1, 2, 3))
    run_p.add_argument("--stage", choices=("training", "testing"))
    run_p.add_argument("--plant", choices=("feature-map", "ode"))
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--strict-monitor", action="store_true", default=False,
                       help="halt a trial when a learning rate exceeds its ceiling")
    run_p.add_argument("--out", type=Path, help="output directory")
    run_p.set_defaults(func=cmd_run)

    save_p = sub.add_parser("save-policy", help="validate and rewrite a policy snapshot")
    save_p.add_argument("source", type=Path)
    save_p.add_argument("dest", type=Path)
    save_p.set_defaults(func=cmd_save_policy)

    load_p = sub.add_parser("load-policy", help="validate a policy snapshot")
    load_p.add_argument("snapshot", type=Path)
    load_p.add_argument("--config", type=Path,
                        help="check shapes against this config's network sizes")
    load_p.set_defaults(func=cmd_load_policy)

    report_p = sub.add_parser("report", help="aggregate trial summaries in a directory")
    report_p.add_argument("directory", type=Path)
    report_p.add_argument("--out", type=Path, help="where to write report files")
    report_p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
