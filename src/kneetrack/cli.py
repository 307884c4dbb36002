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
A refusal is one ``error:`` line on stderr and exits 2 for a config, or 1
for a policy snapshot, a failed batch, a file that cannot be read or
written, a report directory with no readable trial summary, or a size
that cannot be allocated.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import pickle
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

from .config import ConfigError, load_trial_config
from .config import load_config, trial_config_from  # noqa: F401 (bench/tracer.py wraps them)
from .dhdp import PolicyFormatError, load_policy, save_policy
from .harness import (
    BatchResult,
    Metrics,
    TrialRecord,
    aggregate_metrics,
    run_testing_batch,
    run_training_batch,
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


def _write_trial(trials_dir: Path, index: int, summary: dict, log: dict) -> None:
    """Trial ``index``'s CSV log and JSON summary."""
    path = trials_dir / f"trial_{index:03d}"
    write_trial_csv(TrialRecord(summary["scenario"], summary["stage"], log=log),
                    path.with_suffix(".csv"))
    write_json(summary, path.with_suffix(".json"))


def _writer_child(read_fd: int, report_fd: int, trials_dir: Path, inherited: list[int]) -> None:
    """A forked writer: close the ``inherited`` pipe ends of the writers before it,
    then write every (index, summary, log) read from ``read_fd`` until EOF.  After
    a refusal it drains the pipe, so the run never blocks on it, and sends the
    refusal's message on ``report_fd``.  Leaves by ``os._exit``."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(read_fd, "rb") as pipe:
            try:
                while True:
                    try:
                        item = pickle.load(pipe)
                    except EOFError:
                        break
                    _write_trial(trials_dir, *item)
                code = 0
            except BaseException as exc:
                os.write(report_fd, (str(exc) or repr(exc)).encode())
                while pipe.read(1 << 16):
                    pass
    finally:
        os._exit(code)


@contextlib.contextmanager
def _trial_writers(trials_dir: Path, trials: int):
    """Yield ``write(index, summary, log)``, which sees trial ``index``'s files written.

    With W CPUs this process may run on (1 off Linux), it forks
    min(W - 1, ``trials``) writer children before the batch and hands trial i
    to child i mod (W - 1) through a pipe, pickled; with one CPU it writes
    each trial itself.  ``trials_dir`` is made by the first ``write``.  On
    exit every pipe is closed and every child reaped; a child's refusal is
    then raised as an ``OSError`` with its message, unless the block raised.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    children = []  # (pid, pipe to the child, read end of its report pipe)
    try:
        for _ in range(min(cpus - 1, trials)):
            read_fd, write_fd = os.pipe()
            report_read, report_write = os.pipe()
            import fcntl  # only Linux reaches here: sched_getaffinity is Linux's
            try:
                # the default 64 KiB holds less than one trial's log, so the
                # batch would wait on a child that is still writing a CSV
                fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
            except OSError:
                pass
            with warnings.catch_warnings():
                # Python 3.12+ warns that forking a multi-threaded process (numpy's
                # BLAS threads) may deadlock the child; this child calls no BLAS,
                # takes no lock another thread could hold, and leaves by os._exit
                warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                        DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _writer_child(read_fd, report_write, trials_dir, [
                    write_fd, report_read,
                    *(fd for _, pipe, report in children for fd in (pipe.fileno(), report))])
            os.close(read_fd)
            os.close(report_write)
            children.append((pid, open(write_fd, "wb"), report_read))

        def write(index: int, summary: dict, log: dict) -> None:
            trials_dir.mkdir(parents=True, exist_ok=True)
            if not children:
                _write_trial(trials_dir, index, summary, log)
                return
            pipe = children[index % len(children)][1]
            pickle.dump((index, summary, log), pipe, protocol=pickle.HIGHEST_PROTOCOL)
            pipe.flush()

        yield write
    finally:
        refusals = []
        for pid, pipe, report_read in children:
            try:
                pipe.close()
            except OSError:  # a child that died took the rest of its share with it
                pass
        for pid, pipe, report_read in children:
            with open(report_read, "rb") as report:
                message = report.read().decode(errors="replace")
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status != 0:
                refusals.append(message or f"trial writer {pid} ended with status {status}")
    if refusals:
        raise OSError(refusals[0])


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
    resolved, cfg = load_trial_config(args.config, overrides)
    if cfg.stage == "testing" and not resolved["policy_dir"]:
        raise ConfigError("policy_dir: the testing stage needs one in the config")

    seed = int(resolved["seed"])
    outdir = Path(resolved["out_dir"])
    if cfg.stage == "training":
        trials = int(resolved["trials"])
    else:
        policies = _load_policies(Path(resolved["policy_dir"]), cfg)
        per_policy = int(resolved["trials_per_policy"])
        trials = len(policies) * per_policy
    summaries: list[dict | None] = [None] * trials

    with _trial_writers(outdir / "trials", trials) as write:
        def on_leave(index: int, record: TrialRecord) -> None:
            # a trial's files are written as it leaves, and only trial 0's log,
            # which the plots read, is kept
            policy = None if cfg.stage == "training" else index // per_policy
            summaries[index] = trial_summary(record, index, policy)
            write(index, summaries[index], record.log)
            if index:
                record.log = {}

        if cfg.stage == "training":
            batch = run_training_batch(cfg, seed, trials=trials,
                                       keep_policies=int(resolved["keep_policies"]),
                                       on_leave=on_leave)
        else:
            batch = run_testing_batch(cfg, seed, policies, trials_per_policy=per_policy,
                                      on_leave=on_leave)
        write_json(resolved, outdir / "config.json")
        if cfg.stage == "training":
            (outdir / "policies").mkdir(exist_ok=True)
        for n, trial_idx in enumerate(batch.policy_trials, start=1):
            rec = batch.records[trial_idx]
            save_policy(outdir / "policies" / f"policy_{n:02d}.json", rec.actors, rec.critics)
        write_json(batch_summary(batch, summaries), outdir / "summary.json")
        _write_plot_data(batch, outdir)

    m = batch.metrics
    steps = "n/a" if m.tuning_steps_mean is None else f"{m.tuning_steps_mean:.1f}"
    print(f"scenario {cfg.scenario} {cfg.stage}: {m.successes}/{m.trials} succeeded, "
          f"mean tuning steps {steps}, monitor violations {m.monitor_violations}")
    return 0


def cmd_save_policy(args) -> int:
    actors, critics = load_policy(args.source)
    save_policy(args.dest, actors, critics)
    print(f"saved policy snapshot to {args.dest}")
    return 0


def cmd_load_policy(args) -> int:
    expect_actor = expect_critic = None
    if args.config is not None:
        _, cfg = load_trial_config(args.config)
        expect_actor = cfg.dhdp.actor_hidden
        expect_critic = cfg.dhdp.critic_hidden
    actors, critics = load_policy(args.snapshot, expect_actor_hidden=expect_actor,
                                  expect_critic_hidden=expect_critic)
    kinds = "actor+critic" if critics is not None else "actor-only"
    print(f"{args.snapshot}: valid {kinds} snapshot, "
          f"actor hidden {actors[0].hidden_size}")
    return 0


def trial_summary(record: TrialRecord, index: int, policy_index: int | None = None) -> dict:
    """A trial's JSON document: its record's fields less the log (the CSV) and the nets."""
    summary = {f.name: getattr(record, f.name) for f in fields(record)
               if f.name not in ("log", "actors", "critics")}
    summary["converged_at"] = {str(p): c for p, c in sorted(record.converged_at.items())}
    summary["schema"] = "kneetrack-trial"
    summary["trial"] = index
    if policy_index is not None:
        summary["policy"] = policy_index
    return summary


def write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def batch_summary(batch: BatchResult, trials_meta: list[dict]) -> dict:
    """A batch's JSON document: its metrics' fields, the success rate and the batch's setting."""
    return asdict(batch.metrics) | {
        "success_rate": batch.metrics.success_rate,
        "schema": "kneetrack-batch",
        "scenario": batch.cfg.scenario,
        "stage": batch.cfg.stage,
        "plant": batch.cfg.plant_kind,
        "seed": batch.seed,
        "policy_trials": batch.policy_trials,
        "trial_summaries": trials_meta,
    }


def _rms_ok(value) -> bool:
    """Whether ``value`` is None or an RMS object of non-negative numbers a double holds."""
    return value is None or type(value) is dict and all(
        type(value.get(key)) in (int, float) and 0.0 <= value[key] <= sys.float_info.max
        for key in ("peak_rad", "duration_pct"))


# The trial-summary fields ``report`` reads and the values each may hold;
# types match exactly, so a boolean is not taken for a number.
_SUMMARY_FIELDS = {
    "scenario": lambda value: type(value) is int and value in (1, 2, 3),
    "stage": lambda value: value in ("training", "testing"),
    "outcome": lambda value: value in ("success", "failure"),
    "tuning_steps": lambda value: value is None or (
        type(value) is int and 0 <= value <= sys.float_info.max),
    "rms_initial": _rms_ok,
    "rms_final": _rms_ok,
}


def cmd_report(args) -> int:
    directory = Path(args.directory)
    trial_files = sorted(directory.rglob("trial_*.json"))
    if not trial_files:
        raise FileNotFoundError(f"no trial summaries under {directory}")

    records: dict[tuple, list[TrialRecord]] = {}
    skipped = 0
    for path in trial_files:
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(doc, dict):
                raise ValueError("top level is not a JSON object")
            if doc.get("schema") != "kneetrack-trial":
                continue
            read = {key: doc.get(key) if key.startswith("rms_") else doc[key]
                    for key in _SUMMARY_FIELDS}
            for key, value in read.items():
                if not _SUMMARY_FIELDS[key](value):
                    raise ValueError(f"{key}: unexpected value {value!r}")
            if (read["outcome"] == "success") != (read["tuning_steps"] is not None):
                raise ValueError(f"tuning_steps: {read['tuning_steps']!r} "
                                 f"with outcome {read['outcome']!r}")
            record = TrialRecord(**read)
        except (OSError, ValueError, KeyError) as exc:  # a decode error is a ValueError
            print(f"warning: skipping malformed {path}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        records.setdefault((record.scenario, record.stage), []).append(record)

    if not records:
        raise OSError(f"no readable trial summaries under {directory}")

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
    """Run a subcommand; the one place its refusals become an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PolicyFormatError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
