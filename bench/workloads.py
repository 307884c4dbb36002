"""The four benchmark workloads: set-up, one timed batch, and the output check.

Every workload is a closed loop with one client: trials run serially in
this process (jobs = 1, no worker pool) and the next trial starts only when
the previous one has finished.  All library calls go through module
attributes (``harness.run_trial``, ``cli.main``, ...) so that the traced
run's wrappers, installed on those attributes, see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
POLICY_DIR = BENCH_DIR / "data" / "policies"
OUT_DIR = BENCH_DIR / "out"

# Workload sizes.  A batch is the unit that is timed and repeated; its
# trials are fixed by the seed, so repeats must give identical digests.
S1_TRAIN_TRIALS = 30            # the CLI's default batch, not set here
S1_TEST_TRIALS_PER_POLICY = 6   # 10 stored policies -> 60 trials per batch
S23_TRIALS = 6                  # per scenario -> 12 trials per batch
# The initial-draw loop's cost varies about 85% from trial to trial, so the
# batch needs many trials for cycles_per_s to be steady across seeds: at
# 100 cycles and 30 trials it spread 17%, at 300 cycles and 16 trials 9 to
# 18%.  At 300 cycles the loop is about a third of the time.
ODE_TRIALS = 32
ODE_MAX_CYCLES = 300
POLICY_COUNT = 10

# The only endings a trial may have.  numeric-fault and plant-instability
# (and anything else) count as failed operations; max-cycles is a result
# of the science and shows in success_rate.
KNOWN_ENDINGS = {("success", None), ("failure", "max-cycles")}


def import_kneetrack():
    """Import the library from this checkout's ``src`` and return its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kneetrack
    from kneetrack import cli, config, dhdp, fsm, harness, plant

    origin = Path(kneetrack.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"kneetrack was imported from {origin}, not from {SRC}")
    return {"kneetrack": kneetrack, "cli": cli, "config": config, "dhdp": dhdp,
            "fsm": fsm, "harness": harness, "plant": plant}


def _finite(value) -> bool:
    if value is None:
        return True
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    return math.isfinite(value)


def trial_ok(outcome: dict) -> bool:
    """The output check for one trial."""
    return (
        (outcome["outcome"], outcome["failure_reason"]) in KNOWN_ENDINGS
        and outcome["rms_initial"] is not None
        and _finite(outcome["rms_initial"])
        and _finite(outcome["rms_final"])
        and outcome["weights_finite"]
    )


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else
                 json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _record_outcome(rec) -> dict:
    nets = list(rec.actors) + list(rec.critics)
    return {
        "outcome": rec.outcome,
        "failure_reason": rec.failure_reason,
        "tuning_steps": rec.tuning_steps,
        "cycles_run": rec.cycles_run,
        "resets": rec.resets,
        "clamp_events": rec.clamp_events,
        "monitor_violations": rec.monitor_violations,
        "rms_initial": rec.rms_initial,
        "rms_final": rec.rms_final,
        "weights_finite": bool(nets) and all(
            bool(np.all(np.isfinite(n.w_hidden))) and bool(np.all(np.isfinite(n.w_out)))
            for n in nets),
    }


def _raised(exc: BaseException) -> dict:
    return {"outcome": "raised", "failure_reason": f"{type(exc).__name__}: {exc}",
            "tuning_steps": None, "cycles_run": 0, "resets": 0, "clamp_events": 0,
            "monitor_violations": 0, "rms_initial": None, "rms_final": None,
            "weights_finite": False}


class Workload:
    """One workload: ``prepare`` is set-up, ``run`` is timed, ``collect`` checks.

    ``collect`` turns what ``run`` returned into one outcome dict per
    trial, each with a ``digest`` that must repeat exactly when the batch
    is run again in the same process.
    """

    name = ""

    def __init__(self, seed: int, mods: dict):
        self.seed = seed
        self.mods = mods

    def sizes(self) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work through the same library paths as the batch."""
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def collect(self, raw) -> list[dict]:
        outcomes = []
        for item in raw:
            out = item if isinstance(item, dict) else _record_outcome(item)
            out["digest"] = _digest(out)
            outcomes.append(out)
        return outcomes

    def _config(self, overrides: dict):
        config = self.mods["config"]
        return config.trial_config_from(config.load_config(None, overrides))

    def _trials(self, cfg, seeds) -> list:
        run_trial = self.mods["harness"].run_trial
        results = []
        for s in seeds:
            try:
                results.append(run_trial(cfg, s))
            except Exception as exc:  # a raised trial is a failed operation
                print(f"trial seed {s} raised: {exc!r}", file=sys.stderr)
                results.append(_raised(exc))
        return results


class S1TrainCli(Workload):
    name = "s1-train-cli"

    def sizes(self):
        return {"trials": S1_TRAIN_TRIALS, "cli_seed": self.seed}

    def prepare(self):
        self.out = OUT_DIR / f"work-{self.name}"
        shutil.rmtree(self.out, ignore_errors=True)
        self._config({"scenario": 1, "stage": "training", "seed": self.seed})

    def warm_up(self):
        # A whole batch: the first CLI batch in a process ran about 15%
        # slower than the next ones, and one trial did not take that away.
        self.collect(self.run())

    def run(self):
        argv = ["run", "--scenario", "1", "--stage", "training",
                "--seed", str(self.seed), "--out", str(self.out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.mods["cli"].main(argv)
        return code, stdout.getvalue()

    def collect(self, raw):
        try:
            return self._check_files(*raw)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def _check_files(self, code, stdout):
        files = sorted(self.out.rglob("*.json")) + sorted(self.out.rglob("*.csv"))
        trial_docs = sorted(self.out.glob("trials/trial_*.json"))
        if code != 0 or len(trial_docs) != S1_TRAIN_TRIALS:
            err = RuntimeError(f"kneetrack run exited {code} with {len(trial_docs)} trials")
            return [dict(_raised(err), digest="") for _ in range(S1_TRAIN_TRIALS)]

        # batch-level files: config, summary, plots and the saved policies
        batch_files = [f for f in files if f.parent.name != "trials"]
        batch_digest = _digest(stdout, *[(str(f.relative_to(self.out)), f.read_bytes().hex())
                                         for f in batch_files])
        policies_finite = all(
            _finite(v) for f in self.out.glob("policies/*.json")
            for phase in json.loads(f.read_text())["phases"]
            for matrix in phase.values() if isinstance(matrix, dict)
            for v in matrix["data"])

        outcomes = []
        for doc_path in trial_docs:
            doc = json.loads(doc_path.read_text())
            out = {key: doc[key] for key in (
                "outcome", "failure_reason", "tuning_steps", "cycles_run", "resets",
                "clamp_events", "monitor_violations", "rms_initial", "rms_final")}
            out["weights_finite"] = (policies_finite
                                     and math.isfinite(doc["max_weight_ratio"]))
            csv_bytes = doc_path.with_suffix(".csv").read_bytes()
            out["digest"] = _digest(out, doc_path.read_bytes(), csv_bytes, batch_digest)
            outcomes.append(out)
        return outcomes


class S1Test(Workload):
    name = "s1-test"

    def sizes(self):
        return {"policies": POLICY_COUNT, "trials_per_policy": S1_TEST_TRIALS_PER_POLICY,
                "trials": POLICY_COUNT * S1_TEST_TRIALS_PER_POLICY}

    def prepare(self):
        self.cfg = self._config({"scenario": 1, "stage": "testing"})
        paths = sorted(POLICY_DIR.glob("policy_*.json"))
        if len(paths) != POLICY_COUNT:
            raise RuntimeError(f"expected {POLICY_COUNT} policies in {POLICY_DIR}, "
                               f"found {len(paths)}")
        load_policy = self.mods["dhdp"].load_policy
        self.policies = [
            load_policy(p, expect_actor_hidden=self.cfg.dhdp.actor_hidden,
                        expect_critic_hidden=self.cfg.dhdp.critic_hidden)
            for p in paths]

    def warm_up(self):
        self.mods["harness"].run_trial(self.cfg, self.seed, policy=self.policies[0])

    def run(self):
        try:
            batch = self.mods["harness"].run_testing_batch(
                self.cfg, self.seed, self.policies,
                trials_per_policy=S1_TEST_TRIALS_PER_POLICY, jobs=1)
        except Exception as exc:  # the batch raised: every trial in it failed
            print(f"testing batch raised: {exc!r}", file=sys.stderr)
            return [_raised(exc) for _ in range(self.sizes()["trials"])]
        return batch.records


class S23Events(Workload):
    name = "s23-events"

    def sizes(self):
        return {"scenario2_trials": S23_TRIALS, "scenario3_trials": S23_TRIALS,
                "trial_seeds": [self.seed * 1000, self.seed * 1000 + S23_TRIALS - 1]}

    def prepare(self):
        self.cfg2 = self._config({"scenario": 2, "stage": "training"})
        self.cfg3 = self._config({"scenario": 3, "stage": "training"})

    def warm_up(self):
        self._trials(self.cfg2, [self.seed])

    def run(self):
        seeds = range(self.seed * 1000, self.seed * 1000 + S23_TRIALS)
        return self._trials(self.cfg2, seeds) + self._trials(self.cfg3, seeds)


class OdeKnee(Workload):
    name = "ode-knee"

    def sizes(self):
        return {"trials": ODE_TRIALS, "max_cycles": ODE_MAX_CYCLES,
                "trial_seeds": [self.seed * 1000, self.seed * 1000 + ODE_TRIALS - 1]}

    def prepare(self):
        self.cfg = self._config({"scenario": 1, "stage": "training", "plant": "ode",
                                 "max_cycles": ODE_MAX_CYCLES})

    def warm_up(self):
        self._trials(self.cfg, [self.seed])

    def run(self):
        return self._trials(self.cfg, range(self.seed * 1000, self.seed * 1000 + ODE_TRIALS))


WORKLOADS = {w.name: w for w in (S1TrainCli, S1Test, S23Events, OdeKnee)}


def make(name: str, seed: int) -> Workload:
    """Import the library and build a workload, without running its set-up."""
    mods = import_kneetrack()
    return WORKLOADS[name](seed, mods)
