"""The benchmark's traced run wraps library attributes that must exist."""

import importlib.util
from pathlib import Path

from kneetrack import cli, config, dhdp, fsm, harness, plant

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
MODS = {"cli": cli, "config": config, "dhdp": dhdp, "fsm": fsm,
        "harness": harness, "plant": plant}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_are_attributes_of_their_owners():
    # bench/tracer.py patches each (owner, attribute) in place; a renamed or
    # moved name would otherwise surface only when `bench/run.py --trace 1` runs
    targets = load_tracer()._targets(MODS)
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets
               if attr not in vars(owner)]
    assert missing == []


def test_traced_trial_runs_through_the_result_hooks():
    # the hooks read what the wrapped calls return (MonitorReport.ok as a
    # bool, apply_delta's clamp flag); a changed return type breaks them
    recorder = load_tracer().Recorder(MODS)
    recorder.install()
    try:
        record = harness.run_trial(harness.TrialConfig(max_cycles=15), 3)
    finally:
        recorder.uninstall()
    assert record.cycles_run > 0 and recorder.records == [record]
    learning_cycles = set(record.column("cycle")[~record.log["reset"]].tolist())
    stats = recorder.summary()["stats"]
    assert stats["dhdp.stability_monitor"]["calls"] == len(learning_cycles)
    assert stats["fsm.apply_delta"]["calls"] == 4 * len(learning_cycles)
    assert recorder.counts["clamps"] == record.clamp_events


def test_traced_batch_hands_every_record_to_the_tracer():
    # a lockstep batch's records come out of run_trial, where the traced run
    # collects the records it counts trials, cycles and resets from
    recorder = load_tracer().Recorder(MODS)
    recorder.install()
    try:
        batch = harness.run_training_batch(harness.TrialConfig(max_cycles=15), 3, trials=3)
    finally:
        recorder.uninstall()
    assert [id(r) for r in recorder.records] == [id(r) for r in batch.records]


def test_testing_batch_takes_the_benchmarks_call():
    # the s1-test workload calls run_testing_batch with jobs=1 on its stored
    # policies; a changed signature would otherwise surface only in a bench run
    cfg = harness.TrialConfig(stage="testing", max_cycles=15)
    path = sorted((BENCH / "data" / "policies").glob("policy_*.json"))[0]
    policies = [dhdp.load_policy(path, expect_actor_hidden=cfg.dhdp.actor_hidden,
                                 expect_critic_hidden=cfg.dhdp.critic_hidden)]
    batch = harness.run_testing_batch(cfg, 3, policies, trials_per_policy=1, jobs=1)
    assert len(batch.records) == 1 and batch.policy_index == [0]
