"""The benchmark's traced run wraps library attributes that must exist."""

import importlib.util
from pathlib import Path

from kneetrack import cli, config, dhdp, fsm, harness, plant
from kneetrack.fsm import ParameterRanges, PhaseRanges

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
    assert_traced_rule_calls(record, stats)

    # a trial whose damping is held at or below 1 clamps, and the tracer's
    # count of clamping apply_delta calls is the record's clamp count
    narrow = ParameterRanges(tuple(PhaseRanges(damping=(0.0, 1.0)) for _ in range(4)))
    recorder = load_tracer().Recorder(MODS)
    recorder.install()
    try:
        record = harness.run_trial(harness.TrialConfig(max_cycles=15, ranges=narrow), 3)
    finally:
        recorder.uninstall()
    assert record.clamp_events > 0
    assert recorder.counts["clamps"] == record.clamp_events
    assert_traced_rule_calls(record, recorder.summary()["stats"])


def assert_traced_rule_calls(record, stats):
    """Each learning cycle calls every traced rule once, the critic's twice
    where it had a lag, and apply_delta once per phase."""
    learning = ~record.log["reset"]
    cycles = record.column("cycle")
    learned = len(set(cycles[learning].tolist()))
    lagged = len(set(cycles[learning & record.log["lagged"]].tolist()))
    assert 0 < lagged < learned
    for name in ("actor_eval", "stage_cost", "stability_monitor", "actor_update"):
        assert stats[f"dhdp.{name}"]["calls"] == learned, name
    assert stats["dhdp.critic_eval"]["calls"] == learned + lagged
    assert stats["dhdp.critic_update"]["calls"] == lagged
    assert stats["fsm.apply_delta"]["calls"] == 4 * learned


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


def test_traced_ode_trial_runs_through_the_plant_hooks():
    # the torque-law knee's cycles pass the ODE hook, which reads the
    # durations of the GaitProfile a step returns; the initial draw probes
    # its candidates a chunk per steady_profile call, past OdeKneePlant.step
    recorder = load_tracer().Recorder(MODS)
    recorder.install()
    try:
        record = harness.run_trial(harness.TrialConfig(plant_kind="ode", max_cycles=15), 3)
    finally:
        recorder.uninstall()
    assert record.cycles_run > 0 and recorder.records == [record]
    summary = recorder.summary()
    stats, linked = summary["stats"], summary["linked"]
    # three steps probe the reference impedance for the target, one walks each cycle
    assert linked["ode_probe_steps"] == harness.STEADY_CYCLES
    assert stats["plant.ode_step"]["calls"] == harness.STEADY_CYCLES + record.cycles_run
    assert recorder.counts["step_fsm"] > 0
    assert stats["harness.draw_initial_impedance"]["calls"] == 1
    assert linked["initial_draw_profiles"] >= 1
    assert stats["harness.steady_profile"]["calls"] == 1 + linked["initial_draw_profiles"]


def test_traced_scenario2_trial_probes_and_targets_only_what_it_uses():
    # the s23-events path: a terrain trial's targets are recomputed only when
    # its terrain opens, and its program probes the plant for its pool alone
    cfg = harness.TrialConfig(scenario=2, max_cycles=60)
    recorder = load_tracer().Recorder(MODS)
    recorder.install()
    try:
        record = harness.run_trial(cfg, 3)
    finally:
        recorder.uninstall()
    assert record.cycles_run > 0 and recorder.records == [record]
    summary = recorder.summary()
    stats, linked = summary["stats"], summary["linked"]
    assert_traced_rule_calls(record, stats)
    # one target for the initial draw, then one for each segment
    assert stats["plant.target_for"]["calls"] == 1 + len(record.segments)
    # one probe per pool member and per initial draw, none of the unused reference
    assert stats["harness.build_profile_pool"]["calls"] == 1
    assert stats["harness.steady_profile"]["calls"] == (
        cfg.pool_size + linked["initial_draw_profiles"])
