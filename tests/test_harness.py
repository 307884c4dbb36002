"""Trial loop, safety semantics, convergence, metrics and logs."""

import copy
import csv
import itertools
import json
import os
import pickle
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import _fmt
from kneetrack import harness
from kneetrack.cli import batch_summary, trial_summary
from kneetrack.core import KNEE_ANGLE_MAX, BoundsTable
from kneetrack.dhdp import init_actor
from kneetrack.harness import (
    CSV_COLUMNS,
    DhdpConfig,
    Trial,
    TrialConfig,
    TrialRecord,
    aggregate_metrics,
    compute_rms,
    draw_initial_impedance,
    make_plant,
    make_target_program,
    run_testing_batch,
    run_training_batch,
    run_trial,
    safety_check,
    scaled_impedance,
    write_trial_csv,
)
from kneetrack.plant import (
    FeatureMapConfig,
    OdeKneeConfig,
    PlantInstabilityError,
    TargetProgram,
    alignment_errors,
    profile_to_array,
)

GOLDEN = Path(__file__).parent / "golden"
REGEN = os.environ.get("KNEETRACK_REGEN_GOLDEN") == "1"


def quiet_feature_map(**kwargs) -> FeatureMapConfig:
    base = FeatureMapConfig.default()
    fields = dict(
        reference_impedance=base.reference_impedance,
        reference_features=base.reference_features,
        sensitivity=base.sensitivity,
        smoothing=base.smoothing,
        noise_std=(0.0, 0.0),
    )
    fields.update(kwargs)
    return FeatureMapConfig(**fields)


def shifted_profile(base, d_duration=0.0, d_peak=0.0):
    return profile_to_array(base) + [d_duration, d_peak]


# ---------------------------------------------------------------------------
# safety check


def test_safety_check_all_zero_ok():
    errs = np.zeros((4, 2))
    assert safety_check(errs, BoundsTable.default(), 1.2)


def test_safety_check_phase1_angle_violation():
    errs = np.zeros((4, 2))
    errs[0] = (0.0, 0.20)
    assert not safety_check(errs, BoundsTable.default(), 1.2)


def test_safety_check_phase2_duration_within():
    # 11% duration error on phase 2 stays under the 12% safety bound
    errs = np.zeros((4, 2))
    errs[1] = (0.11, 0.05)
    assert safety_check(errs, BoundsTable.default(), 1.0)
    errs[1] = (0.13, 0.05)
    assert not safety_check(errs, BoundsTable.default(), 1.0)


# ---------------------------------------------------------------------------
# convergence quota


def test_convergence_ten_consecutive():
    assert oracles.convergence_check([True] * 10) == 7  # 8 of the quota reached first


def test_convergence_eight_of_ten_pattern():
    pattern = [True, True, True, True, False, True, True, True, False, True]
    assert oracles.convergence_check(pattern) == 9


def test_convergence_seven_of_ten_never():
    pattern = ([True] * 7 + [False] * 3) * 20
    assert oracles.convergence_check(pattern) is None


def test_convergence_matches_trial_flag_logic():
    # a trial latches each phase's convergence in the cycle the sliding-window
    # rule does on that phase's in-tolerance history, for any window and quota
    latched = []

    @settings(max_examples=25, deadline=None)
    @given(rule=st.integers(2, 12).flatmap(lambda w: st.tuples(st.just(w), st.integers(1, w))),
           seed=st.integers(0, 2**32 - 1))
    def check(rule, seed):
        window, quota = rule
        rec = run_trial(TrialConfig(max_cycles=60, window=window, quota=quota), seed)
        in_tol = rec.column("in_tolerance").reshape(-1, 4)
        converged = rec.column("converged").reshape(-1, 4)
        assert len(in_tol) == rec.cycles_run
        expected = [oracles.convergence_check(in_tol[:, idx], window, quota) for idx in range(4)]
        for idx, at in enumerate(expected):
            want = [at is not None and k >= at for k in range(rec.cycles_run)]
            assert converged[:, idx].tolist() == want
        if rec.success:
            assert rec.converged_at == dict(zip(range(1, 5), expected))
        latched.extend(at for at in expected if at is not None)

    check()
    assert latched


# ---------------------------------------------------------------------------
# trivial trial outcomes


def test_uncontrollable_plant_fails_at_max_cycles():
    fm = quiet_feature_map(sensitivity=np.zeros((4, 2, 3)))
    cfg = TrialConfig(max_cycles=40, feature_map=fm)
    program = TargetProgram(base_profile=shifted_profile(fm.reference_features,
                                                         d_peak=0.04))
    rec = run_trial(cfg, 0, target_program=program,
                    initial_impedance=fm.reference_impedance)
    assert not rec.success
    assert rec.failure_reason == "max-cycles"
    assert rec.cycles_run == 40


def test_already_converged_succeeds_within_window():
    fm = quiet_feature_map()
    cfg = TrialConfig(feature_map=fm)
    program = TargetProgram(base_profile=profile_to_array(fm.reference_features))
    rec = run_trial(cfg, 0, target_program=program,
                    initial_impedance=fm.reference_impedance)
    assert rec.success
    assert rec.tuning_steps <= cfg.window


def test_strict_monitor_halt_is_not_overridden_by_convergence():
    # the first cycle is in tolerance, so a window of one latches every phase
    # in it, but the actor's rate breaks the monitor ceiling in the same
    # cycle: the halt ends the trial there, and no phase latches
    fm = quiet_feature_map()
    cfg = TrialConfig(strict_monitor=True, window=1, quota=1, max_cycles=20, feature_map=fm,
                      dhdp=DhdpConfig(actor_lr=1e6))
    program = TargetProgram(base_profile=shifted_profile(fm.reference_features, d_peak=0.01))
    rec = run_trial(cfg, 0, target_program=program, initial_impedance=fm.reference_impedance)
    assert (rec.outcome, rec.failure_reason, rec.cycles_run) == (
        "failure", "monitor-violation", 1)
    assert rec.log["in_tolerance"].all()
    assert not rec.log["converged"].any()
    assert rec.converged_at == {}


# ---------------------------------------------------------------------------
# safety reset semantics


def rigged_switch_trial(schedule=(0, 1, 0, 0, 0, 0, 0, 0), **kwargs):
    """Trial whose target jumps beyond the safety bound at cycle 2.

    The pre-switch target sits slightly off the plant's fixed point so the
    controller is actively adjusting parameters before the violation.
    """
    fm = quiet_feature_map()
    base = shifted_profile(fm.reference_features, d_peak=0.01)
    danger = shifted_profile(fm.reference_features, d_peak=0.25)
    program = TargetProgram(base_profile=base, profile_pool=(base, danger),
                            switch_period=2, schedule=schedule)
    cfg = TrialConfig(max_cycles=20, feature_map=fm)
    kwargs.setdefault("initial_impedance", fm.reference_impedance)
    return Trial(cfg, 5, target_program=program, **kwargs)


def test_reset_restores_initial_impedance_and_keeps_weights():
    trial = rigged_switch_trial()
    trial.step()  # k=0, in tolerance
    trial.step()  # k=1
    # the trial's per-cycle state is row 0 of the lockstep of one it steps
    lockstep = trial._lockstep
    weights_before = [
        (net.w_hidden[0].copy(), net.w_out[0].copy()) for net in (lockstep.actor, lockstep.critic)
    ]
    impedance_before_reset = lockstep.impedance[0]
    trial.step()  # k=2: target switched beyond safety -> reset
    assert np.array_equal(lockstep.impedance[0], trial.initial_impedance)
    weights_after = [
        (net.w_hidden[0], net.w_out[0]) for net in (lockstep.actor, lockstep.critic)
    ]
    for (h0, o0), (h1, o1) in zip(weights_before, weights_after):
        assert np.array_equal(h0, h1)
        assert np.array_equal(o0, o1)
    record = trial.run()  # the log comes with the finished record
    cycle = record.column("cycle")
    assert record.log["reset"][cycle == 2].all()
    assert np.count_nonzero(record.log["reset"][cycle <= 2]) // 4 == 1
    # sanity: the controller had been adjusting before the reset
    assert not np.array_equal(impedance_before_reset, trial.initial_impedance)


def test_initial_impedance_survives_resets():
    # after a reset the active impedance is the initial array itself, so
    # every later update must leave that array as it was drawn
    trial = rigged_switch_trial(schedule=(0, 1) * 5, initial_impedance=None)
    drawn = trial.initial_impedance.copy()
    rec = trial.run()
    assert rec.resets >= 3
    assert np.array_equal(trial.initial_impedance, drawn)


def test_initial_impedance_is_validated():
    fm = quiet_feature_map()
    bad = fm.reference_impedance.copy()
    bad[2, 1] = -0.5
    with pytest.raises(ValueError, match="damping"):
        Trial(TrialConfig(feature_map=fm), 0, initial_impedance=bad)
    with pytest.raises(ValueError, match="shape"):
        Trial(TrialConfig(feature_map=fm), 0, initial_impedance=bad[:3])


def test_reset_rows_carry_no_learning_fields():
    trial = rigged_switch_trial()
    for _ in range(3):
        trial.step()
    record = trial.run()  # the log comes with the finished record
    reset = record.log["reset"] & (record.column("cycle") <= 2)
    assert reset.any()
    for name in ("action_stiffness", "action_damping", "action_equilibrium", "stage_cost",
                 "q_value"):
        assert record.missing(name)[reset].all()


def test_plant_instability_recorded_as_failure():
    from kneetrack.plant import OdeKneeConfig
    cfg = TrialConfig(
        plant_kind="ode",
        ode=OdeKneeConfig(inertia=0.001, timestep=0.01),
        max_cycles=30,
    )
    fm = quiet_feature_map()
    program = TargetProgram(base_profile=profile_to_array(fm.reference_features))
    hot = fm.reference_impedance.copy()
    hot[:, :2] = (100.0, 0.0)
    rec = run_trial(cfg, 0, target_program=program, initial_impedance=hot)
    assert not rec.success
    assert rec.failure_reason.startswith("plant-instability")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numeric_fault_keeps_no_update_of_its_cycle():
    # rates far above the monitor ceilings overflow the weights at cycle 30;
    # that cycle is atomic: no phase keeps its update, all four reports count
    trial = Trial(TrialConfig(dhdp=DhdpConfig(critic_lr=1e3, actor_lr=1e6)), 7)
    trial.step()
    while True:
        # the trial's nets are row 0 of the lockstep of one it steps
        before = [m[0].copy() for net in (trial._lockstep.actor, trial._lockstep.critic)
                  for m in (net.w_hidden, net.w_out)]
        if trial.step():
            break
    record = trial.record
    assert record.failure_reason.startswith("numeric-fault")
    assert record.cycles_run == 31
    after = [np.stack([getattr(net, name) for net in nets])
             for nets in (record.actors, record.critics) for name in ("w_hidden", "w_out")]
    for a, b in zip(before, after, strict=True):
        assert np.array_equal(a, b)
    # the log holds the cycles before the fault, and their violations
    violations = np.count_nonzero(~(record.log["monitor_ok"] | record.log["reset"]))
    assert record.monitor_violations == violations + 4
    assert 30 not in record.column("cycle")


# ---------------------------------------------------------------------------
# initial impedance


def test_scaled_impedance_stack_equals_row_by_row():
    reference = FeatureMapConfig.default().reference_impedance
    factors = np.random.default_rng(5).uniform(0.5, 1.8, (20, 4, 3))
    stacked = scaled_impedance(reference, factors)
    rows = np.stack([scaled_impedance(reference, f) for f in factors])
    assert stacked.tobytes() == rows.tobytes()
    # swing flexion's 1.0 rad equilibrium is pushed past the stop and clipped
    assert (stacked[..., 2] == KNEE_ANGLE_MAX).any()


def probed_by_chunks(n: int) -> int:
    """Candidates the chunked draw probes where the one-at-a-time draw probed ``n``.

    That is every earlier round's candidates and this round's up to the end
    of the chunk holding the ``n``-th.
    """
    rounds, at = divmod(n - 1, harness.MAX_INITIAL_DRAWS)
    chunks = -(-(at + 1) // harness.PROBE_CHUNK) * harness.PROBE_CHUNK
    return rounds * harness.MAX_INITIAL_DRAWS + min(chunks, harness.MAX_INITIAL_DRAWS)


def draw_outcomes(cfg, seeds, monkeypatch, target=None):
    """Per seed, the drawn impedance's bytes or the error, and the candidates probed.

    Asserts that the chunked draw and the one-at-a-time oracle agree on
    every outcome, and that the chunked draw probed exactly the oracle's
    count rounded up to whole chunks.  Returns the oracle's outcomes.
    """
    plant = make_plant(cfg, np.random.default_rng(0))
    if target is None:
        target = make_target_program(cfg, plant, np.random.default_rng(1)).target_for(0)
    probed = []
    steady = harness.steady_profile
    monkeypatch.setattr(harness, "steady_profile", lambda p, imp: probed.append(
        len(imp) if imp.ndim == 3 else 1) or steady(p, imp))
    runs = []
    for draw in (draw_initial_impedance, oracles.loop_draw_initial_impedance):
        outcomes = []
        for seed in seeds:
            probed.clear()
            try:
                got = draw(cfg, plant, target, np.random.default_rng(seed)).tobytes()
            except RuntimeError as exc:
                got = str(exc)
            outcomes.append((got, sum(probed)))
        runs.append(outcomes)
    chunked, oracle = runs
    assert [got for got, _ in chunked] == [got for got, _ in oracle]
    assert [n for _, n in chunked] == [probed_by_chunks(n) for _, n in oracle]
    return oracle


@pytest.mark.parametrize("plant_kind, seeds", [("feature-map", range(10)), ("ode", range(4))])
def test_initial_draw_equals_the_one_at_a_time_oracle(plant_kind, seeds, monkeypatch):
    outcomes = draw_outcomes(TrialConfig(plant_kind=plant_kind), seeds, monkeypatch)
    assert all(isinstance(got, bytes) for got, _ in outcomes)


@pytest.mark.parametrize("plant_kind", ["feature-map", "ode"])
def test_initial_draw_in_small_chunks_equals_the_oracle(plant_kind, monkeypatch):
    # seven candidates a call: most draws take several chunks
    monkeypatch.setattr(harness, "PROBE_CHUNK", 7)
    outcomes = draw_outcomes(TrialConfig(plant_kind=plant_kind), range(6), monkeypatch)
    assert all(isinstance(got, bytes) for got, _ in outcomes)
    assert any(probed > 7 for _, probed in outcomes)


@pytest.mark.parametrize("plant_kind", ["feature-map", "ode"])
def test_initial_draw_narrows_and_gives_up_as_the_oracle(plant_kind, monkeypatch):
    # ten candidates a round: some seeds succeed only at a narrowed spread,
    # others miss all six rounds
    monkeypatch.setattr(harness, "MAX_INITIAL_DRAWS", 10)
    outcomes = draw_outcomes(TrialConfig(plant_kind=plant_kind), range(8), monkeypatch)
    assert any(isinstance(got, bytes) and probed > 10 for got, probed in outcomes)
    assert ("could not draw a feasible initial impedance", 60) in outcomes


@pytest.mark.parametrize("chunk", [7, harness.PROBE_CHUNK])
def test_initial_draw_skips_a_diverged_candidate_as_the_oracle(chunk, monkeypatch):
    # at 16 rad/s some candidates' walks diverge: each is infeasible, and
    # every seed still draws the first feasible candidate after it
    monkeypatch.setattr(harness, "PROBE_CHUNK", chunk)
    default = TrialConfig(plant_kind="ode")
    target = make_target_program(default, make_plant(default, None),
                                 np.random.default_rng(1)).target_for(0)
    cfg = replace(default, ode=OdeKneeConfig(velocity_limit=16.0))
    diverged = []
    steady = harness.steady_profile

    def counting(plant, imp):
        try:
            return steady(plant, imp)
        except PlantInstabilityError:
            diverged.append(imp)
            raise

    monkeypatch.setattr(harness, "steady_profile", counting)
    outcomes = draw_outcomes(cfg, range(8), monkeypatch, target)
    assert all(isinstance(got, bytes) for got, _ in outcomes)
    assert diverged  # the one-at-a-time oracle met diverged candidates


def test_a_torque_law_batch_starts_past_diverged_draw_candidates():
    # at 10 rad/s the first diverged candidate used to end the batch in its
    # initial draws; now its trials start, and two diverge in later cycles
    cfg = TrialConfig(plant_kind="ode", ode=OdeKneeConfig(velocity_limit=10.0), max_cycles=30)
    batch = run_training_batch(cfg, 0, trials=6)
    reasons = [rec.failure_reason for rec in batch.records]
    assert reasons.count("max-cycles") == 4
    assert sum(r.startswith("plant-instability: knee velocity") for r in reasons) == 2


# ---------------------------------------------------------------------------
# determinism


def record_fingerprint(rec: TrialRecord) -> tuple:
    return (
        rec.outcome, rec.tuning_steps, rec.resets, rec.monitor_violations,
        tuple(rec.column(name).tobytes() for name in (
            "cycle", "phase", "d_peak_rad", "d_duration_s", "stage_cost", "q_value")),
        rec.missing("q_value").tobytes(),
        tuple(tuple(a.w_out.ravel()) for a in rec.actors),
    )


def test_trial_determinism_same_seed():
    cfg = TrialConfig(max_cycles=60)
    a = run_trial(cfg, 123)
    b = run_trial(cfg, 123)
    assert record_fingerprint(a) == record_fingerprint(b)


def test_trial_differs_across_seeds():
    cfg = TrialConfig(max_cycles=60)
    a = run_trial(cfg, 123)
    b = run_trial(cfg, 124)
    assert record_fingerprint(a) != record_fingerprint(b)


def record_state(rec: TrialRecord) -> tuple:
    """Every field of a record: floats at full precision, log columns and weights as bytes."""
    fields = {k: v for k, v in vars(rec).items() if k not in ("log", "actors", "critics")}
    log = {name: (values.dtype.str, values.tobytes()) for name, values in rec.log.items()}
    weights = [m.tobytes() for net in rec.actors + rec.critics for m in (net.w_hidden, net.w_out)]
    return repr(fields), log, weights


# Batches whose trials end at different cycles and in different ways: each
# (TrialConfig overrides, trials) steps in one lockstep.
LOCKSTEP_CASES = {
    "scenario-1": (dict(max_cycles=120), 5),
    "scenario-2": (dict(scenario=2, max_cycles=100), 3),
    "scenario-3": (dict(scenario=3, max_cycles=150), 3),
    "ode-plant": (dict(plant_kind="ode", max_cycles=15), 3),
    "strict-monitor": (dict(strict_monitor=True, dhdp=DhdpConfig(actor_lr=100.0),
                            max_cycles=120), 5),
    "numeric-fault": (dict(dhdp=DhdpConfig(critic_lr=1e3, actor_lr=1e6), max_cycles=120), 5),
    "drift": (dict(drift_gain=0.2, drift_smoothing=0.5, max_cycles=120), 4),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_lockstep_training_batch_equals_lone_trials(case):
    # every trial of a lockstep batch gets exactly the record it gets alone,
    # also when other trials fault, halt or finish around it
    overrides, trials = LOCKSTEP_CASES[case]
    cfg = TrialConfig(**overrides)
    batch = run_training_batch(cfg, seed=21, trials=trials)
    seqs = np.random.SeedSequence(21).spawn(trials + 1)
    for rec, seq in zip(batch.records, seqs):
        assert record_state(rec) == record_state(run_trial(cfg, seq))
    if case in ("numeric-fault", "strict-monitor"):
        reason = "numeric-fault" if case == "numeric-fault" else "monitor-violation"
        halted = {r.cycles_run for r in batch.records
                  if (r.failure_reason or "").startswith(reason)}
        assert len(halted) > 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_a_stepped_trial_ends_with_the_record_run_gives(case):
    # step() advances one lockstep of one for the whole trial, so a trial
    # stepped to its end, however it ends, has the record run() gives
    overrides, trials = LOCKSTEP_CASES[case]
    cfg = TrialConfig(**overrides)
    seqs = zip(np.random.SeedSequence(21).spawn(trials), np.random.SeedSequence(21).spawn(trials))
    for stepped_seq, run_seq in seqs:
        trial = Trial(cfg, stepped_seq)
        while not trial.step():
            pass
        assert record_state(trial.record) == record_state(run_trial(cfg, run_seq))


def test_a_stepped_trial_computes_its_target_once(monkeypatch):
    # the target is computed for the initial draw and for cycle 0, and kept
    # while it holds, however many steps walk it
    calls = []
    target_for = TargetProgram.target_for
    monkeypatch.setattr(TargetProgram, "target_for",
                        lambda self, *args: calls.append(args) or target_for(self, *args))
    trial = Trial(TrialConfig(max_cycles=30), 3)
    for _ in range(30):
        trial.step()
    assert trial.finished and trial.record.cycles_run == 30
    assert len(calls) == 2


def test_lockstep_fault_redo_keeps_the_weight_norms_of_its_cycle():
    # trial 3 faults in cycle 22, the last cycle of the others: the cycle's
    # learning is redone one trial at a time, and the trials that keep their
    # update keep its weight norms, which no later cycle could raise again
    cfg = TrialConfig(dhdp=DhdpConfig(critic_lr=1e3, actor_lr=1e6), max_cycles=23)
    batch = run_training_batch(cfg, seed=21, trials=5)
    assert [r.failure_reason.split(":")[0] for r in batch.records] == [
        "max-cycles"] * 3 + ["numeric-fault", "max-cycles"]
    for rec, seq in zip(batch.records, np.random.SeedSequence(21).spawn(5)):
        assert record_state(rec) == record_state(run_trial(cfg, seq))


def test_lockstep_testing_batch_equals_lone_trials():
    cfg = TrialConfig(max_cycles=120)
    trained = run_training_batch(cfg, seed=5, trials=2)
    policies = [(rec.actors, rec.critics) for rec in trained.records]
    test_cfg = replace(cfg, stage="testing")
    batch = run_testing_batch(test_cfg, seed=8, policies=policies, trials_per_policy=3)
    seqs = np.random.SeedSequence(8).spawn(6)
    for i, (rec, seq) in enumerate(zip(batch.records, seqs)):
        assert record_state(rec) == record_state(run_trial(test_cfg, seq, policy=policies[i // 3]))
    assert batch.policy_index == [0, 0, 0, 1, 1, 1]


@pytest.mark.parametrize("overrides", [dict(scenario=2, max_cycles=400),
                                       dict(plant_kind="ode", max_cycles=200)],
                         ids=["scenario-2", "ode-plant"])
def test_on_leave_sees_each_trial_once_as_it_leaves(overrides, monkeypatch):
    # a batch calls on_leave once per trial, in the step the trial leaves in
    # and in index order within it, with the trial's index and its closed
    # record; no record differs from the batch's without the callback.  In
    # both batches trial 0 succeeds and leaves before the others
    cfg, trials = TrialConfig(**overrides), 4
    plain = run_training_batch(cfg, seed=21, trials=trials).records
    events = []
    step = harness._Lockstep.step
    monkeypatch.setattr(harness._Lockstep, "step",
                        lambda self: events.append("step") or step(self))

    def on_leave(index, record):
        events.append((index, record, record_state(record)))

    records = run_training_batch(cfg, seed=21, trials=trials, on_leave=on_leave).records
    steps, left = 0, []  # the indices that left in each step
    for event in events:
        if event == "step":
            steps += 1
            left.append([])
            continue
        index, record, state = event
        left[-1].append(index)
        assert record is records[index]
        assert state == record_state(plain[index])
        assert len(record.log["reset"]) == 4 * record.cycles_run > 0
        assert record.cycles_run == steps or record.failure_reason.startswith("plant-instability")
    assert sorted(i for indices in left for i in indices) == list(range(trials))
    assert all(indices == sorted(indices) for indices in left)
    assert sum(1 for indices in left if indices) > 1  # trials left in more than one step
    assert [record_state(rec) for rec in records] == [record_state(rec) for rec in plain]


def test_testing_batch_refuses_more_than_one_job():
    # batches run in one process; the keyword stays only for callers passing 1
    rng = np.random.default_rng(0)
    policy = ([init_actor(rng, 6, 0.5) for _ in range(4)], None)
    with pytest.raises(ValueError, match="jobs"):
        run_testing_batch(TrialConfig(stage="testing"), seed=0, policies=[policy], jobs=2)


def test_batch_records_share_no_memory():
    # a trial leaves its lockstep with a copy of its rows: a view would keep
    # the whole stack it was cut from alive for as long as its record lives
    records = run_training_batch(TrialConfig(max_cycles=40), seed=3, trials=4).records
    assert len({rec.cycles_run for rec in records}) < len(records)  # trials that left together

    def held(rec):
        """The buffers a record's weights and log keep alive."""
        arrays = [m for net in rec.actors + rec.critics for m in (net.w_hidden, net.w_out)]
        return [a if a.base is None else a.base for a in arrays + list(rec.log.values())]

    for a, b in itertools.combinations(records, 2):
        assert not any(np.shares_memory(x, y) for x in held(a) for y in held(b))


def test_a_finished_batch_keeps_no_starting_nets(monkeypatch):
    # a lockstep stacks its trials' starting nets and the trials drop theirs,
    # so a batch does not hold both copies until it returns
    entered = []

    class Lockstep(harness._Lockstep):
        def __init__(self, trials):
            entered.extend(trials)
            super().__init__(trials)

    monkeypatch.setattr(harness, "_Lockstep", Lockstep)
    run_training_batch(TrialConfig(max_cycles=40), seed=3, trials=4)
    assert len(entered) == 4
    for trial in entered:
        assert trial.initial_critic is None and trial.initial_actor is None


def test_lockstep_refuses_trials_whose_programs_differ():
    cfg = TrialConfig(max_cycles=40)
    base = Trial(cfg, 4).program.base_profile
    switching = TargetProgram(base_profile=base, profile_pool=(base, base + [0.0, 0.02]),
                              schedule=(0, 1))
    with pytest.raises(ValueError, match="programs"):
        harness._Lockstep([Trial(cfg, 4), Trial(cfg, 5, target_program=switching)])


def test_trials_sharing_a_drifting_program_get_the_records_of_their_own():
    # a run writes nothing to its target program: two trials stepped together
    # on one program, and a lone run on it after them, each get the record
    # the program a trial builds for itself gives
    cfg = TrialConfig(drift_gain=0.2, drift_smoothing=0.5, max_cycles=60)
    shared = Trial(cfg, 0).program
    together = [Trial(cfg, seed, target_program=shared) for seed in (4, 5)]
    harness._Lockstep(together).run()
    records = [trial.record for trial in together] + [
        run_trial(cfg, 6, target_program=shared)]
    for rec, seed in zip(records, (4, 5, 6)):
        assert record_state(rec) == record_state(run_trial(cfg, seed))


def test_lockstep_a_knee_that_diverges_in_cycle_0_leaves_no_row_and_the_others_run_on():
    # the middle trial's knee diverges in cycle 0 and leaves in that step
    # without a row of it; the trials on either side take their rows of the
    # same queue and run on to their own ends
    cfg = TrialConfig(plant_kind="ode", max_cycles=15)
    stiff = cfg.feature_map.reference_impedance.copy()
    stiff[:, 0] = 1e6
    stiff[:, 2] = 1.6
    starts = [(0, None), (1, stiff), (2, None)]
    together = [Trial(cfg, seed, initial_impedance=imp) for seed, imp in starts]
    harness._Lockstep(together).run()
    for trial, (seed, imp) in zip(together, starts):
        assert record_state(trial.record) == record_state(
            run_trial(cfg, seed, initial_impedance=imp))
    diverged = together[1].record
    assert diverged.failure_reason.startswith("plant-instability: knee velocity ")
    assert diverged.cycles_run == 0
    assert all(len(values) == 0 for values in diverged.log.values())
    for rec in (together[0].record, together[2].record):
        assert rec.cycles_run > 0 and len(rec.log["reset"]) == 4 * rec.cycles_run


def test_lockstep_retargets_the_trial_whose_leg_advanced_while_another_leaves():
    # The same trial under a one-leg and a two-leg pace program converges
    # its first leg in the same cycle: the first trial finishes and leaves
    # the lockstep while the second starts its next leg, whose new target
    # must reach the second trial at its new position in the stacks.
    cfg = TrialConfig(scenario=3, max_cycles=200)
    base = Trial(cfg, 4).program.base_profile

    def trial(paces):
        return Trial(cfg, 4, target_program=TargetProgram(base_profile=base,
                                                          pace_sequence=paces))

    paces = ((1.0,), (1.0, 1.12))
    alone = [trial(p).run() for p in paces]
    together = [trial(p) for p in paces]
    harness._Lockstep(together).run()
    assert together[0].record.legs == together[1].record.legs[:1]
    assert together[1].record.cycles_run > together[0].record.cycles_run
    for t, rec in zip(together, alone):
        assert record_state(t.record) == record_state(rec)


# ---------------------------------------------------------------------------
# metrics


def synthetic_record(errors_by_cycle, in_tol_by_cycle) -> TrialRecord:
    """A record whose log holds the given per-cycle, per-phase errors and flags.

    ``errors_by_cycle`` holds four (d_duration_pct, d_peak) pairs per cycle;
    every other field of the log is zero.
    """
    rec = TrialRecord(scenario=1, stage="training")
    errs = np.array(errors_by_cycle, dtype=float).reshape(-1, 2)
    rec.log = {name: np.zeros(len(errs), values.dtype) for name, values in rec.log.items()}
    rec.log.update(
        d_duration_s=errs[:, 0] / 100.0 * 1.2, d_duration_pct=errs[:, 0], d_peak_rad=errs[:, 1],
        in_tolerance=np.array(in_tol_by_cycle, dtype=bool).reshape(-1),
    )
    assert list(zip(rec.column("cycle").tolist(), rec.column("phase").tolist())) == [
        (k, p) for k in range(len(errors_by_cycle)) for p in range(1, 5)]
    return rec


def test_compute_rms_zero_errors():
    errs = [[(0.0, 0.0)] * 4] * 12
    tols = [[True] * 4] * 12
    initial, final = compute_rms(synthetic_record(errs, tols), window=10)
    assert initial == {"peak_rad": 0.0, "duration_pct": 0.0}
    assert final == {"peak_rad": 0.0, "duration_pct": 0.0}


def test_compute_rms_constant_error_gives_magnitudes():
    errs = [[(1.5, -0.02)] * 4] * 12
    tols = [[True] * 4] * 12
    initial, final = compute_rms(synthetic_record(errs, tols), window=10)
    assert initial["duration_pct"] == pytest.approx(1.5)
    assert initial["peak_rad"] == pytest.approx(0.02)
    assert final == initial


def test_compute_rms_hand_computed_mixed_values():
    errs = [[(1.0, 0.01), (2.0, 0.02), (3.0, 0.03), (4.0, 0.04)]] * 3
    tols = [[False] * 4] * 3
    initial, final = compute_rms(synthetic_record(errs, tols), window=10)
    want_pct = np.sqrt(np.mean(np.square([1.0, 2.0, 3.0, 4.0])))
    want_rad = np.sqrt(np.mean(np.square([0.01, 0.02, 0.03, 0.04])))
    assert initial["duration_pct"] == pytest.approx(want_pct)
    assert initial["peak_rad"] == pytest.approx(want_rad)
    assert final is None  # no all-phase in-tolerance cycle exists


def test_compute_rms_final_uses_last_in_tolerance_cycles():
    errs = [[(5.0, 0.05)] * 4] * 5 + [[(0.5, 0.005)] * 4] * 5
    tols = [[False] * 4] * 5 + [[True] * 4] * 5
    _, final = compute_rms(synthetic_record(errs, tols), window=3)
    assert final["duration_pct"] == pytest.approx(0.5)
    assert final["peak_rad"] == pytest.approx(0.005)


def test_metrics_all_failures_reports_absent_steps():
    recs = []
    for _ in range(3):
        rec = synthetic_record([[(1.0, 0.01)] * 4] * 2, [[False] * 4] * 2)
        rec.rms_initial, rec.rms_final = compute_rms(rec, 10)
        recs.append(rec)
    m = aggregate_metrics(recs)
    assert m.success_rate == 0.0
    assert m.tuning_steps_mean is None
    assert m.tuning_steps_std is None


# ---------------------------------------------------------------------------
# scenario bookkeeping


def test_scenario2_switch_cycles_every_period():
    cfg = TrialConfig(scenario=2, max_cycles=120)
    rec = run_trial(cfg, 3)
    for cyc in rec.switch_cycles:
        assert cyc % cfg.switch_period == 0
    if rec.cycles_run >= 60:
        assert rec.switch_cycles[:2] == [20, 40]


def test_scenario2_success_needs_consecutive_tracks():
    # segments are numbered in switch order from the schedule's start, and a
    # trial succeeds at the first tracked segment that completes a run of
    # consecutive_tracks tracked ones
    for tracks in (1, 2, 3):
        cfg = TrialConfig(scenario=2, consecutive_tracks=tracks, max_cycles=200)
        records = run_training_batch(cfg, seed=2, trials=5).records
        assert {rec.success for rec in records} == {True, False}
        for rec in records:
            segments = rec.segments
            assert [s["segment"] for s in segments] == list(range(len(segments)))
            assert [s["start_cycle"] for s in segments] == [
                cfg.switch_period * s["segment"] for s in segments]
            tracked = [s["converged"] for s in segments]
            ends = [j for j in range(tracks - 1, len(tracked))
                    if all(tracked[j - tracks + 1:j + 1])]
            if rec.success:
                assert ends[0] == len(segments) - 1
                assert rec.tuning_steps == segments[-1]["converged_cycle"] + 1
            else:
                assert ends == []


def test_scenario2_segments_open_with_their_terrain():
    # a segment opens at cycle 0 and at every switch, whatever ends the trial,
    # on the pool profile its program schedules for its start
    cases = [
        (TrialConfig(scenario=2, max_cycles=200, consecutive_tracks=1), 1, "success"),
        (TrialConfig(scenario=2, max_cycles=200), 1, "max-cycles"),
        (TrialConfig(scenario=2, max_cycles=120, dhdp=DhdpConfig(critic_lr=1e3, actor_lr=1e6)),
         0, "numeric-fault"),
        (TrialConfig(scenario=2, strict_monitor=True, dhdp=DhdpConfig(actor_lr=100.0),
                     max_cycles=120), 2, "monitor-violation"),
    ]
    records = []
    for cfg, seed, ending in cases:
        trial = Trial(cfg, seed)
        rec = trial.run()
        assert (rec.failure_reason or rec.outcome).startswith(ending)
        starts = [s["start_cycle"] for s in rec.segments]
        assert starts == list(range(0, rec.cycles_run, cfg.switch_period))
        assert [s["pool_index"] for s in rec.segments] == [
            trial.program.profile_index(k) for k in starts]
        records.append(rec)
    success, max_cycles, fault, halt = records
    assert success.segments[-1]["converged_cycle"] == success.cycles_run - 1
    assert any(s["converged"] for s in max_cycles.segments)
    # a trial that ends inside its terrain lists that terrain's segment
    assert (fault.cycles_run, [s["start_cycle"] for s in fault.segments]) == (25, [0, 20])
    assert halt.cycles_run == 16 and halt.segments == [{
        "segment": 0, "pool_index": halt.segments[0]["pool_index"], "start_cycle": 0,
        "converged": False, "converged_cycle": None}]
    # a program without a pool walks one terrain, one segment long
    cfg = TrialConfig(scenario=2, consecutive_tracks=1, max_cycles=500)
    program = TargetProgram(base_profile=Trial(TrialConfig(), 0).program.base_profile)
    rec = Trial(cfg, 0, target_program=program).run()
    assert rec.success and rec.segments == [{
        "segment": 0, "pool_index": None, "start_cycle": 0,
        "converged": True, "converged_cycle": rec.cycles_run - 1}]


def test_scenario2_a_pool_of_one_opens_segments_without_switching():
    # every period starts a new segment on the pool's one profile, though the
    # target never switches, and its convergence windows start over
    cfg = TrialConfig(scenario=2, pool_size=1, consecutive_tracks=5, max_cycles=200)
    rec = run_trial(cfg, 3)
    assert rec.switch_cycles == []
    assert rec.cycles_run == 200
    assert [(s["start_cycle"], s["pool_index"]) for s in rec.segments] == [
        (cycle, 0) for cycle in range(0, 200, cfg.switch_period)]
    # some phase has latched by the last cycle of each segment, and no phase
    # stands converged in the first cycle of the next
    converged = rec.column("converged").reshape(-1, 4)
    starts = [s["start_cycle"] for s in rec.segments[1:]]
    assert converged[[k - 1 for k in starts]].any(axis=1).all()
    assert not converged[starts].any()


def test_scenario3_legs_follow_training_order():
    cfg = TrialConfig(scenario=3)
    rec = run_trial(cfg, 8)
    paces = [leg["pace"] for leg in rec.legs]
    assert paces == list(cfg.pace_training[:len(paces)])
    if rec.success:
        assert paces == [1.0, 1.12, 1.0, 0.88]


def test_scenario3_legs_start_where_the_last_converged():
    cfg = TrialConfig(scenario=3, max_cycles=300)
    records = run_training_batch(cfg, seed=2, trials=5).records
    assert {rec.success for rec in records} == {True, False}
    for rec in records:
        starts = [0] + [leg["converged_cycle"] + 1 for leg in rec.legs[:-1]]
        assert [leg["start_cycle"] for leg in rec.legs] == starts
        assert [leg["leg"] for leg in rec.legs] == list(range(len(rec.legs)))
        for leg in rec.legs:
            assert leg["steps"] == leg["converged_cycle"] - leg["start_cycle"] + 1
        assert rec.success == (len(rec.legs) == len(cfg.pace_training))
        if rec.success:
            assert rec.tuning_steps == rec.legs[-1]["converged_cycle"] + 1


def test_scenario3_testing_sequence_order():
    assert TrialConfig(scenario=3, stage="testing").pace_sequence() == (1.0, 0.8, 1.0, 1.2)
    assert TrialConfig(scenario=3, stage="training").pace_sequence() == (1.0, 1.12, 1.0, 0.88)


def test_tuning_steps_bounded_by_max_cycles():
    cfg = TrialConfig(max_cycles=80)
    for seed in range(4):
        rec = run_trial(cfg, seed)
        if rec.success:
            assert rec.tuning_steps <= cfg.max_cycles


# ---------------------------------------------------------------------------
# structured logs


def test_csv_column_order_stable():
    assert CSV_COLUMNS[:5] == ("cycle", "phase", "d_duration_s", "d_duration_pct",
                               "d_peak_rad")
    assert CSV_COLUMNS[-3:] == ("reset", "in_tolerance", "converged")


def test_trial_csv_golden_head(tmp_path):
    cfg = TrialConfig(max_cycles=12)
    rec = run_trial(cfg, 77)
    out = tmp_path / "trial.csv"
    write_trial_csv(rec, out)
    got = out.read_text().splitlines()[:9]
    golden_path = GOLDEN / "trial_log_head.csv"
    if REGEN or not golden_path.exists():
        golden_path.write_text("\n".join(got) + "\n")
    want = golden_path.read_text().splitlines()
    assert got == want


def test_trial_csv_round_trip_values(tmp_path):
    cfg = TrialConfig(max_cycles=15)
    rec = run_trial(cfg, 5)
    out = tmp_path / "trial.csv"
    write_trial_csv(rec, out)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(rec.log["reset"])
    columns = zip(*(rec.column(name).tolist() for name in ("cycle", "phase", "d_peak_rad",
                                                           "q_value")),
                  rec.missing("q_value").tolist())
    for parsed, (cycle, phase, d_peak, q_value, missing) in zip(rows, columns, strict=True):
        assert int(parsed["cycle"]) == cycle
        assert int(parsed["phase"]) == phase
        assert float(parsed["d_peak_rad"]) == d_peak
        if missing:
            assert parsed["q_value"] == ""
        else:
            assert float(parsed["q_value"]) == q_value


def write_csv_per_row(record: TrialRecord, path) -> None:
    """The CSV writer the columnar one replaced: csv.writer and _fmt on every cell.

    A missing cell is written as None.
    """
    columns = []
    for name in CSV_COLUMNS:
        values, missing = record.column(name).tolist(), record.missing(name)
        if missing is not None:
            values = [None if gone else v for v, gone in zip(values, missing.tolist())]
        columns.append(values)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in zip(*columns):
            writer.writerow([_fmt(v) for v in row])


def random_record(rng, cycles: int) -> TrialRecord:
    """A record whose log holds random values, edge values and missing cells."""
    rec = TrialRecord(scenario=1, stage="training")
    rows = 4 * cycles
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 0.1 + 0.2, 1e-300, 1e300, 100.0, 5.0, 1.6])

    def floats():
        values = rng.normal(size=rows) * 10.0 ** rng.integers(-9, 9, rows)
        return np.where(rng.random(rows) < 0.25, rng.choice(edges, rows), values)

    rec.log = {name: rng.random(rows) < 0.5 if values.dtype == bool else floats()
               for name, values in rec.log.items()}
    rec.log["reset"] = np.repeat(rng.random(cycles) < 0.3, 4)
    rec.log["lagged"] &= ~rec.log["reset"]
    return rec


def test_trial_csv_equals_the_per_row_writer(tmp_path):
    # the columnar writer's bytes are the per-row writer's, on random logs
    # with reset rows, rows without a lag, infinite bounds and signed zeros,
    # and on real trials with resets and clamps; logs of 127, 128 and 129
    # cycles end a cycle before, at and after the writer's 512-row block
    # edge, and one of 700 cycles spans six blocks
    rng = np.random.default_rng(2024)
    records = [random_record(rng, cycles) for cycles in (0, 1, 3, 40, 40, 40, 127, 128, 129, 700)]
    rigged = rigged_switch_trial(schedule=(0, 1) * 5, initial_impedance=None).run()
    clamping = run_trial(TrialConfig(max_cycles=60, dhdp=DhdpConfig(actor_lr=300.0)), 3)
    assert rigged.resets > 0 and clamping.clamp_events > 0
    for rec in records + [rigged, clamping]:
        write_trial_csv(rec, tmp_path / "columns.csv")
        write_csv_per_row(rec, tmp_path / "rows.csv")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_trial_csv_writer_memory_does_not_grow_with_the_log(tmp_path):
    # the writer formats a block of rows at a time, so its peak does not grow
    # with the log; formatting these 2000 rows at once takes about 4.4 MB
    rng = np.random.default_rng(7)
    write_trial_csv(random_record(rng, 3), tmp_path / "warm.csv")  # builds _repr's tables
    rec = random_record(rng, 500)
    tracemalloc.start()
    try:
        write_trial_csv(rec, tmp_path / "trial.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


def test_log_marks_missing_cells_with_masks_not_nan():
    rec = rigged_switch_trial(schedule=(0, 1) * 5, initial_impedance=None).run()
    assert rec.resets > 0
    for name, values in rec.log.items():
        assert values.dtype == bool or not np.isnan(values).any(), name
    reset, lagged = rec.log["reset"], rec.log["lagged"]
    assert (lagged & ~reset).any() and (~lagged & ~reset).any()
    learning = ("action_stiffness", "action_damping", "action_equilibrium",
                "delta_stiffness", "delta_damping", "delta_equilibrium",
                "stage_cost", "q_value", "critic_bound", "actor_bound", "monitor_ok")
    for name in CSV_COLUMNS:
        missing = rec.missing(name)
        if name == "td_error":
            assert np.array_equal(missing, ~lagged)
        elif name in learning:
            assert np.array_equal(missing, reset), name
        else:
            assert missing is None, name


def test_record_of_200_cycles_pickles_small():
    # seventeen float64 columns of 800 rows alone take 108,800 bytes
    rec = run_trial(TrialConfig(max_cycles=200), 0)
    assert len(rec.log["reset"]) == 800
    assert len(pickle.dumps(rec)) <= 120_000


def test_trial_summary_schema():
    cfg = TrialConfig(max_cycles=20)
    rec = run_trial(cfg, 2)
    summary = trial_summary(rec, 0)
    doc = json.loads(json.dumps(summary))
    assert doc["schema"] == "kneetrack-trial"
    for key in ("outcome", "tuning_steps", "resets", "monitor_violations",
                "rms_initial", "max_weight_ratio"):
        assert key in doc
    # every TrialRecord field but the log and the nets, spelled out: a new
    # field fails this test until it is added here on purpose
    record_keys = {
        "scenario", "stage", "outcome", "failure_reason", "tuning_steps", "cycles_run",
        "resets", "monitor_violations", "clamp_events", "converged_at", "switch_cycles",
        "segments", "legs", "max_weight_ratio", "rms_initial", "rms_final",
    }
    assert set(doc) == record_keys | {"schema", "trial"}
    assert set(trial_summary(rec, 0, 3)) == record_keys | {"schema", "trial", "policy"}


def test_batch_summary_schema():
    batch = run_training_batch(TrialConfig(max_cycles=20), seed=2, trials=2)
    doc = json.loads(json.dumps(batch_summary(batch, [trial_summary(batch.records[0], 0)])))
    metrics_keys = {
        "trials", "successes", "tuning_steps_mean", "tuning_steps_std",
        "rms_initial", "rms_final", "monitor_violations", "resets",
    }
    assert set(doc) == metrics_keys | {
        "success_rate", "schema", "scenario", "stage", "plant", "seed",
        "policy_trials", "trial_summaries",
    }
    assert doc["schema"] == "kneetrack-batch"
    assert doc["success_rate"] == batch.metrics.success_rate


def test_a_trial_whose_first_cycle_diverges_leaves_an_empty_log(tmp_path):
    # the knee diverges in cycle 0, so the trial leaves with no row
    cfg = TrialConfig(plant_kind="ode", max_cycles=50)
    stiff = cfg.feature_map.reference_impedance.copy()
    stiff[:, 0] = 1e6
    stiff[:, 2] = 1.6
    rec = run_trial(cfg, 0, initial_impedance=stiff)
    assert rec.outcome == "failure"
    assert rec.failure_reason.startswith("plant-instability: knee velocity ")
    assert rec.cycles_run == 0
    assert len(rec.log) == 23 and all(len(values) == 0 for values in rec.log.values())
    assert rec.rms_initial is None
    path = tmp_path / "trial.csv"
    write_trial_csv(rec, path)
    assert path.read_bytes() == ",".join(CSV_COLUMNS).encode() + b"\r\n"
    assert json.loads(json.dumps(trial_summary(rec, 0)))["cycles_run"] == 0


def test_testing_batch_tags_policy_indices():
    cfg = TrialConfig(max_cycles=120)
    train = run_training_batch(cfg, seed=11, trials=3, keep_policies=2)
    policies = [(train.records[i].actors, train.records[i].critics)
                for i in train.policy_trials]
    assert policies, "seed chosen to yield at least one successful trial"
    test = run_testing_batch(cfg, seed=12, policies=policies, trials_per_policy=2)
    assert test.policy_index == sorted(test.policy_index)
    assert len(test.records) == len(policies) * 2
