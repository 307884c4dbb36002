"""Trial loop, safety semantics, convergence, metrics and logs."""

import copy
import csv
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kneetrack.core import (
    BoundsTable,
    GaitFeatures,
    ImpedanceTriple,
    TrackingState,
)
from kneetrack.fsm import ImpedanceSet
from kneetrack.harness import (
    CSV_COLUMNS,
    CycleLog,
    DhdpConfig,
    Trial,
    TrialConfig,
    TrialRecord,
    aggregate_metrics,
    compute_rms,
    convergence_check,
    run_testing_batch,
    run_training_batch,
    run_trial,
    safety_check,
    trial_summary,
    write_trial_csv,
)
from kneetrack.plant import FeatureMapConfig, TargetProgram, alignment_errors

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
    return tuple(GaitFeatures(f.duration + d_duration, f.peak_angle + d_peak)
                 for f in base)


# ---------------------------------------------------------------------------
# safety check


def test_safety_check_all_zero_ok():
    errs = [TrackingState(0.0, 0.0)] * 4
    assert safety_check(errs, BoundsTable.default(), 1.2)


def test_safety_check_phase1_angle_violation():
    errs = [TrackingState(0.0, 0.20)] + [TrackingState(0.0, 0.0)] * 3
    assert not safety_check(errs, BoundsTable.default(), 1.2)


def test_safety_check_phase2_duration_within():
    # 11% duration error on phase 2 stays under the 12% safety bound
    errs = [TrackingState(0.0, 0.0), TrackingState(0.11, 0.05),
            TrackingState(0.0, 0.0), TrackingState(0.0, 0.0)]
    assert safety_check(errs, BoundsTable.default(), 1.0)
    errs[1] = TrackingState(0.13, 0.05)
    assert not safety_check(errs, BoundsTable.default(), 1.0)


# ---------------------------------------------------------------------------
# convergence quota


def test_convergence_ten_consecutive():
    assert convergence_check([True] * 10) == 7  # 8 of the quota reached first


def test_convergence_eight_of_ten_pattern():
    pattern = [True, True, True, True, False, True, True, True, False, True]
    assert convergence_check(pattern) == 9


def test_convergence_seven_of_ten_never():
    pattern = ([True] * 7 + [False] * 3) * 20
    assert convergence_check(pattern) is None


def test_convergence_matches_trial_flag_logic():
    # a trial latches convergence where the batch rule does on its own
    # per-phase in-tolerance history
    cfg = TrialConfig(max_cycles=150, window=6, quota=4)
    latched = 0
    for seed in range(3):
        trial = Trial(cfg, seed)
        rec = trial.run()
        for idx in range(4):
            history = [r.in_tolerance for r in rec.rows if r.phase == idx + 1]
            assert len(history) == rec.cycles_run
            expected = convergence_check(history, cfg.window, cfg.quota)
            assert trial._converged_at[idx] == expected
            latched += expected is not None
        if rec.success:
            assert rec.converged_at == dict(zip(range(1, 5), trial._converged_at))
    assert latched > 0


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
    program = TargetProgram(base_profile=fm.reference_features)
    rec = run_trial(cfg, 0, target_program=program,
                    initial_impedance=fm.reference_impedance)
    assert rec.success
    assert rec.tuning_steps <= cfg.window


# ---------------------------------------------------------------------------
# safety reset semantics


def rigged_switch_trial():
    """Trial whose target jumps beyond the safety bound at cycle 2.

    The pre-switch target sits slightly off the plant's fixed point so the
    controller is actively adjusting parameters before the violation.
    """
    fm = quiet_feature_map()
    base = shifted_profile(fm.reference_features, d_peak=0.01)
    danger = shifted_profile(fm.reference_features, d_peak=0.25)
    program = TargetProgram(base_profile=base, profile_pool=(base, danger),
                            switch_period=2, schedule=(0, 1, 0, 0, 0, 0, 0, 0),
                            )
    cfg = TrialConfig(max_cycles=20, feature_map=fm)
    return Trial(cfg, 5, target_program=program,
                 initial_impedance=fm.reference_impedance)


def test_reset_restores_initial_impedance_and_keeps_weights():
    trial = rigged_switch_trial()
    trial.step()  # k=0, in tolerance
    trial.step()  # k=1
    weights_before = [
        (a.w_hidden.copy(), a.w_out.copy()) for a in trial.actors
    ] + [
        (c.w_hidden.copy(), c.w_out.copy()) for c in trial.critics
    ]
    impedance_before_reset = trial.impedance
    trial.step()  # k=2: target switched beyond safety -> reset
    reset_rows = [r for r in trial.record.rows if r.cycle == 2]
    assert all(r.reset for r in reset_rows)
    assert trial.impedance == trial.initial_impedance
    weights_after = [
        (a.w_hidden, a.w_out) for a in trial.actors
    ] + [
        (c.w_hidden, c.w_out) for c in trial.critics
    ]
    for (h0, o0), (h1, o1) in zip(weights_before, weights_after):
        assert np.array_equal(h0, h1)
        assert np.array_equal(o0, o1)
    assert trial.record.resets == 1
    # sanity: the controller had been adjusting before the reset
    assert impedance_before_reset != trial.initial_impedance


def test_reset_rows_carry_no_learning_fields():
    trial = rigged_switch_trial()
    for _ in range(3):
        trial.step()
    rows = [r for r in trial.record.rows if r.reset]
    assert rows
    for r in rows:
        assert r.action is None and r.cost is None and r.q_value is None


def test_plant_instability_recorded_as_failure():
    from kneetrack.plant import OdeKneeConfig
    cfg = TrialConfig(
        plant_kind="ode",
        ode=OdeKneeConfig(inertia=0.001, timestep=0.01),
        max_cycles=30,
    )
    fm = quiet_feature_map()
    program = TargetProgram(base_profile=fm.reference_features)
    hot = ImpedanceSet(tuple(
        ImpedanceTriple(100.0, 0.0, t.equilibrium)
        for t in fm.reference_impedance.phases))
    rec = run_trial(cfg, 0, target_program=program, initial_impedance=hot)
    assert not rec.success
    assert rec.failure_reason.startswith("plant-instability")


# ---------------------------------------------------------------------------
# determinism


def record_fingerprint(rec: TrialRecord) -> tuple:
    return (
        rec.outcome, rec.tuning_steps, rec.resets, rec.monitor_violations,
        tuple((r.cycle, r.phase, r.d_peak, r.d_duration, r.cost, r.q_value)
              for r in rec.rows),
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


def test_batch_parallel_matches_serial():
    cfg = TrialConfig(max_cycles=50)
    serial = run_training_batch(cfg, seed=9, trials=4, jobs=1)
    parallel = run_training_batch(cfg, seed=9, trials=4, jobs=2)
    for a, b in zip(serial.records, parallel.records):
        assert record_fingerprint(a) == record_fingerprint(b)
    assert serial.policy_trials == parallel.policy_trials


# ---------------------------------------------------------------------------
# metrics


def synthetic_record(errors_by_cycle, in_tol_by_cycle) -> TrialRecord:
    rec = TrialRecord(scenario=1, stage="training")
    for k, (errs, tols) in enumerate(zip(errors_by_cycle, in_tol_by_cycle)):
        for p in range(1, 5):
            d_dur_pct, d_peak = errs[p - 1]
            rec.rows.append(CycleLog(
                cycle=k, phase=p, d_duration=d_dur_pct / 100.0 * 1.2,
                d_duration_pct=d_dur_pct, d_peak=d_peak,
                action=None, delta=None, cost=None, q_value=None, td=None,
                stiffness=0.0, damping=0.0, equilibrium=0.0,
                critic_bound=None, actor_bound=None, monitor_ok=None,
                reset=False, in_tolerance=tols[p - 1], converged=False,
            ))
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
    cfg = TrialConfig(scenario=2)
    rec = run_trial(cfg, 1)
    if rec.success:
        converged = [s["converged"] for s in rec.segments]
        assert len(converged) >= cfg.consecutive_tracks
        assert all(converged[-cfg.consecutive_tracks:])


def test_scenario3_legs_follow_training_order():
    cfg = TrialConfig(scenario=3)
    rec = run_trial(cfg, 8)
    paces = [leg["pace"] for leg in rec.legs]
    assert paces == list(cfg.pace_training[:len(paces)])
    if rec.success:
        assert paces == [1.0, 1.12, 1.0, 0.88]


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
    assert len(rows) == len(rec.rows)
    for parsed, row in zip(rows, rec.rows):
        assert int(parsed["cycle"]) == row.cycle
        assert int(parsed["phase"]) == row.phase
        assert float(parsed["d_peak_rad"]) == row.d_peak
        if row.q_value is None:
            assert parsed["q_value"] == ""
        else:
            assert float(parsed["q_value"]) == row.q_value


def test_trial_summary_schema():
    cfg = TrialConfig(max_cycles=20)
    rec = run_trial(cfg, 2)
    summary = trial_summary(rec, 0)
    doc = json.loads(json.dumps(summary))
    assert doc["schema"] == "kneetrack-trial"
    for key in ("outcome", "tuning_steps", "resets", "monitor_violations",
                "rms_initial", "max_weight_ratio"):
        assert key in doc


def test_testing_batch_tags_policy_indices():
    cfg = TrialConfig(max_cycles=120)
    train = run_training_batch(cfg, seed=11, trials=3, keep_policies=2)
    policies = [(train.records[i].actors, train.records[i].critics)
                for i in train.policy_trials]
    assert policies, "seed chosen to yield at least one successful trial"
    test = run_testing_batch(cfg, seed=12, policies=policies, trials_per_policy=2)
    assert test.policy_index == sorted(test.policy_index)
    assert len(test.records) == len(policies) * 2
