"""Surrogate plants and the intact-knee target program."""

import json
from pathlib import Path

import numpy as np
import pytest

from kneetrack.core import GaitFeatures, Phase
from kneetrack.plant import (
    FeatureMapConfig,
    FeatureMapPlant,
    OdeKneeConfig,
    OdeKneePlant,
    PlantInstabilityError,
    TargetProgram,
    alignment_errors,
    cycle_duration,
    profile_to_array,
    switch_schedule,
)

GOLDEN = Path(__file__).parent / "golden"


def quiet_config(**kwargs) -> FeatureMapConfig:
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


# ---------------------------------------------------------------------------
# feature-map plant


def test_fixed_point_at_reference():
    cfg = quiet_config()
    plant = FeatureMapPlant(cfg, np.random.default_rng(0))
    for _ in range(5):
        out = plant.step(cfg.reference_impedance)
    for got, want in zip(out, cfg.reference_features):
        assert got.duration == pytest.approx(want.duration, abs=1e-12)
        assert got.peak_angle == pytest.approx(want.peak_angle, abs=1e-12)


def test_single_affine_evaluation_with_full_smoothing():
    # only the equilibrium-angle column is active: raising the equilibrium
    # by 0.1 rad must raise the peak by 0.01 rad and leave durations alone
    sens = np.zeros((4, 2, 3))
    sens[:, 1, 2] = 0.1
    cfg = quiet_config(sensitivity=sens, smoothing=1.0)
    plant = FeatureMapPlant(cfg, np.random.default_rng(0))
    ref = cfg.reference_impedance
    shifted = ref.copy()
    shifted[Phase.STANCE_FLEXION - 1, 2] += 0.1
    out = plant.step(shifted)
    want = cfg.reference_features
    assert out[0].peak_angle == pytest.approx(want[0].peak_angle + 0.01, abs=1e-12)
    assert out[0].duration == pytest.approx(want[0].duration, abs=1e-12)
    for got, ref_f in zip(out[1:], want[1:]):
        assert got.peak_angle == pytest.approx(ref_f.peak_angle, abs=1e-12)


def test_geometric_convergence_to_steady_state():
    cfg = quiet_config()
    plant = FeatureMapPlant(cfg, np.random.default_rng(0))
    imp = cfg.reference_impedance * [1.1, 0.9, 1.05]
    target = plant.steady_state(imp)
    prev_gap = None
    for _ in range(8):
        got = profile_to_array(plant.step(imp))
        gap = np.abs(got - target)
        if prev_gap is not None:
            mask = prev_gap > 1e-13
            ratios = gap[mask] / prev_gap[mask]
            np.testing.assert_allclose(ratios, 1.0 - cfg.smoothing, rtol=1e-6)
        prev_gap = gap


def test_same_seed_bitwise_identical():
    cfg = FeatureMapConfig.default()
    a = FeatureMapPlant(cfg, np.random.default_rng(1234))
    b = FeatureMapPlant(cfg, np.random.default_rng(1234))
    imp = cfg.reference_impedance
    for _ in range(20):
        pa = profile_to_array(a.step(imp))
        pb = profile_to_array(b.step(imp))
        assert np.array_equal(pa, pb)


def test_emitted_features_always_valid():
    cfg = FeatureMapConfig(
        reference_impedance=FeatureMapConfig.default().reference_impedance,
        reference_features=FeatureMapConfig.default().reference_features,
        sensitivity=FeatureMapConfig.default().sensitivity,
        noise_std=(0.2, 0.8),  # absurd noise to force clipping
    )
    plant = FeatureMapPlant(cfg, np.random.default_rng(7))
    for _ in range(200):
        for feat in plant.step(cfg.reference_impedance):
            assert feat.duration > 0
            assert 0.0 <= feat.peak_angle <= 1.6


def test_pace_passthrough_scales_durations_only():
    cfg = quiet_config()
    plant = FeatureMapPlant(cfg, np.random.default_rng(0))
    ref = cfg.reference_impedance
    steady_1 = plant.steady_state(ref, pace=1.0)
    steady_fast = plant.steady_state(ref, pace=1.25)
    assert np.array_equal(steady_1[:, 1], steady_fast[:, 1])
    eta = cfg.pace_passthrough
    np.testing.assert_allclose(steady_fast[:, 0],
                               steady_1[:, 0] * (eta / 1.25 + 1 - eta), rtol=1e-12)


# ---------------------------------------------------------------------------
# torque-law knee


def ode_impedance():
    return np.array([
        [20.0, 1.0, 0.60],
        [20.0, 1.0, 0.15],
        [20.0, 1.0, 1.00],
        [20.0, 1.0, 0.12],
    ])


def test_ode_knee_qualitative_bounds():
    # stance flexion drives the knee from 0.08 rad toward an equilibrium
    # below 0.6 rad; its peak must fall strictly between the two
    plant = OdeKneePlant(OdeKneeConfig())
    out = plant.step(ode_impedance())
    assert 0.1 < out[0].peak_angle < 0.6
    for feat in out:
        assert feat.duration > 0


def test_ode_knee_four_distinguishable_phases():
    plant = OdeKneePlant(OdeKneeConfig())
    out = plant.step(ode_impedance())
    # swing flexion peaks far above stance flexion; extensions end low
    assert out[2].peak_angle > out[0].peak_angle + 0.2


def test_ode_knee_golden_values():
    plant = OdeKneePlant(OdeKneeConfig())
    out = [plant.step(ode_impedance()) for _ in range(2)][-1]
    golden = json.loads((GOLDEN / "ode_knee_cycle.json").read_text())
    for feat, want in zip(out, golden["features"]):
        assert feat.duration == pytest.approx(want[0], abs=1e-12)
        assert feat.peak_angle == pytest.approx(want[1], abs=1e-12)


def test_ode_knee_damping_lengthens_phases():
    base = OdeKneePlant(OdeKneeConfig()).step(ode_impedance())
    damped_set = ode_impedance()
    damped_set[:, 1] = 3.0
    damped = OdeKneePlant(OdeKneeConfig()).step(damped_set)
    assert cycle_duration(damped) > cycle_duration(base)


def test_ode_knee_instability_detected():
    # negative-damping equivalent: a huge stiffness with tiny inertia makes
    # the integrator blow up, which must surface as a plant fault
    cfg = OdeKneeConfig(inertia=0.001, timestep=0.01)
    plant = OdeKneePlant(cfg)
    hot = ode_impedance()
    hot[:, :2] = (100.0, 0.0)
    with pytest.raises(PlantInstabilityError):
        for _ in range(5):
            plant.step(hot)


# ---------------------------------------------------------------------------
# target program


def base_profile():
    return FeatureMapConfig.default().reference_features


def test_constant_target_without_schedule_or_drift():
    program = TargetProgram(base_profile=base_profile())
    first = program.target_for(0)
    for k in (1, 5, 50, 499):
        assert program.target_for(k) == first


def test_terrain_switches_exactly_on_schedule():
    pool = (base_profile(),
            tuple(GaitFeatures(f.duration * 1.02, f.peak_angle + 0.02) for f in base_profile()),
            tuple(GaitFeatures(f.duration * 0.98, f.peak_angle - 0.02) for f in base_profile()))
    schedule = (0, 1, 2, 1)
    program = TargetProgram(base_profile=pool[0], profile_pool=pool,
                            switch_period=20, schedule=schedule)
    for k in range(80):
        expected = schedule[min(k // 20, 3)]
        assert program.profile_index(k) == expected
    assert program.target_for(19) != program.target_for(20)
    assert program.target_for(20) == program.target_for(39)


def test_pace_scaling_divides_durations_only():
    program = TargetProgram(base_profile=base_profile(), pace_sequence=(1.0, 1.12))
    normal = program.target_for(0, pace_index=0)
    fast = program.target_for(0, pace_index=1)
    for a, b in zip(normal, fast):
        assert b.duration == pytest.approx(a.duration / 1.12, rel=1e-12)
        assert b.peak_angle == a.peak_angle  # bit-identical


def test_drift_follows_lowpassed_error():
    program = TargetProgram(base_profile=base_profile(), drift_gain=0.1,
                            drift_smoothing=0.5)
    before = program.target_for(0)
    errs = alignment_errors(
        tuple(GaitFeatures(f.duration + 0.02, f.peak_angle + 0.05) for f in base_profile()),
        base_profile())
    for _ in range(50):
        program.observe_error(errs)
    after = program.target_for(0)
    assert after[0].peak_angle == pytest.approx(before[0].peak_angle + 0.1 * 0.05, abs=1e-6)
    assert after[0].duration == pytest.approx(before[0].duration + 0.1 * 0.02, abs=1e-6)


def test_switch_schedule_never_repeats_adjacent():
    rng = np.random.default_rng(11)
    schedule = switch_schedule(5, 60, rng)
    assert len(schedule) == 60
    assert all(a != b for a, b in zip(schedule, schedule[1:]))
    assert all(0 <= v < 5 for v in schedule)


# ---------------------------------------------------------------------------
# measurement alignment


def test_alignment_zero_error_at_steady_state():
    profile = base_profile()
    assert np.array_equal(alignment_errors(profile, profile), np.zeros((4, 2)))


def test_alignment_same_index_pairing():
    # each phase is paired with the same phase of the same cycle: a shift
    # of one phase shows up in that phase's error only
    target = base_profile()
    measured = tuple(GaitFeatures(f.duration - 0.001 * i, f.peak_angle + 0.01 * i)
                     for i, f in enumerate(target))
    for i, (err, y, z) in enumerate(zip(alignment_errors(target, measured), target, measured)):
        assert err[0] == y.duration - z.duration
        assert err[1] == y.peak_angle - z.peak_angle
        assert err[1] == pytest.approx(-0.01 * i)
