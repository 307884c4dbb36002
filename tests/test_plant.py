"""Surrogate plants and the intact-knee target program."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kneetrack.core import KNEE_ANGLE_MAX, Phase
from kneetrack.plant import (
    MIN_DURATION,
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
    assert out.shape == (4, 2)
    np.testing.assert_allclose(out, profile_to_array(cfg.reference_features),
                               rtol=0.0, atol=1e-12)


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
    want = profile_to_array(cfg.reference_features)
    assert out[0, 1] == pytest.approx(want[0, 1] + 0.01, abs=1e-12)
    assert out[0, 0] == pytest.approx(want[0, 0], abs=1e-12)
    for got, ref_f in zip(out[1:], want[1:]):
        assert got[1] == pytest.approx(ref_f[1], abs=1e-12)


def test_geometric_convergence_to_steady_state():
    cfg = quiet_config()
    plant = FeatureMapPlant(cfg, np.random.default_rng(0))
    imp = cfg.reference_impedance * [1.1, 0.9, 1.05]
    target = plant.steady_state(imp)
    prev_gap = None
    for _ in range(8):
        got = plant.step(imp)
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
        pa = a.step(imp)
        pb = b.step(imp)
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
        for duration, peak in plant.step(cfg.reference_impedance):
            assert duration > 0
            assert 0.0 <= peak <= 1.6


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
    assert cycle_duration(profile_to_array(damped)) > cycle_duration(profile_to_array(base))


def test_ode_knee_instability_detected():
    # negative-damping equivalent: a huge stiffness with tiny inertia makes
    # the integrator blow up, which must surface as a plant fault
    # the fault, its message and the state it leaves match the reference loop
    cfg = OdeKneeConfig(inertia=0.001, timestep=0.01)
    hot = ode_impedance()
    hot[:, :2] = (100.0, 0.0)
    outcomes, plant = assert_step_matches_loop(cfg, hot, cycles=5)
    assert outcomes[-1].startswith("PlantInstabilityError: knee velocity")
    assert abs(plant._velocity) > cfg.velocity_limit


def step_outcome(step, imp) -> str:
    """repr of a cycle's features, or the type and message of its fault."""
    try:
        return repr(step(imp))
    except (PlantInstabilityError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_step_matches_loop(cfg, imp, cycles=4):
    """Walk successive cycles with the plant's step and with the reference loop.

    Features, faults and the (angle, velocity) left behind, even by a fault,
    must agree bit for bit.  Returns the outcomes and the stepped plant.
    """
    fast, loop = OdeKneePlant(cfg), OdeKneePlant(cfg)
    outcomes = []
    for _ in range(cycles):
        got = step_outcome(fast.step, imp)
        want = step_outcome(lambda i: oracles.loop_ode_step(loop, i), imp)
        assert got == want
        assert repr((fast._angle, fast._velocity)) == repr((loop._angle, loop._velocity))
        outcomes.append(got)
        if not got.startswith("("):
            break
    return outcomes, fast


angles = st.floats(0.0, KNEE_ANGLE_MAX)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
                               st.floats(0.0, 5.0), angles), min_size=4, max_size=4),
       inertia=st.floats(0.002, 0.1), timestep=st.floats(0.002, 0.03),
       initial_angle=angles, initial_velocity=st.floats(-8.0, 8.0),
       load_torque=st.tuples(*[st.floats(-6.0, 2.0)] * 4),
       toe_off_angle=angles, heel_strike_angle=angles,
       max_phase_time=st.floats(0.01, 2.0), velocity_limit=st.floats(0.5, 60.0))
def test_ode_step_equals_the_phase_machine_loop(rows, **fields):
    assert_step_matches_loop(OdeKneeConfig(**fields), np.array(rows))


def test_ode_step_equals_the_loop_at_the_upper_stop():
    imp = ode_impedance()
    imp[2] = (40.0, 0.5, KNEE_ANGLE_MAX)
    outcomes, _ = assert_step_matches_loop(OdeKneeConfig(), imp)
    assert f"peak_angle={KNEE_ANGLE_MAX})" in outcomes[0]


def test_ode_step_equals_the_loop_at_the_lower_stop():
    # with zero thresholds the extension phases end only at their timeouts,
    # and swing extension settles against the lower stop
    cfg = OdeKneeConfig(toe_off_angle=0.0, heel_strike_angle=0.0, max_phase_time=0.5)
    _, plant = assert_step_matches_loop(cfg, ode_impedance())
    assert (plant._angle, plant._velocity) == (0.0, 0.0)


def test_ode_step_equals_the_loop_on_flexion_timeouts():
    imp = ode_impedance()
    imp[:, 0] = 0.0  # no stiffness: the flexion peaks never come
    cfg = OdeKneeConfig(max_phase_time=0.3)
    assert_step_matches_loop(cfg, imp)
    features = profile_to_array(OdeKneePlant(cfg).step(imp))
    assert features[0, 0] >= 0.3 and features[2, 0] >= 0.3


def test_ode_step_equals_the_loop_on_a_floored_duration():
    # above its threshold from the start, stance extension ends after its
    # three-substep minimum, 0.6 ms, which the features floor at MIN_DURATION
    cfg = OdeKneeConfig(timestep=2e-4, toe_off_angle=KNEE_ANGLE_MAX)
    outcomes, _ = assert_step_matches_loop(cfg, ode_impedance(), cycles=2)
    assert f"GaitFeatures(duration={MIN_DURATION}," in outcomes[0]


def test_ode_step_equals_the_loop_from_negative_zero():
    # without stiffness stance flexion sits on the lower stop at 0.0, which
    # is no higher than -0.0: the clip keeps that peak's sign
    imp = ode_impedance()
    imp[0] = (0.0, 1.0, 0.0)
    outcomes, _ = assert_step_matches_loop(OdeKneeConfig(initial_angle=-0.0), imp)
    assert "peak_angle=-0.0)" in outcomes[0]


@pytest.mark.parametrize("fields, row", [
    ({}, None),
    ({"initial_velocity": -8.0}, None),               # bounces off the lower stop
    ({}, (2, (40.0, 0.5, KNEE_ANGLE_MAX))),           # swing flexion ends at the upper stop
], ids=["reference", "lower-stop", "upper-stop"])
def test_ode_euler_error_shrinks_toward_the_event_exact_oracle(fields, row):
    # Euler is first order: each tenfold smaller timestep should cut the
    # error against the event-exact trajectory about tenfold
    imp = ode_impedance()
    if row is not None:
        imp[row[0]] = row[1]
    cfg = OdeKneeConfig(**fields)
    angle, velocity = cfg.initial_angle, cfg.initial_velocity
    exact = []
    for _ in range(2):
        features, angle, velocity = oracles.event_ode_cycle(cfg, imp, angle, velocity)
        exact.append(features)
    errors = []
    for dt in (1e-2, 1e-3, 1e-4):
        plant = OdeKneePlant(OdeKneeConfig(timestep=dt, **fields))
        euler = [profile_to_array(plant.step(imp)) for _ in range(2)]
        errors.append(np.abs(np.array(euler) - np.array(exact)).max())
    assert errors[0] > 5 * errors[1] > 25 * errors[2]


# ---------------------------------------------------------------------------
# target program


def base_profile():
    return profile_to_array(FeatureMapConfig.default().reference_features)


def test_constant_target_without_schedule_or_drift():
    program = TargetProgram(base_profile=base_profile())
    first = program.target_for(0)
    for k in (1, 5, 50, 499):
        assert np.array_equal(program.target_for(k), first)


def test_terrain_switches_exactly_on_schedule():
    pool = (base_profile(),
            base_profile() * [1.02, 1.0] + [0.0, 0.02],
            base_profile() * [0.98, 1.0] - [0.0, 0.02])
    schedule = (0, 1, 2, 1)
    program = TargetProgram(base_profile=pool[0], profile_pool=pool,
                            switch_period=20, schedule=schedule)
    for k in range(80):
        expected = schedule[min(k // 20, 3)]
        assert program.profile_index(k) == expected
    assert not np.array_equal(program.target_for(19), program.target_for(20))
    assert np.array_equal(program.target_for(20), program.target_for(39))


def test_pace_scaling_divides_durations_only():
    program = TargetProgram(base_profile=base_profile(), pace_sequence=(1.0, 1.12))
    normal = program.target_for(0, pace_index=0)
    fast = program.target_for(0, pace_index=1)
    for a, b in zip(normal, fast):
        assert b[0] == pytest.approx(a[0] / 1.12, rel=1e-12)
        assert b[1] == a[1]  # bit-identical


def test_drift_follows_lowpassed_error():
    program = TargetProgram(base_profile=base_profile(), drift_gain=0.1,
                            drift_smoothing=0.5)
    before = program.target_for(0)
    errs = alignment_errors(base_profile() + [0.02, 0.05], base_profile())
    for _ in range(50):
        program.observe_error(errs)
    after = program.target_for(0)
    assert after[0, 1] == pytest.approx(before[0, 1] + 0.1 * 0.05, abs=1e-6)
    assert after[0, 0] == pytest.approx(before[0, 0] + 0.1 * 0.02, abs=1e-6)


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
    measured = np.array([[d - 0.001 * i, p + 0.01 * i] for i, (d, p) in enumerate(target)])
    for i, (err, y, z) in enumerate(zip(alignment_errors(target, measured), target, measured)):
        assert err[0] == y[0] - z[0]
        assert err[1] == y[1] - z[1]
        assert err[1] == pytest.approx(-0.01 * i)
