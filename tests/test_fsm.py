"""Phase machine, torque law and parameter application."""

import itertools
import math

import numpy as np
import pytest

from kneetrack.core import Phase
from kneetrack.fsm import (
    MIN_DWELL,
    PEAK_VELOCITY_EPS,
    ParameterRanges,
    PhaseRanges,
    apply_delta,
    flexion_peaked,
    joint_torque,
)
from oracles import FsmState, step_fsm


def make_set(k=10.0, b=1.0, eq=0.2):
    return np.tile([k, b, eq], (4, 1))


# ---------------------------------------------------------------------------
# torque law


def test_torque_zero_at_equilibrium_at_rest():
    imp = np.array([10.0, 1.0, 0.2])
    assert joint_torque(imp, angle=0.2, velocity=0.0) == 0.0


def test_torque_direct_evaluation():
    imp = np.array([2.0, 0.1, 0.0])
    assert joint_torque(imp, angle=0.5, velocity=1.0) == pytest.approx(1.1)


def test_torque_pure_damping():
    imp = np.array([0.0, 0.5, 0.7])
    assert joint_torque(imp, angle=1.2, velocity=-2.0) == pytest.approx(-1.0)


def test_torque_linear_in_deflection_and_velocity():
    rng = np.random.default_rng(2)
    imp = np.array([12.0, 0.8, 0.3])
    eq = imp[2]
    for _ in range(50):
        th, om, a = rng.uniform(0, 1.6), rng.uniform(-3, 3), rng.uniform(-2, 2)
        base = joint_torque(imp, eq, 0.0)
        assert base == 0.0
        t1 = joint_torque(imp, th, om)
        t2 = joint_torque(imp, eq + a * (th - eq), a * om)
        assert t2 == pytest.approx(a * t1, abs=1e-12)


def test_torque_zero_impedance_is_identically_zero():
    imp = np.zeros(3)
    for th, om in [(0.1, -2.0), (1.5, 3.0), (0.0, 0.0)]:
        assert joint_torque(imp, th, om) == 0.0


# ---------------------------------------------------------------------------
# parameter deltas


def test_apply_delta_zero_is_identity():
    imp = make_set()
    out, clamped = apply_delta(imp, Phase.STANCE_FLEXION, np.zeros(3),
                               ParameterRanges.default())
    assert not clamped
    assert np.array_equal(out, imp)


def test_apply_delta_adds_componentwise():
    imp = make_set(k=10.0)
    out, clamped = apply_delta(imp, Phase.SWING_FLEXION, [2.0, 0.0, 0.0],
                               ParameterRanges.default())
    assert not clamped
    assert out[Phase.SWING_FLEXION - 1, 0] == pytest.approx(12.0)
    # other phases untouched
    for phase in (Phase.STANCE_FLEXION, Phase.STANCE_EXTENSION, Phase.SWING_EXTENSION):
        assert np.array_equal(out[phase - 1], imp[phase - 1])


def test_apply_delta_never_writes_its_input():
    imp = make_set(k=0.5)
    before = imp.copy()
    for delta in ([2.0, 0.1, 0.1], [-2.0, 0.0, 0.0]):
        out, _ = apply_delta(imp, Phase.STANCE_FLEXION, delta, ParameterRanges.default())
        assert out is not imp
        assert np.array_equal(imp, before)


def test_apply_delta_rejects_non_finite_delta():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            apply_delta(make_set(), Phase.STANCE_FLEXION, [0.0, bad, 0.0],
                        ParameterRanges.default())


def test_apply_delta_clamps_and_flags():
    imp = make_set(k=0.5)
    out, clamped = apply_delta(imp, Phase.STANCE_FLEXION, [-2.0, 0.0, 0.0],
                               ParameterRanges.default())
    assert clamped is True
    assert out[Phase.STANCE_FLEXION - 1, 0] == 0.0


def test_apply_delta_invertible_without_clamping():
    rng = np.random.default_rng(3)
    ranges = ParameterRanges.default()
    for _ in range(100):
        imp = make_set(k=float(rng.uniform(10, 40)), b=float(rng.uniform(0.5, 2)),
                       eq=float(rng.uniform(0.2, 1.0)))
        delta = np.array([rng.uniform(-5, 5), rng.uniform(-0.4, 0.4),
                          rng.uniform(-0.1, 0.1)])
        phase = Phase(int(rng.integers(1, 5)))
        fwd, clamped = apply_delta(imp, phase, delta, ranges)
        if clamped:
            continue
        back, _ = apply_delta(fwd, phase, -delta, ranges)
        np.testing.assert_allclose(back, imp, rtol=0.0, atol=1e-12)


def test_apply_delta_output_always_valid():
    rng = np.random.default_rng(4)
    ranges = ParameterRanges.default()
    imp = make_set()
    for _ in range(300):
        delta = [rng.uniform(-200, 200), rng.uniform(-10, 10), rng.uniform(-3, 3)]
        phase = Phase(int(rng.integers(1, 5)))
        imp, _ = apply_delta(imp, phase, delta, ranges)
        stiffness, damping, equilibrium = imp[phase - 1]
        limits = ranges.phases[phase - 1]
        assert limits.stiffness[0] <= stiffness <= limits.stiffness[1]
        assert limits.damping[0] <= damping <= limits.damping[1]
        assert limits.equilibrium[0] <= equilibrium <= limits.equilibrium[1]


def test_phase_ranges_stay_inside_the_physical_domain():
    PhaseRanges(stiffness=(0.0, 0.0), equilibrium=(0.0, 1.6))
    for bad in (dict(stiffness=(-50.0, 100.0)), dict(damping=(-0.1, 5.0)),
                dict(equilibrium=(-0.1, 1.0)), dict(equilibrium=(0.0, 1.7)),
                dict(stiffness=(10.0, 5.0)), dict(damping=(float("nan"), 1.0))):
        with pytest.raises(ValueError, match=next(iter(bad))):
            PhaseRanges(**bad)


# ---------------------------------------------------------------------------
# flexion peak


def around(value):
    """``value`` and one ulp either side of it."""
    return (math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf))


ELAPSED = around(MIN_DWELL)
VELOCITIES = around(PEAK_VELOCITY_EPS) + (-0.0, math.nan)
PREVIOUS = (None, -0.0, math.nan) + around(PEAK_VELOCITY_EPS)


def peaked_by_and(phase_elapsed, velocity, prev_velocity):
    """The rule as a chain of ``and``, which takes floats only."""
    return (phase_elapsed >= MIN_DWELL and velocity <= PEAK_VELOCITY_EPS
            and (prev_velocity is None or prev_velocity > PEAK_VELOCITY_EPS))


def test_flexion_peak_on_floats_at_its_thresholds():
    # a bool, and the one the chain of ``and`` gives
    for case in itertools.product(ELAPSED, VELOCITIES, PREVIOUS):
        got = flexion_peaked(*case)
        assert type(got) is bool and got == peaked_by_and(*case), case


@pytest.mark.parametrize("elapsed", ELAPSED)
def test_flexion_peak_on_arrays_flags_each_velocity_as_alone(elapsed):
    pairs = list(itertools.product(VELOCITIES, PREVIOUS[1:]))  # None is its own case below
    velocity, prev = np.array(pairs).T
    for previous, wanted in ((prev, [flexion_peaked(elapsed, *pair) for pair in pairs]),
                             (None, [flexion_peaked(elapsed, v) for v, _ in pairs])):
        got = np.broadcast_to(flexion_peaked(elapsed, velocity, previous), velocity.shape)
        assert got.tolist() == wanted


# ---------------------------------------------------------------------------
# phase machine (the oracles' per-substep reference for the torque-law knee)


def advance(state, dt, n, **kw):
    for _ in range(n):
        state = step_fsm(state, dt, **kw)
    return state


def test_stance_flexion_ends_at_velocity_peak():
    state = FsmState(Phase.STANCE_FLEXION)
    state = advance(state, 0.05, 3, angle=0.3, velocity=1.0)
    assert state.phase is Phase.STANCE_FLEXION
    state = step_fsm(state, 0.05, angle=0.35, velocity=-0.5)
    assert state.phase is Phase.STANCE_EXTENSION
    assert state.phase_elapsed == 0.0


def test_stance_extension_ends_at_toe_off():
    state = FsmState(Phase.STANCE_EXTENSION, 0.1, 0.4)
    state = step_fsm(state, 0.05, angle=0.15, velocity=-0.2)
    assert state.phase is Phase.STANCE_EXTENSION
    state = step_fsm(state, 0.05, angle=0.12, velocity=-0.1, toe_off=True)
    assert state.phase is Phase.SWING_FLEXION


def test_heel_strike_starts_new_cycle():
    state = FsmState(Phase.SWING_EXTENSION, 0.2, 1.1)
    state = step_fsm(state, 0.05, angle=0.1, velocity=-0.3, heel_strike=True)
    assert state.phase is Phase.STANCE_FLEXION
    assert state.cycle_elapsed == 0.0
    assert state.phase_elapsed == 0.0


def test_phase_sequence_never_skips():
    rng = np.random.default_rng(5)
    state = FsmState(Phase.STANCE_FLEXION)
    order = {1: 2, 2: 3, 3: 4, 4: 1}
    last = int(state.phase)
    for _ in range(2000):
        state = step_fsm(
            state, 0.02,
            angle=float(rng.uniform(0, 1.6)),
            velocity=float(rng.uniform(-2, 2)),
            heel_strike=bool(rng.random() < 0.1),
            toe_off=bool(rng.random() < 0.1),
        )
        now = int(state.phase)
        assert now == last or now == order[last]
        last = now


def test_elapsed_times_accumulate():
    state = FsmState(Phase.STANCE_FLEXION)
    state = advance(state, 0.01, 10, angle=0.2, velocity=0.5)
    assert state.phase_elapsed == pytest.approx(0.10)
    assert state.cycle_elapsed == pytest.approx(0.10)


def test_fsm_state_validation():
    with pytest.raises(ValueError):
        FsmState(Phase.STANCE_FLEXION, -0.1, 0.2)
    with pytest.raises(ValueError):
        FsmState(Phase.STANCE_FLEXION, 0.3, 0.2)
