"""Independent re-evaluation oracles shared by the unit and acceptance tests.

Everything here is deliberately written with plain Python loops and the
closed-form activation formula, so it exercises none of the library's
vectorized code paths.  The torque-law knee has two references: the
per-substep phase-machine loop its step replaced, and an event-exact
``solve_ivp`` integration of the same phase machine.  The initial
impedance draw has one: the one-candidate-at-a-time loop its block draw
replaced.  The dHDP contractions have one: the matmul forms that numpy's
vecdot/matvec/vecmat gufuncs replaced.  The saturations have one each: the
activation's np.minimum(np.maximum(...)) and clip_features' np.clip, which
ndarray.clip replaced.  The lockstep's convergence windows have one: a
sliding window over one phase's in-tolerance history.  Its learning step
has one: each trial's dHDP rules on its own nets, the critic stepping
only where it has a lag, and the impedance moved one phase at a time.
The trial CSV writer has one: ``_fmt``, the cell text of the per-row
``csv.writer`` loop the columnar writer replaced.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from kneetrack import harness
from kneetrack.core import KNEE_ANGLE_MAX, NUM_PHASES, GaitFeatures, Phase
from kneetrack.dhdp import (
    ActorNet,
    CriticNet,
    NumericFaultError,
    actor_eval,
    actor_forward,
    actor_update,
    critic_eval,
    critic_forward,
    critic_update,
    scale_action,
    stability_monitor,
    stage_cost,
    td_error,
)
from kneetrack.fsm import MIN_DWELL, PEAK_VELOCITY_EPS, apply_delta, flexion_peaked, joint_torque
from kneetrack.plant import (
    MIN_DURATION,
    PlantInstabilityError,
    alignment_errors,
    clip_features,
    cycle_duration,
)


def sigmoid(x: float) -> float:
    if x == 0:
        return 0.0
    return (1.0 - math.exp(-x)) / (1.0 + math.exp(-x))


def loop_critic(net, s, u) -> float:
    z = list(s) + list(u)
    total = 0.0
    for i in range(net.hidden_size):
        pre = sum(net.w_hidden[i, j] * z[j] for j in range(5))
        total += net.w_out[i] * sigmoid(pre)
    return total


def loop_actor(net, s):
    hidden = []
    for i in range(net.hidden_size):
        pre = sum(net.w_hidden[i, j] * s[j] for j in range(2))
        hidden.append(sigmoid(pre))
    out = []
    for j in range(3):
        pre = sum(net.w_out[j, i] * hidden[i] for i in range(net.hidden_size))
        out.append(sigmoid(pre))
    return out


def critic_loss(net, s, u, q_prev, cost_prev, discount) -> float:
    return 0.5 * td_error(critic_forward(net, s, u), q_prev, cost_prev, discount) ** 2


def critic_fd_grads(net, s, u, q_prev, cost_prev, discount, h=1e-6):
    """Central finite differences of the half squared TD error."""
    gh = np.zeros_like(net.w_hidden)
    for i in range(net.w_hidden.shape[0]):
        for j in range(net.w_hidden.shape[1]):
            wp = net.w_hidden.copy(); wp[i, j] += h
            wm = net.w_hidden.copy(); wm[i, j] -= h
            lp = critic_loss(CriticNet(wp, net.w_out), s, u, q_prev, cost_prev, discount)
            lm = critic_loss(CriticNet(wm, net.w_out), s, u, q_prev, cost_prev, discount)
            gh[i, j] = (lp - lm) / (2 * h)
    go = np.zeros_like(net.w_out)
    for i in range(net.w_out.shape[0]):
        wp = net.w_out.copy(); wp[i] += h
        wm = net.w_out.copy(); wm[i] -= h
        lp = critic_loss(CriticNet(net.w_hidden, wp), s, u, q_prev, cost_prev, discount)
        lm = critic_loss(CriticNet(net.w_hidden, wm), s, u, q_prev, cost_prev, discount)
        go[i] = (lp - lm) / (2 * h)
    return gh, go


def actor_loss(actor, critic, s) -> float:
    u = actor_forward(actor, s)
    return 0.5 * critic_forward(critic, s, u) ** 2


def actor_fd_grads(actor, critic, s, h=1e-6):
    """Central finite differences of half the squared critic value."""
    gh = np.zeros_like(actor.w_hidden)
    for i in range(actor.w_hidden.shape[0]):
        for j in range(actor.w_hidden.shape[1]):
            wp = actor.w_hidden.copy(); wp[i, j] += h
            wm = actor.w_hidden.copy(); wm[i, j] -= h
            gh[i, j] = (actor_loss(ActorNet(wp, actor.w_out), critic, s)
                        - actor_loss(ActorNet(wm, actor.w_out), critic, s)) / (2 * h)
    go = np.zeros_like(actor.w_out)
    for i in range(actor.w_out.shape[0]):
        for j in range(actor.w_out.shape[1]):
            wp = actor.w_out.copy(); wp[i, j] += h
            wm = actor.w_out.copy(); wm[i, j] -= h
            go[i, j] = (actor_loss(ActorNet(actor.w_hidden, wp), critic, s)
                        - actor_loss(ActorNet(actor.w_hidden, wm), critic, s)) / (2 * h)
    return gh, go


def loop_monitor_bounds(critic, actor, c_tape, a_tape, params):
    """Plain-Python re-evaluation of the learning-rate ceilings."""
    g = params.discount
    hc, ha = critic.hidden_size, actor.hidden_size
    a_vec = [0.5 * (1 - c_tape.phi[i] ** 2) * critic.w_out[i] for i in range(hc)]
    z_sq = sum(v * v for v in c_tape.z)
    phi_c_sq = sum(v * v for v in c_tape.phi)
    a_sq = sum(v * v for v in a_vec)
    denom_c = g * g * params.alpha1 * (phi_c_sq + a_sq * z_sq / params.alpha1)
    bound_c = (params.alpha1 - g) / denom_c if denom_c > 0 else math.inf

    wc = []
    for j in range(3):
        total = 0.0
        for i in range(hc):
            total += (critic.w_out[i] * 0.5 * (1 - c_tape.phi[i] ** 2)
                      * critic.w_hidden[i, 2 + j] * 0.5 * (1 - a_tape.output[j] ** 2))
        wc.append(total)
    wcd = []
    for i in range(ha):
        total = 0.0
        for j in range(3):
            total += wc[j] * actor.w_out[j, i] * 0.5 * (1 - a_tape.phi[i] ** 2)
        wcd.append(total)
    phi_a_sq = sum(v * v for v in a_tape.phi)
    s_sq = sum(v * v for v in a_tape.state)
    denom_a = (params.alpha3 * sum(v * v for v in wc) * phi_a_sq
               + params.alpha2 * sum(v * v for v in wcd) * s_sq)
    bound_a = (params.alpha3 - params.alpha2) / denom_a if denom_a > 0 else math.inf
    return bound_c, bound_a


# The contractions the dHDP rules made before they used np.vecdot, np.matvec
# and np.vecmat: each one a matmul of a single net's core shapes.

def matmul_dot(x, y):
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def matmul_matvec(m, v):
    return (m @ v[..., None])[..., 0]


def matmul_vecmat(v, m):
    return (v[..., None, :] @ m)[..., 0, :]


# the open-interval bound of dhdp.activation, the largest double below 1
_OPEN_ONE = float(np.nextafter(1.0, 0.0))


def minmax_activation(x):
    """dhdp.activation as two ufuncs, np.maximum then np.minimum, before ndarray.clip."""
    return np.minimum(np.maximum(np.tanh(0.5 * np.asarray(x, dtype=float)), -_OPEN_ONE),
                      _OPEN_ONE)


def np_clip_features(values):
    """plant.clip_features as written with np.clip and a write-back, before ndarray.clip."""
    clipped = np.array(values, dtype=float)
    clipped[..., 0] = np.maximum(clipped[..., 0], MIN_DURATION)
    clipped[..., 1] = np.clip(clipped[..., 1], 0.0, KNEE_ANGLE_MAX)
    return clipped


def array_to_profile(values):
    """Four ``GaitFeatures`` of (4, 2) features, made legal by ``clip_features``."""
    return tuple(GaitFeatures(float(d), float(p)) for d, p in clip_features(values))


def convergence_check(history, window: int = 10, quota: int = 8) -> int | None:
    """First index at which a sliding window holds enough in-tolerance flags.

    Returns the 0-based cycle index where convergence latched, or None if
    the quota was never met anywhere in the history.  A lockstep applies
    the same rule to every trial and phase at once, one cycle at a time.
    """
    flags: deque = deque(maxlen=window)
    for k, flag in enumerate(history):
        flags.append(bool(flag))
        if sum(flags) >= quota:
            return k
    return None


@dataclass
class LearnStep:
    """What one trial's learning step leaves.

    ``ending`` is the failure reason the step ends the trial with, or None.
    A numeric fault keeps nothing: then only ``monitor_ok`` is set, and the
    trial's record counts its failed reports.  Otherwise the step keeps its nets,
    its lag (the critic's value and cost), its impedance, the largest
    absolute weight of its new nets, and its learning log ``fields``: the
    (4,) column of each name in ``harness._LEARNING_FIELDS`` and ``clamped``.
    """

    monitor_ok: np.ndarray
    ending: str | None = None
    critic: CriticNet | None = None
    actor: ActorNet | None = None
    lag: tuple[np.ndarray, np.ndarray] | None = None
    impedance: np.ndarray | None = None
    weight_norm: float | None = None
    fields: dict | None = None


def reference_learn(cfg, critic, actor, state, impedance, lag=None) -> LearnStep:
    """One trial's learning step, alone on its own (4, .) nets.

    ``state`` is the (4, 2) network input, ``impedance`` the (4, 3) impedance
    the deltas add to, and ``lag`` the previous cycle's (value, cost), or
    None when the trial has none.  The critic steps on the TD error only
    where there is a lag; the actor always steps.  Each phase's delta goes
    through ``apply_delta`` on its own.  A numeric fault ends the trial, as
    does, under ``cfg.strict_monitor``, a monitor report that fails.
    """
    dhdp = cfg.dhdp
    a_tape = actor_eval(actor, state)
    cost = stage_cost(state, a_tape.output, dhdp.cost)
    c_tape = critic_eval(critic, state, a_tape.output)
    report = stability_monitor(critic, actor, c_tape, a_tape, dhdp.monitor_params(),
                               dhdp.critic_lr, dhdp.actor_lr)
    monitor_ok = report.critic_ok & report.actor_ok
    td = np.zeros(NUM_PHASES)
    try:
        if lag is not None:
            td = td_error(c_tape.value, lag[0], lag[1], dhdp.discount)
            critic = critic_update(critic, td, c_tape, dhdp.critic_lr, dhdp.discount)
            c_tape = critic_eval(critic, state, a_tape.output)
        actor = actor_update(actor, critic, c_tape, a_tape, dhdp.actor_lr)
    except NumericFaultError as exc:
        return LearnStep(monitor_ok, ending=f"numeric-fault: {exc}")

    delta = scale_action(a_tape.output, dhdp.action_scale.half_ranges)
    clamped = []
    for phase in Phase:
        impedance, flag = apply_delta(impedance, phase, delta[phase - 1], cfg.ranges)
        clamped.append(flag)
    weights = [w for net in (critic, actor) for w in (net.w_hidden, net.w_out)]
    columns = [*a_tape.output.T, *delta.T, cost, c_tape.value, td, report.critic_bound,
               report.actor_bound, monitor_ok, np.full(NUM_PHASES, lag is not None), clamped]
    return LearnStep(
        monitor_ok,
        ending="monitor-violation" if cfg.strict_monitor and not monitor_ok.all() else None,
        critic=critic, actor=actor, lag=(c_tape.value, cost), impedance=impedance,
        weight_norm=max(float(np.abs(w).max()) for w in weights),
        fields=dict(zip(harness._LEARNING_FIELDS + ("clamped",), map(np.asarray, columns))))


@dataclass(frozen=True)
class FsmState:
    """Current phase plus elapsed time in the phase and in the cycle."""

    phase: Phase
    phase_elapsed: float = 0.0
    cycle_elapsed: float = 0.0

    def __post_init__(self):
        if self.phase_elapsed < 0.0 or self.cycle_elapsed < 0.0:
            raise ValueError("elapsed times must be non-negative")
        if self.phase_elapsed > self.cycle_elapsed + 1e-12:
            raise ValueError("phase time cannot exceed cycle time")


_NEXT_PHASE = {
    Phase.STANCE_FLEXION: Phase.STANCE_EXTENSION,
    Phase.STANCE_EXTENSION: Phase.SWING_FLEXION,
    Phase.SWING_FLEXION: Phase.SWING_EXTENSION,
    Phase.SWING_EXTENSION: Phase.STANCE_FLEXION,
}


def step_fsm(
    state: FsmState,
    dt: float,
    angle: float,
    velocity: float,
    heel_strike: bool = False,
    toe_off: bool = False,
    prev_velocity: float | None = None,
) -> FsmState:
    """Advance the phase machine by one timestep.

    Transition rules: the flexion phases end at their kinematic peak (the
    angular velocity crossing from rising to falling), stance extension
    ends at toe-off, and swing extension ends at heel strike, which also
    starts a new cycle.  At most one transition fires per step, so the
    emitted phase sequence can never skip a phase.

    When the caller can supply the previous timestep's velocity, the peak
    is the true sign change (previous above, current at or below the
    threshold); otherwise a low current velocity after the minimum dwell
    is taken as the peak.
    """
    if dt < 0.0:
        raise ValueError("dt must be non-negative")
    phase_elapsed = state.phase_elapsed + dt
    cycle_elapsed = state.cycle_elapsed + dt

    phase = state.phase
    transition = False
    if phase in (Phase.STANCE_FLEXION, Phase.SWING_FLEXION):
        transition = flexion_peaked(phase_elapsed, velocity, prev_velocity)
    elif phase is Phase.STANCE_EXTENSION:
        transition = toe_off
    elif phase is Phase.SWING_EXTENSION:
        transition = heel_strike

    if not transition:
        return FsmState(phase, phase_elapsed, cycle_elapsed)

    next_phase = _NEXT_PHASE[phase]
    if next_phase is Phase.STANCE_FLEXION:
        cycle_elapsed = 0.0
    return FsmState(next_phase, 0.0, cycle_elapsed)


def loop_ode_step(plant, imp):
    """One cycle of ``plant`` (an OdeKneePlant) walked through the phase machine.

    Every Euler substep builds an :class:`FsmState` through ``step_fsm``, as
    the plant's step once did; the plant's own step must equal it bit for bit.
    """
    cfg = plant.config
    dt = cfg.timestep
    state = FsmState(Phase.STANCE_FLEXION)
    durations = np.zeros(NUM_PHASES)
    peaks = np.full(NUM_PHASES, plant._angle)
    rows = imp.tolist()

    while True:
        phase = state.phase
        triple = rows[phase - 1]
        load = cfg.load_torque[phase - 1]

        accel = (-joint_torque(triple, plant._angle, plant._velocity) + load) / cfg.inertia
        prev_velocity = plant._velocity
        plant._velocity += dt * accel
        if not abs(plant._velocity) <= cfg.velocity_limit:  # a NaN velocity diverged too
            raise PlantInstabilityError(
                f"knee velocity {plant._velocity:.1f} rad/s exceeds "
                f"{cfg.velocity_limit} rad/s in phase {phase.short_name}"
            )
        plant._angle += dt * plant._velocity
        if plant._angle <= 0.0:
            plant._angle, plant._velocity = 0.0, 0.0
        elif plant._angle >= KNEE_ANGLE_MAX:
            plant._angle, plant._velocity = KNEE_ANGLE_MAX, 0.0

        idx = phase - 1
        durations[idx] += dt
        peaks[idx] = max(peaks[idx], plant._angle)

        threshold = (cfg.toe_off_angle if phase is Phase.STANCE_EXTENSION
                     else cfg.heel_strike_angle)
        extended = (
            plant._angle < threshold
            and plant._velocity <= 0.0
            and state.phase_elapsed + dt > 2 * dt
        )
        timed_out = durations[idx] >= cfg.max_phase_time
        fire_event = extended or timed_out
        next_state = step_fsm(
            state, dt, plant._angle, plant._velocity,
            heel_strike=fire_event and phase is Phase.SWING_EXTENSION,
            toe_off=fire_event and phase is Phase.STANCE_EXTENSION,
            prev_velocity=prev_velocity,
        )
        if next_state.phase is Phase.STANCE_FLEXION and phase is not Phase.STANCE_FLEXION:
            break
        if next_state.phase is not phase:
            peaks[next_state.phase - 1] = plant._angle
        elif timed_out and phase in (Phase.STANCE_FLEXION, Phase.SWING_FLEXION):
            # flexion peak never materialized (e.g. zero stiffness); force on
            next_state = FsmState(Phase(phase + 1), 0.0, next_state.cycle_elapsed)
            peaks[next_state.phase - 1] = plant._angle
        state = next_state

    return array_to_profile(np.column_stack([durations, peaks]))


def loop_draw_initial_impedance(cfg, plant, target, rng):
    """``harness.draw_initial_impedance`` as it drew one candidate at a time.

    The body is the former function's, with the harness names it used
    read from the module at call time, so a test may patch them; the
    block-drawing function must return the same impedance bytes.
    """
    reference = cfg.feature_map.reference_impedance
    spread = cfg.init_spread
    target_dur = cycle_duration(target)
    limits = harness._margin_limits(cfg.bounds, harness.FEASIBILITY_MARGIN)
    for _ in range(6):
        for _ in range(harness.MAX_INITIAL_DRAWS):
            factors = rng.uniform(1.0 - spread, 1.0 + spread, size=(NUM_PHASES, 3))
            candidate = harness.scaled_impedance(reference, factors)
            errors = alignment_errors(target, harness.steady_profile(plant, candidate))
            # Python's float ** (libm pow) and numpy's square can differ in the
            # last bit; recorded runs and goldens were drawn with the former
            angle_rms = float(np.sqrt(np.mean([p ** 2 for p in errors[:, 1].tolist()])))
            if angle_rms < harness.MIN_INITIAL_ANGLE_RMS:
                continue
            if harness._within(errors, limits, target_dur):
                return candidate
        spread *= 0.7
    raise RuntimeError("could not draw a feasible initial impedance")


def event_ode_cycle(cfg, imp, angle, velocity, rtol=1e-10, atol=1e-12):
    """One torque-law cycle from (angle, velocity), integrated to its exact events.

    The phase machine of ``OdeKneePlant.step`` in continuous time, walked by
    ``scipy.integrate.solve_ivp``: a flexion phase ends when, after
    ``MIN_DWELL``, the velocity falls through ``PEAK_VELOCITY_EPS`` (or at the
    upper joint stop, which zeroes it); an extension phase ends once the
    angle is below its toe-off or heel-strike threshold with the velocity at
    or below zero; any phase ends at ``max_phase_time``.  At a joint stop the
    velocity is zeroed and integration restarts, unless the torque holds the
    knee against the stop.  Returns the (4, 2) features, the end angle and
    the end velocity.
    """
    from scipy.integrate import solve_ivp

    def event(fn, direction, terminal=True):
        fn.direction, fn.terminal = direction, terminal
        return fn

    features = []
    for phase, row, load in zip(Phase, imp.tolist(), cfg.load_torque):
        flexion = phase in (Phase.STANCE_FLEXION, Phase.SWING_FLEXION)
        threshold = (cfg.toe_off_angle if phase is Phase.STANCE_EXTENSION
                     else cfg.heel_strike_angle)

        def accel(y, row=row, load=load):
            return (-joint_torque(row, y[0], y[1]) + load) / cfg.inertia

        stops = [event(lambda t, y: y[0], -1),
                 event(lambda t, y: y[0] - KNEE_ANGLE_MAX, 1)]
        turn = event(lambda t, y: y[1], -1, terminal=False)  # local angle maxima
        peaked = event(lambda t, y: y[1] - PEAK_VELOCITY_EPS, -1)
        extended = event(lambda t, y: max(y[0] - threshold, y[1]), -1)

        t, y, peak = 0.0, np.array([angle, velocity]), angle
        while True:
            if not flexion and max(y[0] - threshold, y[1]) <= 0.0:
                break
            at_stop = y[1] == 0.0 and y[0] in (0.0, KNEE_ANGLE_MAX)
            if at_stop and (accel(y) <= 0.0) == (y[0] == 0.0):
                t = cfg.max_phase_time  # held against the stop until the timeout
                break
            dwelling = flexion and t < MIN_DWELL
            events = stops + [turn] + ([] if dwelling else [peaked if flexion else extended])
            sol = solve_ivp(lambda t, y: (y[1], accel(y)), (t, MIN_DWELL if dwelling
                                                           else cfg.max_phase_time),
                            y, method="DOP853", events=events, rtol=rtol, atol=atol)
            t, y = sol.t[-1], sol.y[:, -1].copy()
            peak = max([peak, y[0]] + [v[0] for v in sol.y_events[2]])
            if sol.status == 0:
                if dwelling:
                    continue
                break  # timed out
            fired = [i for i, times in enumerate(sol.t_events) if i != 2 and len(times)]
            if fired[0] >= 3:
                break  # flexion peak, or extended past the threshold
            y = np.array([(0.0, KNEE_ANGLE_MAX)[fired[0]], 0.0])
            peak = max(peak, y[0])
            if flexion and fired[0] == 1 and not dwelling:
                break  # the upper stop zeroes a rising velocity: the flexion peak
        features.append((t, peak))
        angle, velocity = float(y[0]), float(y[1])
    return np.array(features), angle, velocity


def _fmt(value) -> str:
    """One CSV cell: None empty, a flag 1 or 0, a float its ``repr``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)
