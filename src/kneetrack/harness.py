"""Trial loop, scenario orchestration, metrics and structured logs.

A trial is one continuous run of up to ``max_cycles`` gait cycles in which
the four per-phase learning blocks tune the prosthetic impedance online.
Each cycle: measure target and prosthetic features, form the tracking
error, reset the impedance (keeping all network weights) if any phase
breaches its safety bound, otherwise act, pay the stage cost, update the
critic then the actor, and apply the scaled action to the impedance for
the next cycle.  A phase has converged once any sliding window of
``window`` cycles contains at least ``quota`` in-tolerance cycles; the
trial succeeds when all four phases have converged.

Scenario 1 runs against a fixed target.  Scenario 2 swaps the target
among a pool of profiles on a fixed cycle schedule and requires a given
number of consecutive successfully-tracked segments.  Scenario 3 walks a
sequence of pace multipliers, advancing a leg only once the current one
is tracked, and requires completing the whole sequence.
"""

from __future__ import annotations

import copy
import csv
import json
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    KNEE_ANGLE_MAX,
    BoundsTable,
    NUM_PHASES,
    PHASES,
    PhaseBound,
    check_impedance,
    within_bound,
)
from .dhdp import (
    ActionScale,
    ActorNet,
    CriticNet,
    MonitorParams,
    NumericFaultError,
    StageCostParams,
    actor_eval,
    actor_update,
    critic_eval,
    critic_update,
    init_actor,
    init_critic,
    scale_action,
    stability_monitor,
    stack_nets,
    stage_cost,
    td_error,
    unstack_net,
)
from .fsm import ParameterRanges, apply_delta
from .plant import (
    FeatureMapConfig,
    FeatureMapPlant,
    GaitProfile,
    OdeKneeConfig,
    OdeKneePlant,
    PlantInstabilityError,
    TargetProgram,
    alignment_errors,
    array_to_profile,
    cycle_duration,
    switch_schedule,
)

SCENARIO_LEVEL_GROUND = 1
SCENARIO_TERRAIN = 2
SCENARIO_PACE = 3

# Fraction of the safety bound an initial impedance draw may use up; the
# margin leaves room for measurement noise around the steady-state check.
FEASIBILITY_MARGIN = 0.45
# Minimum pooled peak-angle RMS the initial detuning must produce.  Draws
# below this start essentially on target and would make the tuning run a
# no-op; published initial errors sit well above this floor.
MIN_INITIAL_ANGLE_RMS = 0.04
MAX_INITIAL_DRAWS = 1000


@dataclass(frozen=True)
class DhdpConfig:
    """Hyperparameters shared by the four per-phase learning blocks.

    The networks see the tracking error normalized by the per-phase
    safety bounds (duration error as a fraction of the safety percentage,
    angle error as a fraction of the safety angle), so both state
    components live in [-1, 1] whenever the trial is safe.  Gradient
    magnitudes scale with the squared signal size, which is what makes
    learning rates of this order effective; the per-cycle stability
    monitor reports the matching ceilings.
    """

    critic_hidden: int = 8
    actor_hidden: int = 6
    discount: float = 0.95
    critic_lr: float = 0.1
    actor_lr: float = 30.0
    init_weight_scale: float = 0.5
    cost: StageCostParams = field(default_factory=StageCostParams.default)
    action_scale: ActionScale = field(default_factory=ActionScale.default)
    monitor: MonitorParams | None = None

    def __post_init__(self):
        if not 0.0 < self.discount < 1.0:
            raise ValueError(f"discount must lie in (0, 1), got {self.discount}")

    def monitor_params(self) -> MonitorParams:
        return self.monitor or MonitorParams.for_discount(self.discount)


@dataclass(frozen=True)
class TrialConfig:
    """Everything a single trial needs, independent of batch bookkeeping."""

    scenario: int = SCENARIO_LEVEL_GROUND
    stage: str = "training"
    plant_kind: str = "feature-map"
    max_cycles: int = 500
    window: int = 10
    quota: int = 8
    rms_window: int = 10
    bounds: BoundsTable = field(default_factory=BoundsTable.default)
    ranges: ParameterRanges = field(default_factory=ParameterRanges.default)
    dhdp: DhdpConfig = field(default_factory=DhdpConfig)
    feature_map: FeatureMapConfig = field(default_factory=FeatureMapConfig.default)
    ode: OdeKneeConfig = field(default_factory=OdeKneeConfig)
    init_spread: float = 0.3
    pool_size: int = 5
    pool_spread: float = 0.06
    switch_period: int = 20
    consecutive_tracks: int = 3
    pace_training: tuple[float, ...] = (1.0, 1.12, 1.0, 0.88)
    pace_testing: tuple[float, ...] = (1.0, 0.8, 1.0, 1.2)
    drift_gain: float = 0.0
    drift_smoothing: float = 0.2
    strict_monitor: bool = False
    load_critic: bool = False

    def __post_init__(self):
        if self.scenario not in (SCENARIO_LEVEL_GROUND, SCENARIO_TERRAIN, SCENARIO_PACE):
            raise ValueError(f"unknown scenario {self.scenario}")
        if self.stage not in ("training", "testing"):
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.plant_kind not in ("feature-map", "ode"):
            raise ValueError(f"unknown plant kind {self.plant_kind!r}")
        if not 0 < self.quota <= self.window:
            raise ValueError("quota must lie in (0, window]")
        if self.max_cycles <= self.window:
            raise ValueError("max_cycles must exceed the convergence window")
        for name in ("pool_size", "switch_period"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be at least 1, got {getattr(self, name)}")
        # impedance draws scale the reference by factors in 1 +- spread,
        # which stay positive, and so keep every drawn impedance legal
        for name in ("init_spread", "pool_spread"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name}: must lie in [0, 1), got {getattr(self, name)}")

    def pace_sequence(self) -> tuple[float, ...]:
        if self.scenario != SCENARIO_PACE:
            return (1.0,)
        return self.pace_training if self.stage == "training" else self.pace_testing


@dataclass
class CycleLog:
    """One phase's log entry for one gait cycle.

    ``stiffness``/``damping``/``equilibrium`` are the parameters that were
    active while the cycle was walked.  Action and learning fields are
    None on safety-reset cycles, where the controller does not act.
    """

    cycle: int
    phase: int
    d_duration: float
    d_duration_pct: float
    d_peak: float
    stiffness: float
    damping: float
    equilibrium: float
    reset: bool
    in_tolerance: bool
    converged: bool
    action: tuple[float, float, float] | None = None
    delta: tuple[float, float, float] | None = None
    cost: float | None = None
    q_value: float | None = None
    td: float | None = None
    critic_bound: float | None = None
    actor_bound: float | None = None
    monitor_ok: bool | None = None


@dataclass
class TrialRecord:
    scenario: int
    stage: str
    outcome: str = "failure"
    failure_reason: str | None = "max-cycles"
    tuning_steps: int | None = None
    cycles_run: int = 0
    resets: int = 0
    monitor_violations: int = 0
    clamp_events: int = 0
    converged_at: dict[int, int] = field(default_factory=dict)
    rows: list[CycleLog] = field(default_factory=list)
    switch_cycles: list[int] = field(default_factory=list)
    segments: list[dict] = field(default_factory=list)
    legs: list[dict] = field(default_factory=list)
    max_weight_ratio: float = 1.0
    rms_initial: dict | None = None
    rms_final: dict | None = None
    actors: list[ActorNet] = field(default_factory=list)
    critics: list[CriticNet] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.outcome == "success"


def safety_check(errors, bounds: BoundsTable, cycle_dur: float) -> bool:
    """True when every phase's (d_duration, d_peak) error row is inside its safety bound."""
    return all(
        within_bound(err, bounds.safety_for(phase), cycle_dur)
        for phase, err in zip(PHASES, errors)
    )


def _window_met(flags: deque, flag: bool, quota: int) -> bool:
    """Push one in-tolerance flag into a sliding window; True once it holds ``quota``."""
    flags.append(bool(flag))
    return sum(flags) >= quota


def convergence_check(history, window: int = 10, quota: int = 8) -> int | None:
    """First index at which a sliding window holds enough in-tolerance flags.

    Returns the 0-based cycle index where convergence latched, or None if
    the quota was never met anywhere in the history.  :class:`Trial` applies
    the same rule one cycle at a time.
    """
    flags: deque = deque(maxlen=window)
    for k, flag in enumerate(history):
        if _window_met(flags, flag, quota):
            return k
    return None


def make_plant(cfg: TrialConfig, rng: np.random.Generator):
    if cfg.plant_kind == "feature-map":
        return FeatureMapPlant(cfg.feature_map, rng)
    return OdeKneePlant(cfg.ode)


def steady_profile(plant, imp: np.ndarray) -> GaitProfile:
    """Features the plant settles to under constant impedance (noise-free)."""
    if isinstance(plant, FeatureMapPlant):
        return array_to_profile(plant.steady_state(imp))
    probe = copy.deepcopy(plant)
    profile = None
    for _ in range(3):
        profile = probe.step(imp)
    return profile


def scaled_impedance(reference: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Multiply the impedance componentwise; equilibrium clipped to stay legal."""
    scaled = reference * factors
    scaled[:, 2] = np.minimum(scaled[:, 2], KNEE_ANGLE_MAX)
    return scaled


def _within_margin(errors, bounds: BoundsTable, margin: float, cycle_dur: float) -> bool:
    """True when every phase's error is inside ``margin`` times its safety bound."""
    return all(
        within_bound(err, PhaseBound(margin * safe.angle, margin * safe.duration_pct),
                     cycle_dur)
        for err, safe in zip(errors, bounds.safety)
    )


def draw_initial_impedance(cfg: TrialConfig, plant, target: GaitProfile,
                           rng: np.random.Generator) -> np.ndarray:
    """Random impedance around the reference whose steady response is safe.

    Draws are uniform within +-init_spread of the reference and redrawn
    until the noise-free steady-state response stays inside the safety
    bounds of the first target, so every trial starts feasible, while
    still producing a peak-angle detuning worth tuning away.  Plants more
    sensitive than the configured spread allows for (the torque-law knee)
    exhaust a round of draws; the spread is then narrowed and drawing
    resumes, so the most-detuned feasible start is still found.
    """
    reference = cfg.feature_map.reference_impedance
    spread = cfg.init_spread
    target_dur = cycle_duration(target)
    for _ in range(6):
        for _ in range(MAX_INITIAL_DRAWS):
            factors = rng.uniform(1.0 - spread, 1.0 + spread, size=(NUM_PHASES, 3))
            candidate = scaled_impedance(reference, factors)
            errors = alignment_errors(target, steady_profile(plant, candidate))
            # Python's float ** (libm pow) and numpy's square can differ in the
            # last bit; recorded runs and goldens were drawn with the former
            angle_rms = float(np.sqrt(np.mean([p ** 2 for p in errors[:, 1].tolist()])))
            if angle_rms < MIN_INITIAL_ANGLE_RMS:
                continue
            if _within_margin(errors, cfg.bounds, FEASIBILITY_MARGIN, target_dur):
                return candidate
        spread *= 0.7
    raise RuntimeError("could not draw a feasible initial impedance")


def build_profile_pool(cfg: TrialConfig, plant, rng: np.random.Generator):
    """Pool of target profiles for terrain switching, mutually trackable.

    Each member comes from a perturbed impedance pushed through the
    plant's steady response.  Members are redrawn until every pair stays
    within a comfortable fraction of the safety bounds, so a switch never
    dooms the controller to reset forever.
    """
    reference = cfg.feature_map.reference_impedance
    profiles: list[GaitProfile] = []
    for _ in range(cfg.pool_size):
        for _ in range(MAX_INITIAL_DRAWS):
            factors = rng.uniform(1.0 - cfg.pool_spread, 1.0 + cfg.pool_spread,
                                  size=(NUM_PHASES, 3))
            candidate = scaled_impedance(reference, factors)
            profile = steady_profile(plant, candidate)
            if all(_within_margin(alignment_errors(other, profile), cfg.bounds, 0.7,
                                  cycle_duration(other)) for other in profiles):
                profiles.append(profile)
                break
        else:
            raise RuntimeError("could not build a mutually trackable profile pool")
    return tuple(profiles)


def make_target_program(cfg: TrialConfig, plant, rng: np.random.Generator) -> TargetProgram:
    base = steady_profile(plant, cfg.feature_map.reference_impedance)
    if cfg.scenario == SCENARIO_TERRAIN:
        profiles = build_profile_pool(cfg, plant, rng)
        segments = cfg.max_cycles // cfg.switch_period + 1
        schedule = switch_schedule(cfg.pool_size, segments, rng)
        return TargetProgram(
            base_profile=profiles[schedule[0]],
            profile_pool=profiles,
            switch_period=cfg.switch_period,
            schedule=schedule,
            drift_gain=cfg.drift_gain,
            drift_smoothing=cfg.drift_smoothing,
        )
    return TargetProgram(
        base_profile=base,
        pace_sequence=cfg.pace_sequence(),
        drift_gain=cfg.drift_gain,
        drift_smoothing=cfg.drift_smoothing,
    )


class Trial:
    """One tuning trial, advanced cycle by cycle.

    Tests drive :meth:`step` directly to observe mid-trial state; normal
    callers use :meth:`run`, or :func:`run_trial` for a one-shot.  Both
    step the trial as a :class:`_Lockstep` of one, the routine that steps
    whole batches.  The trial keeps its nets and lag as stacks of one row,
    the shape a lockstep stacks; while a lockstep steps it, they live in
    the lockstep's stacks, and the trial gets them back when it leaves.
    """

    def __init__(self, cfg: TrialConfig, seed, policy=None,
                 target_program: TargetProgram | None = None,
                 initial_impedance: np.ndarray | None = None):
        self.cfg = cfg
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        plant_seq, program_seq, init_seq, weight_seq = seq.spawn(4)

        self.plant = make_plant(cfg, np.random.default_rng(plant_seq))
        self.program = target_program if target_program is not None else make_target_program(
            cfg, self.plant, np.random.default_rng(program_seq))

        self.pace_index = 0
        first_target = self.program.target_for(0, self.pace_index)
        if initial_impedance is not None:
            self.initial_impedance = check_impedance(initial_impedance)
        else:
            self.initial_impedance = draw_initial_impedance(
                cfg, self.plant, first_target, np.random.default_rng(init_seq))
        self.impedance = self.initial_impedance

        wrng = np.random.default_rng(weight_seq)
        scale = cfg.dhdp.init_weight_scale
        critics = [init_critic(wrng, cfg.dhdp.critic_hidden, scale) for _ in PHASES]
        actors = [init_actor(wrng, cfg.dhdp.actor_hidden, scale) for _ in PHASES]
        if policy is not None:
            actors = policy[0]
            critics = policy[1] if cfg.load_critic and policy[1] is not None else critics
        self._critic = stack_nets([stack_nets(critics)])  # shapes (1, 4, h, ...)
        self._actor = stack_nets([stack_nets(actors)])

        self._initial_weight_norm = _max_abs_weights(self._critic, self._actor)[0]
        self._max_weight_norm = self._initial_weight_norm
        self._monitor = cfg.dhdp.monitor_params()
        # previous cycle's (q_values, costs), each (1, 4); None after a reset
        self._lag = None

        self._flags = [deque(maxlen=cfg.window) for _ in PHASES]
        self._converged_at: list[int | None] = [None] * NUM_PHASES
        self._consecutive_tracks = 0
        self._segment_index = 0
        self._segment_done = False
        self._leg_start = 0
        self.k = 0
        self.finished = False

        self.record = TrialRecord(scenario=cfg.scenario, stage=cfg.stage)

    @property
    def critic(self) -> CriticNet:
        """The four phases' critics, stacked: weights (4, h, 5) and (4, h)."""
        return _take(self._critic, 0)

    @property
    def actor(self) -> ActorNet:
        """The four phases' actors, stacked: weights (4, h, 2) and (4, 3, h)."""
        return _take(self._actor, 0)

    # -- bookkeeping -------------------------------------------------------

    def _reset_convergence_state(self):
        for flags in self._flags:
            flags.clear()
        self._converged_at = [None] * NUM_PHASES

    def _phase_converged(self, idx: int) -> bool:
        return self._converged_at[idx] is not None

    def _update_flags(self, in_tol: list[bool]):
        for idx, flag in enumerate(in_tol):
            met = _window_met(self._flags[idx], flag, self.cfg.quota)
            if met and not self._phase_converged(idx):
                self._converged_at[idx] = self.k

    def _finish(self, outcome: str, reason: str | None = None):
        self.finished = True
        self.record.outcome = outcome
        self.record.failure_reason = reason
        if outcome == "success":
            self.record.tuning_steps = self.k + 1

    def _close_record(self):
        """Fill in the finished trial's whole-run fields and its final nets."""
        rec = self.record
        rec.max_weight_ratio = self._max_weight_norm / self._initial_weight_norm
        if rec.rows:
            rec.rms_initial, rec.rms_final = compute_rms(rec, self.cfg.rms_window)
        rec.actors = unstack_net(self.actor)
        rec.critics = unstack_net(self.critic)

    # -- the per-cycle loop ------------------------------------------------

    def step(self) -> bool:
        """Run one gait cycle; returns True once the trial has finished."""
        if not self.finished:
            lockstep = _Lockstep([self])
            lockstep.step()
            if lockstep.trials:
                lockstep.leave([0])
        return self.finished

    def _walk(self):
        """Walk the next gait cycle up to its learning step.

        Returns the cycle's (error rows, cycle duration, in-tolerance flags)
        when the trial learns in it, or None when the cycle ended without
        learning: the trial finished, or a safety reset took the cycle (the
        lockstep then drops the trial's lag).
        """
        cfg = self.cfg
        k = self.k

        if (cfg.scenario == SCENARIO_TERRAIN and k > 0
                and k % cfg.switch_period == 0):
            self._close_segment()
            if self.finished:
                return None

        target = self.program.target_for(k, self.pace_index)
        if k > 0 and self.program.profile_index(k) is not None:
            if self.program.profile_index(k) != self.program.profile_index(k - 1):
                self.record.switch_cycles.append(k)

        pace = self.program.pace_sequence[
            min(self.pace_index, len(self.program.pace_sequence) - 1)]
        try:
            measured = self.plant.step(self.impedance, pace=pace)
        except PlantInstabilityError as exc:
            self.record.cycles_run = k
            self._finish("failure", f"plant-instability: {exc}")
            return None

        errors = alignment_errors(target, measured)
        self.program.observe_error(errors)
        # The per-phase work below is scalar; it costs several times less on
        # the rows as Python floats than on numpy rows.
        err_rows = errors.tolist()
        cyc_dur = cycle_duration(target)
        in_tol = [
            within_bound(err, cfg.bounds.tolerance_for(phase), cyc_dur)
            for phase, err in zip(PHASES, err_rows)
        ]

        if not safety_check(err_rows, cfg.bounds, cyc_dur):
            self.record.rows.extend(
                self._log_row(idx, err, cyc_dur, in_tol[idx]) for idx, err in enumerate(err_rows))
            self.impedance = self.initial_impedance
            self.record.resets += 1
            self._after_cycle(in_tol)
            return None
        return err_rows, cyc_dur, in_tol

    def _network_state(self, err_rows, cyc_dur: float) -> list[list[float]]:
        """Tracking error scaled by each phase's safety bound, one row per phase.

        Both components are dimensionless and lie in [-1, 1] as long as
        the cycle stayed inside the safety bound, which keeps all network
        signals of order one regardless of the raw feature units.
        """
        return [
            [100.0 * d_duration / cyc_dur / safe.duration_pct, d_peak / safe.angle]
            for (d_duration, d_peak), safe in zip(err_rows, self.cfg.bounds.safety)
        ]

    def _fault(self, monitor_ok: list[bool], exc: NumericFaultError):
        """End the cycle on a non-finite update: the monitor counts, nothing else is kept."""
        self.record.monitor_violations += monitor_ok.count(False)
        self.record.cycles_run = self.k + 1
        self._finish("failure", f"numeric-fault: {exc}")

    def _act(self, walked, weight_norm: float, deltas: np.ndarray, phases):
        """Log the cycle's learning rows, apply the deltas and close the cycle.

        ``phases`` holds each phase's (action, delta, cost, q_value, td,
        critic_bound, actor_bound, monitor_ok), as Python values.
        """
        err_rows, cyc_dur, in_tol = walked
        rows = [
            self._log_row(idx, err_rows[idx], cyc_dur, in_tol[idx], action=tuple(action),
                          delta=tuple(delta), cost=c, q_value=q, td=t,
                          critic_bound=c_bound, actor_bound=a_bound, monitor_ok=ok)
            for idx, (action, delta, c, q, t, c_bound, a_bound, ok) in enumerate(phases)
        ]
        monitor_ok = [row.monitor_ok for row in rows]
        self.record.monitor_violations += monitor_ok.count(False)
        for phase, delta in zip(PHASES, deltas):
            self.impedance, clamped = apply_delta(self.impedance, phase, delta, self.cfg.ranges)
            if clamped:
                self.record.clamp_events += 1
        self._max_weight_norm = max(self._max_weight_norm, weight_norm)
        self.record.rows.extend(rows)
        if self.cfg.strict_monitor and not all(monitor_ok):
            self._finish("failure", "monitor-violation")
            self.record.cycles_run = self.k + 1
            return
        self._after_cycle(in_tol)

    def _log_row(self, idx: int, err: list[float], cyc_dur: float, in_tol: bool,
                 **learning) -> CycleLog:
        """One phase's row for this cycle; without ``learning`` fields it logs a reset."""
        d_duration, d_peak = err
        stiffness, damping, equilibrium = self.impedance[idx].tolist()
        return CycleLog(
            cycle=self.k, phase=idx + 1,
            d_duration=d_duration,
            d_duration_pct=100.0 * d_duration / cyc_dur,
            d_peak=d_peak,
            stiffness=stiffness, damping=damping, equilibrium=equilibrium,
            reset=not learning, in_tolerance=in_tol,
            converged=self._phase_converged(idx),
            **learning,
        )

    def _after_cycle(self, in_tol):
        cfg = self.cfg
        self._update_flags(in_tol)
        for row in self.record.rows[-NUM_PHASES:]:
            row.converged = self._phase_converged(row.phase - 1)
        all_converged = all(self._phase_converged(i) for i in range(NUM_PHASES))

        if cfg.scenario == SCENARIO_LEVEL_GROUND:
            if all_converged:
                self.record.converged_at = {
                    int(p): int(c) for p, c in zip(PHASES, self._converged_at)
                }
                self._finish("success")
        elif cfg.scenario == SCENARIO_TERRAIN:
            if all_converged and not self._segment_done:
                self._segment_done = True
                if self._consecutive_tracks + 1 >= cfg.consecutive_tracks:
                    self._record_segment()
                    self._finish("success")
        elif cfg.scenario == SCENARIO_PACE:
            if all_converged:
                self.record.legs.append({
                    "leg": len(self.record.legs),
                    "pace": self.program.pace_sequence[self.pace_index],
                    "start_cycle": self._leg_start,
                    "converged_cycle": self.k,
                    "steps": self.k - self._leg_start + 1,
                })
                if self.pace_index + 1 >= len(self.program.pace_sequence):
                    self._finish("success")
                else:
                    self.pace_index += 1
                    self._leg_start = self.k + 1
                    self._reset_convergence_state()

        self.k += 1
        self.record.cycles_run = self.k
        if not self.finished and self.k >= cfg.max_cycles:
            if cfg.scenario == SCENARIO_TERRAIN:
                self._close_segment(final=True)
            if not self.finished:
                self._finish("failure", "max-cycles")

    def _record_segment(self):
        self.record.segments.append({
            "segment": self._segment_index,
            "pool_index": self.program.profile_index(self._segment_index * self.cfg.switch_period),
            "start_cycle": self._segment_index * self.cfg.switch_period,
            "converged": self._segment_done,
            "converged_cycle": None if not self._segment_done
            else max(c for c in self._converged_at if c is not None),
        })

    def _close_segment(self, final: bool = False):
        self._record_segment()
        self._consecutive_tracks = self._consecutive_tracks + 1 if self._segment_done else 0
        self._segment_done = False
        self._segment_index += 1
        if not final:
            self._reset_convergence_state()

    def run(self) -> TrialRecord:
        """Run to the end, as a lockstep of one, and return the finished record."""
        _step_to_end([self])
        return self.record


def _max_abs_weights(critic: CriticNet, actor: ActorNet) -> list[float]:
    """Largest absolute weight of each entry along the nets' leading trial axis."""
    mats = (critic.w_hidden, critic.w_out, actor.w_hidden, actor.w_out)
    flat = np.concatenate([m.reshape(len(m), -1) for m in mats], axis=1)
    return np.abs(flat).max(axis=1).tolist()


# A lockstep keeps per-trial arrays, nets and tapes stacked along a leading
# trial axis.  These helpers act on an array, or field by field on a net or
# tape.  An index of None stands for every entry, which costs nothing.

def _concat(items):
    """``items`` joined along their leading axis; a lone item is returned as is."""
    first = items[0]
    if len(items) == 1:
        return first
    if isinstance(first, np.ndarray):
        return np.concatenate(items)
    return type(first)(**{name: np.concatenate([vars(i)[name] for i in items])
                          for name in vars(first)})


def _take(obj, idx):
    """Entries ``idx`` along the leading axis."""
    if idx is None:
        return obj
    if isinstance(obj, np.ndarray):
        return obj[idx]
    return type(obj)(**{name: value[idx] for name, value in vars(obj).items()})


def _put(obj, idx, part):
    """``obj`` with its entries ``idx`` replaced by ``part``."""
    if idx is None:
        return part
    if isinstance(obj, np.ndarray):
        out = obj.copy()
        out[idx] = part
        return out
    return type(obj)(**{name: _put(value, idx, getattr(part, name))
                        for name, value in vars(obj).items()})


def _index(positions: list[int], count: int):
    """Ascending ``positions`` as an index into ``count`` entries: None when all."""
    return None if len(positions) == count else np.array(positions)


class _Lockstep:
    """Unfinished trials of one config advanced together, one gait cycle per step.

    Row ``i`` of the stacked nets (shapes (n, 4, h, ...)) and of the lag
    arrays belongs to ``trials[i]``.  Plant, target, errors, safety,
    logging and events stay per trial; the trials that learn in a cycle
    make each dHDP call once, on their rows of the stacks.  Every rule is
    bit-identical across leading shapes, so each trial gets the numbers it
    gets alone.  A trial leaves with its nets and lag written back to it.
    """

    def __init__(self, trials):
        self.trials = list(trials)
        self.critic = _concat([t._critic for t in self.trials])
        self.actor = _concat([t._actor for t in self.trials])
        no_lag = (np.zeros((1, NUM_PHASES)),) * 2
        lags = [t._lag or no_lag for t in self.trials]
        self.lagged = [t._lag is not None for t in self.trials]
        self.lag_value = _concat([value for value, _ in lags])
        self.lag_cost = _concat([cost for _, cost in lags])

    def step(self):
        """One gait cycle of every trial; the trials that finish in it leave."""
        walked = [trial._walk() for trial in self.trials]
        rows = [i for i, cycle in enumerate(walked) if cycle is not None]
        if rows:
            self._learn(rows, [walked[i] for i in rows])
        # a trial keeps its lag only when it learned: a safety reset drops it
        self.lagged = [cycle is not None for cycle in walked]
        finished = [i for i, trial in enumerate(self.trials) if trial.finished]
        if finished:
            self.leave(finished)

    def leave(self, positions: list[int]):
        """Hand the trials at ``positions`` (ascending) their nets and lag back and drop them."""
        for i in positions:
            trial, row = self.trials[i], _index([i], len(self.trials))
            trial._critic, trial._actor = _take(self.critic, row), _take(self.actor, row)
            trial._lag = ((_take(self.lag_value, row), _take(self.lag_cost, row))
                          if self.lagged[i] else None)
            if trial.finished:
                trial._close_record()
        keep = [i for i in range(len(self.trials)) if i not in positions]
        self.trials = [self.trials[i] for i in keep]
        if keep:
            self.critic, self.actor = _take(self.critic, keep), _take(self.actor, keep)
            self.lagged = [self.lagged[i] for i in keep]
            self.lag_value, self.lag_cost = self.lag_value[keep], self.lag_cost[keep]

    def _learn(self, rows: list[int], walked: list):
        """One learning step of the trials at ``rows``, all four phases each.

        A numeric fault fails only the trials whose own update overflows:
        the step is then redone one trial at a time, and each trial keeps
        exactly what it keeps when run alone.
        """
        trials = [self.trials[i] for i in rows]
        first = trials[0]
        dhdp = first.cfg.dhdp
        state = np.array([t._network_state(err_rows, cyc_dur)
                          for t, (err_rows, cyc_dur, _) in zip(trials, walked)])
        learners = _index(rows, len(self.trials))
        critic, actor = _take(self.critic, learners), _take(self.actor, learners)
        a_tape = actor_eval(actor, state)
        cost = stage_cost(state, a_tape.output, dhdp.cost)
        c_tape = critic_eval(critic, state, a_tape.output)
        report = stability_monitor(critic, actor, c_tape, a_tape,
                                   first._monitor, dhdp.critic_lr, dhdp.actor_lr)
        monitor_ok = (report.critic_ok & report.actor_ok).tolist()

        # the critic steps only where the previous cycle left a lag
        lagged = [j for j, row in enumerate(rows) if self.lagged[row]]
        td = None
        try:
            if lagged:
                sub = _index(lagged, len(rows))
                lag_rows = _index([rows[j] for j in lagged], len(self.trials))
                td = td_error(_take(c_tape.value, sub), _take(self.lag_value, lag_rows),
                              _take(self.lag_cost, lag_rows), dhdp.discount)
                updated = critic_update(_take(critic, sub), td, _take(c_tape, sub),
                                        dhdp.critic_lr, dhdp.discount)
                critic = _put(critic, sub, updated)
                c_tape = _put(c_tape, sub, critic_eval(
                    updated, _take(state, sub), _take(a_tape.output, sub)))
            actor = actor_update(actor, critic, c_tape, a_tape, dhdp.actor_lr)
        except NumericFaultError as exc:
            if len(trials) == 1:
                first._fault(monitor_ok[0], exc)
            else:
                for row, cycle in zip(rows, walked):
                    self._learn([row], [cycle])
            return

        self.critic = _put(self.critic, learners, critic)
        self.actor = _put(self.actor, learners, actor)
        self.lag_value = _put(self.lag_value, learners, c_tape.value)
        self.lag_cost = _put(self.lag_cost, learners, cost)

        tds = [[None] * NUM_PHASES] * len(trials)
        for j, row in zip(lagged, td.tolist() if td is not None else ()):
            tds[j] = row
        deltas = scale_action(a_tape.output, dhdp.action_scale.half_ranges)
        columns = zip(a_tape.output.tolist(), deltas.tolist(), cost.tolist(),
                      c_tape.value.tolist(), tds, report.critic_bound.tolist(),
                      report.actor_bound.tolist(), monitor_ok)
        for trial, cycle, norm, trial_deltas, phases in zip(
                trials, walked, _max_abs_weights(critic, actor), deltas, columns):
            trial._act(cycle, norm, trial_deltas, zip(*phases))


def _step_to_end(trials):
    """Step the unfinished ``trials`` together, one lockstep, until all have finished."""
    live = [trial for trial in trials if not trial.finished]
    if live:
        lockstep = _Lockstep(live)
        while lockstep.trials:
            lockstep.step()


def run_trial(cfg: TrialConfig, seed, policy=None, **kwargs) -> TrialRecord:
    """Run one trial to its end and return its record.

    ``seed`` may also be a :class:`Trial` already built, for instance one
    a lockstep batch has stepped to its end; it runs on from where it stands.
    """
    trial = seed if isinstance(seed, Trial) else Trial(cfg, seed, policy=policy, **kwargs)
    return trial.run()


# ---------------------------------------------------------------------------
# Metrics


def compute_rms(record: TrialRecord, window: int = 10):
    """Pooled RMS errors over the first cycles and the last in-tolerance ones.

    Initial: the first ``window`` cycles of the trial, all phases pooled.
    Final: for each phase separately, its last ``window`` in-tolerance
    cycles; the per-phase samples are then pooled into one RMS.  The final
    value is None only when some phase never reached tolerance at all.
    Peak-angle RMS is in radians, duration RMS in percent of gait cycle.
    """
    if not record.rows:
        raise ValueError("cannot compute RMS of an empty record")
    by_cycle: dict[int, list[CycleLog]] = {}
    for row in record.rows:
        by_cycle.setdefault(row.cycle, []).append(row)
    cycles = sorted(by_cycle)

    def pooled(samples):
        peaks = [r.d_peak for r in samples]
        durs = [r.d_duration_pct for r in samples]
        return {
            "peak_rad": float(np.sqrt(np.mean(np.square(peaks)))),
            "duration_pct": float(np.sqrt(np.mean(np.square(durs)))),
        }

    initial = pooled([r for c in cycles[:window] for r in by_cycle[c]])

    final_samples = []
    for phase in PHASES:
        in_tol = [c for c in cycles
                  if any(r.phase == phase and r.in_tolerance for r in by_cycle[c])]
        if not in_tol:
            return initial, None
        keep = set(in_tol[-window:])
        final_samples.extend(r for c in keep for r in by_cycle[c] if r.phase == phase)
    return initial, pooled(final_samples)


@dataclass
class Metrics:
    """Batch-level outcome summary in the shape of the results table."""

    trials: int
    successes: int
    tuning_steps_mean: float | None
    tuning_steps_std: float | None
    rms_initial: dict | None
    rms_final: dict | None
    monitor_violations: int
    resets: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


def _mean_rms(samples: list[dict | None]) -> dict | None:
    present = [s for s in samples if s is not None]
    if not present:
        return None
    return {key: float(np.mean([s[key] for s in present]))
            for key in ("peak_rad", "duration_pct")}


def aggregate_metrics(records: list[TrialRecord]) -> Metrics:
    """Results-table row of a batch; an RMS no trial has is None."""
    steps = [r.tuning_steps for r in records if r.success and r.tuning_steps is not None]
    return Metrics(
        trials=len(records),
        successes=sum(r.success for r in records),
        tuning_steps_mean=float(np.mean(steps)) if steps else None,
        tuning_steps_std=float(np.std(steps)) if steps else None,
        rms_initial=_mean_rms([r.rms_initial for r in records]),
        rms_final=_mean_rms([r.rms_final for r in records]),
        monitor_violations=sum(r.monitor_violations for r in records),
        resets=sum(r.resets for r in records),
    )


# ---------------------------------------------------------------------------
# Batches


def _run_chunk(args) -> list[TrialRecord]:
    """Records of a chunk's trials, stepped together in one lockstep, in order."""
    cfg, specs = args
    trials = [Trial(cfg, seq, policy=policy) for seq, policy in specs]
    _step_to_end(trials)
    # every record comes out of run_trial, as a lone trial's does; the
    # benchmark's traced run collects the records there
    return [run_trial(cfg, trial) for trial in trials]


def _run_jobs(cfg: TrialConfig, specs: list, jobs: int) -> list[TrialRecord]:
    """Records of the trials ``specs`` ((seed sequence, policy) pairs), in order.

    The trials run in ``jobs`` contiguous chunks (fewer when there are
    fewer trials), each one lockstep, in worker processes when ``jobs`` > 1.
    """
    if jobs <= 1:
        return _run_chunk((cfg, specs))
    cuts = [len(specs) * i // jobs for i in range(jobs + 1)]
    chunks = [(cfg, specs[lo:hi]) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return [rec for records in pool.map(_run_chunk, chunks) for rec in records]


@dataclass
class BatchResult:
    cfg: TrialConfig
    seed: int
    records: list[TrialRecord]
    metrics: Metrics
    policy_trials: list[int] = field(default_factory=list)
    policy_index: list[int] = field(default_factory=list)


def run_training_batch(cfg: TrialConfig, seed: int, trials: int = 30,
                       jobs: int = 1, keep_policies: int = 10) -> BatchResult:
    """Run ``trials`` independent training trials and pick saved policies.

    Policies are drawn, without replacement, from the successful trials;
    when fewer than ``keep_policies`` succeed, all successes are kept.
    """
    seq = np.random.SeedSequence(seed)
    trial_seqs = seq.spawn(trials + 1)
    records = _run_jobs(cfg, [(trial_seqs[i], None) for i in range(trials)], jobs)

    successes = [i for i, rec in enumerate(records) if rec.success]
    picker = np.random.default_rng(trial_seqs[trials])
    if len(successes) > keep_policies:
        chosen = sorted(picker.choice(len(successes), size=keep_policies, replace=False))
        policy_trials = [successes[i] for i in chosen]
    else:
        policy_trials = successes
    return BatchResult(cfg=cfg, seed=seed, records=records,
                       metrics=aggregate_metrics(records),
                       policy_trials=policy_trials)


def run_testing_batch(cfg: TrialConfig, seed: int, policies,
                      trials_per_policy: int = 30, jobs: int = 1) -> BatchResult:
    """Evaluate saved policies on fresh trials with new initial impedance."""
    if not policies:
        raise ValueError("testing requires at least one saved policy")
    trial_seqs = np.random.SeedSequence(seed).spawn(len(policies) * trials_per_policy)
    policy_index = [p_idx for p_idx in range(len(policies)) for _ in range(trials_per_policy)]
    records = _run_jobs(cfg, [(trial_seq, policies[p_idx]) for trial_seq, p_idx
                              in zip(trial_seqs, policy_index)], jobs)
    return BatchResult(cfg=cfg, seed=seed, records=records,
                       metrics=aggregate_metrics(records),
                       policy_index=policy_index)


# ---------------------------------------------------------------------------
# Structured logs
#
# The CSV column order below is a stable interface; downstream plot and
# report tooling parses it positionally.

CSV_COLUMNS = (
    "cycle", "phase",
    "d_duration_s", "d_duration_pct", "d_peak_rad",
    "action_stiffness", "action_damping", "action_equilibrium",
    "delta_stiffness", "delta_damping", "delta_equilibrium",
    "stage_cost", "q_value", "td_error",
    "stiffness", "damping", "equilibrium",
    "critic_bound", "actor_bound", "monitor_ok",
    "reset", "in_tolerance", "converged",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trial_csv(record: TrialRecord, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in record.rows:
            action = row.action or (None, None, None)
            delta = row.delta or (None, None, None)
            writer.writerow([_fmt(v) for v in (
                row.cycle, row.phase,
                row.d_duration, row.d_duration_pct, row.d_peak,
                action[0], action[1], action[2],
                delta[0], delta[1], delta[2],
                row.cost, row.q_value, row.td,
                row.stiffness, row.damping, row.equilibrium,
                row.critic_bound, row.actor_bound, row.monitor_ok,
                row.reset, row.in_tolerance, row.converged,
            )])


def trial_summary(record: TrialRecord, index: int, policy_index: int | None = None) -> dict:
    summary = {
        "schema": "kneetrack-trial",
        "trial": index,
        "scenario": record.scenario,
        "stage": record.stage,
        "outcome": record.outcome,
        "failure_reason": record.failure_reason,
        "tuning_steps": record.tuning_steps,
        "cycles_run": record.cycles_run,
        "resets": record.resets,
        "monitor_violations": record.monitor_violations,
        "clamp_events": record.clamp_events,
        "converged_at": {str(p): c for p, c in sorted(record.converged_at.items())},
        "switch_cycles": record.switch_cycles,
        "segments": record.segments,
        "legs": record.legs,
        "max_weight_ratio": record.max_weight_ratio,
        "rms_initial": record.rms_initial,
        "rms_final": record.rms_final,
    }
    if policy_index is not None:
        summary["policy"] = policy_index
    return summary


def write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def batch_summary(batch: BatchResult, trials_meta: list[dict]) -> dict:
    m = batch.metrics
    return {
        "schema": "kneetrack-batch",
        "scenario": batch.cfg.scenario,
        "stage": batch.cfg.stage,
        "plant": batch.cfg.plant_kind,
        "seed": batch.seed,
        "trials": m.trials,
        "successes": m.successes,
        "success_rate": m.success_rate,
        "tuning_steps_mean": m.tuning_steps_mean,
        "tuning_steps_std": m.tuning_steps_std,
        "rms_initial": m.rms_initial,
        "rms_final": m.rms_final,
        "monitor_violations": m.monitor_violations,
        "resets": m.resets,
        "policy_trials": batch.policy_trials,
        "trial_summaries": trials_meta,
    }
