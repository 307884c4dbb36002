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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import (
    BoundsTable,
    ControlDelta,
    ImpedanceTriple,
    NUM_PHASES,
    PHASES,
    Phase,
    PhaseBound,
    TrackingState,
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
    stage_cost,
    td_error,
)
from .fsm import ImpedanceSet, ParameterRanges, apply_delta
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
    """True when every phase is inside its safety bound."""
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


def steady_profile(plant, imp: ImpedanceSet) -> GaitProfile:
    """Features the plant settles to under constant impedance (noise-free)."""
    if isinstance(plant, FeatureMapPlant):
        return array_to_profile(plant.steady_state(imp))
    probe = copy.deepcopy(plant)
    profile = None
    for _ in range(3):
        profile = probe.step(imp)
    return profile


def scaled_impedance(reference: ImpedanceSet, factors: np.ndarray) -> ImpedanceSet:
    """Multiply each triple componentwise; equilibrium clipped to stay legal."""
    triples = []
    for triple, f in zip(reference.phases, factors):
        values = triple.as_array() * f
        triples.append(ImpedanceTriple(
            float(values[0]), float(values[1]), float(min(values[2], 1.6))
        ))
    return ImpedanceSet(tuple(triples))


def _within_margin(errors, bounds: BoundsTable, margin: float, cycle_dur: float) -> bool:
    """True when every phase's error is inside ``margin`` times its safety bound."""
    return all(
        within_bound(err, PhaseBound(margin * safe.angle, margin * safe.duration_pct),
                     cycle_dur)
        for err, safe in zip(errors, bounds.safety)
    )


def draw_initial_impedance(cfg: TrialConfig, plant, target: GaitProfile,
                           rng: np.random.Generator) -> ImpedanceSet:
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
            angle_rms = float(np.sqrt(np.mean([err.d_peak ** 2 for err in errors])))
            if angle_rms < MIN_INITIAL_ANGLE_RMS:
                continue
            if _within_margin(errors, cfg.bounds, FEASIBILITY_MARGIN, target_dur):
                return candidate
        spread *= 0.7
    raise RuntimeError("could not draw a feasible initial impedance")


def build_profile_pool(cfg: TrialConfig, plant, rng: np.random.Generator):
    """Pool of target profiles for terrain switching, mutually trackable.

    Each member comes from a perturbed impedance set pushed through the
    plant's steady response.  Members are redrawn until every pair stays
    within a comfortable fraction of the safety bounds, so a switch never
    dooms the controller to reset forever.
    """
    reference = cfg.feature_map.reference_impedance
    impedances: list[ImpedanceSet] = []
    profiles: list[GaitProfile] = []
    for _ in range(cfg.pool_size):
        for _ in range(MAX_INITIAL_DRAWS):
            factors = rng.uniform(1.0 - cfg.pool_spread, 1.0 + cfg.pool_spread,
                                  size=(NUM_PHASES, 3))
            candidate = scaled_impedance(reference, factors)
            profile = steady_profile(plant, candidate)
            if all(_within_margin(alignment_errors(other, profile), cfg.bounds, 0.7,
                                  cycle_duration(other)) for other in profiles):
                impedances.append(candidate)
                profiles.append(profile)
                break
        else:
            raise RuntimeError("could not build a mutually trackable profile pool")
    return tuple(impedances), tuple(profiles)


def make_target_program(cfg: TrialConfig, plant, rng: np.random.Generator) -> TargetProgram:
    base = steady_profile(plant, cfg.feature_map.reference_impedance)
    if cfg.scenario == SCENARIO_TERRAIN:
        impedances, profiles = build_profile_pool(cfg, plant, rng)
        segments = cfg.max_cycles // cfg.switch_period + 1
        schedule = switch_schedule(cfg.pool_size, segments, rng)
        return TargetProgram(
            base_profile=profiles[schedule[0]],
            profile_pool=profiles,
            impedance_pool=impedances,
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


@dataclass
class _PhaseLag:
    """Previous-cycle quantities one phase's critic update needs."""

    q_value: float
    cost: float


class Trial:
    """One tuning trial, advanced cycle by cycle.

    Tests drive :meth:`step` directly to observe mid-trial state; normal
    callers use :meth:`run`, or :func:`run_trial` for a one-shot.
    """

    def __init__(self, cfg: TrialConfig, seed, policy=None,
                 target_program: TargetProgram | None = None,
                 initial_impedance: ImpedanceSet | None = None):
        self.cfg = cfg
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        plant_seq, program_seq, init_seq, weight_seq = seq.spawn(4)

        self.plant = make_plant(cfg, np.random.default_rng(plant_seq))
        self.program = target_program if target_program is not None else make_target_program(
            cfg, self.plant, np.random.default_rng(program_seq))

        self.pace_index = 0
        first_target = self.program.target_for(0, self.pace_index)
        if initial_impedance is not None:
            self.initial_impedance = initial_impedance
        else:
            self.initial_impedance = draw_initial_impedance(
                cfg, self.plant, first_target, np.random.default_rng(init_seq))
        self.impedance = self.initial_impedance

        wrng = np.random.default_rng(weight_seq)
        scale = cfg.dhdp.init_weight_scale
        self.critics = [init_critic(wrng, cfg.dhdp.critic_hidden, scale) for _ in PHASES]
        self.actors = [init_actor(wrng, cfg.dhdp.actor_hidden, scale) for _ in PHASES]
        if policy is not None:
            actors, critics = policy
            self.actors = [replace(a) for a in actors]
            if cfg.load_critic and critics is not None:
                self.critics = [replace(c) for c in critics]

        self._initial_weight_norm = self._weight_norm()
        self._max_weight_norm = self._initial_weight_norm
        self._monitor = cfg.dhdp.monitor_params()
        self._lag: list[_PhaseLag | None] = [None] * NUM_PHASES

        self._flags = [deque(maxlen=cfg.window) for _ in PHASES]
        self._converged_at: list[int | None] = [None] * NUM_PHASES
        self._consecutive_tracks = 0
        self._segment_index = 0
        self._segment_done = False
        self._leg_start = 0
        self.k = 0
        self.finished = False

        self.record = TrialRecord(scenario=cfg.scenario, stage=cfg.stage)

    # -- bookkeeping -------------------------------------------------------

    def _weight_norm(self) -> float:
        mats = [n.w_hidden for n in self.critics] + [n.w_out for n in self.critics]
        mats += [n.w_hidden for n in self.actors] + [n.w_out for n in self.actors]
        return max(float(np.max(np.abs(m))) for m in mats)

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

    # -- the per-cycle loop ------------------------------------------------

    def step(self) -> bool:
        """Run one gait cycle; returns True once the trial has finished."""
        if self.finished:
            return True
        cfg = self.cfg
        k = self.k

        if (cfg.scenario == SCENARIO_TERRAIN and k > 0
                and k % cfg.switch_period == 0):
            self._close_segment()
            if self.finished:
                return True

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
            return True

        errors = alignment_errors(target, measured)
        self.program.observe_error(errors)
        cyc_dur = cycle_duration(target)
        in_tol = [
            within_bound(err, cfg.bounds.tolerance_for(phase), cyc_dur)
            for phase, err in zip(PHASES, errors)
        ]

        if not safety_check(errors, cfg.bounds, cyc_dur):
            self.record.rows.extend(
                self._log_row(idx, err, cyc_dur, in_tol[idx]) for idx, err in enumerate(errors))
            self.impedance = self.initial_impedance
            self.record.resets += 1
            self._lag = [None] * NUM_PHASES
            self._after_cycle(in_tol)
            return self.finished

        try:
            rows = self._learn_and_act(errors, cyc_dur, in_tol)
        except NumericFaultError as exc:
            self.record.cycles_run = k + 1
            self._finish("failure", f"numeric-fault: {exc}")
            return True
        self.record.rows.extend(rows)
        if self.finished:  # strict monitor halt
            self.record.cycles_run = k + 1
            return True
        self._after_cycle(in_tol)
        return self.finished

    def _network_state(self, phase: Phase, err: TrackingState, cyc_dur: float) -> np.ndarray:
        """Tracking error scaled by the phase's safety bound.

        Both components are dimensionless and lie in [-1, 1] as long as
        the cycle stayed inside the safety bound, which keeps all network
        signals of order one regardless of the raw feature units.
        """
        safe = self.cfg.bounds.safety_for(phase)
        return np.array([
            100.0 * err.d_duration / cyc_dur / safe.duration_pct,
            err.d_peak / safe.angle,
        ])

    def _learn_and_act(self, errors, cyc_dur, in_tol) -> list[CycleLog]:
        cfg = self.cfg
        rows = []
        halt = False
        for idx, (phase, err) in enumerate(zip(PHASES, errors)):
            state = self._network_state(phase, err, cyc_dur)

            a_tape = actor_eval(self.actors[idx], state)
            cost = stage_cost(state, a_tape.output, cfg.dhdp.cost)
            c_tape = critic_eval(self.critics[idx], state, a_tape.output)

            report = stability_monitor(
                self.critics[idx], self.actors[idx], c_tape, a_tape,
                self._monitor, cfg.dhdp.critic_lr, cfg.dhdp.actor_lr)
            if not report.ok:
                self.record.monitor_violations += 1
                if cfg.strict_monitor:
                    halt = True

            td = None
            lag = self._lag[idx]
            if lag is not None:
                td = td_error(c_tape.value, lag.q_value, lag.cost, cfg.dhdp.discount)
                self.critics[idx] = critic_update(
                    self.critics[idx], td, c_tape, cfg.dhdp.critic_lr, cfg.dhdp.discount)
                c_tape = critic_eval(self.critics[idx], state, a_tape.output)
            self.actors[idx] = actor_update(
                self.actors[idx], self.critics[idx], c_tape, a_tape, cfg.dhdp.actor_lr)
            self._lag[idx] = _PhaseLag(q_value=c_tape.value, cost=cost)

            delta_vec = scale_action(a_tape.output, cfg.dhdp.action_scale.for_phase(phase))
            rows.append(self._log_row(
                idx, err, cyc_dur, in_tol[idx],
                action=tuple(float(v) for v in a_tape.output),
                delta=tuple(float(v) for v in delta_vec),
                cost=float(cost), q_value=float(c_tape.value),
                td=None if td is None else float(td),
                critic_bound=float(report.critic_bound),
                actor_bound=float(report.actor_bound),
                monitor_ok=report.ok,
            ))
            delta = ControlDelta(*[float(v) for v in delta_vec])
            self.impedance, clamped = apply_delta(self.impedance, phase, delta, cfg.ranges)
            if clamped:
                self.record.clamp_events += 1
        self._max_weight_norm = max(self._max_weight_norm, self._weight_norm())
        if halt:
            self._finish("failure", "monitor-violation")
        return rows

    def _log_row(self, idx: int, err: TrackingState, cyc_dur: float, in_tol: bool,
                 **learning) -> CycleLog:
        """One phase's row for this cycle; without ``learning`` fields it logs a reset."""
        active = self.impedance.phases[idx]
        return CycleLog(
            cycle=self.k, phase=idx + 1,
            d_duration=float(err.d_duration),
            d_duration_pct=100.0 * float(err.d_duration) / cyc_dur,
            d_peak=float(err.d_peak),
            stiffness=active.stiffness, damping=active.damping,
            equilibrium=active.equilibrium,
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
        while not self.step():
            pass
        rec = self.record
        rec.max_weight_ratio = self._max_weight_norm / self._initial_weight_norm
        if rec.rows:
            rec.rms_initial, rec.rms_final = compute_rms(rec, self.cfg.rms_window)
        rec.actors = self.actors
        rec.critics = self.critics
        return rec


def run_trial(cfg: TrialConfig, seed, policy=None, **kwargs) -> TrialRecord:
    """Convenience wrapper: build a :class:`Trial` and run it to the end."""
    return Trial(cfg, seed, policy=policy, **kwargs).run()


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


def _run_trial_job(args):
    cfg, seed, policy, policy_index = args
    record = run_trial(cfg, seed, policy=policy)
    return policy_index, record


def _run_jobs(jobs_args, jobs: int):
    if jobs <= 1:
        return [_run_trial_job(a) for a in jobs_args]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_trial_job, jobs_args))


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
    results = _run_jobs([(cfg, trial_seqs[i], None, i) for i in range(trials)], jobs)
    records = [rec for _, rec in sorted(results, key=lambda pair: pair[0])]

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
    seq = np.random.SeedSequence(seed)
    total = len(policies) * trials_per_policy
    trial_seqs = seq.spawn(total)
    jobs_args = []
    for p_idx, policy in enumerate(policies):
        for t in range(trials_per_policy):
            jobs_args.append((cfg, trial_seqs[p_idx * trials_per_policy + t], policy, p_idx))
    results = _run_jobs(jobs_args, jobs)
    records = [rec for _, rec in results]
    policy_index = [p_idx for p_idx, _ in results]
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
