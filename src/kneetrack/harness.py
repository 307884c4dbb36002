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
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _repr
from .core import (
    KNEE_ANGLE_MAX,
    BoundsTable,
    NUM_PHASES,
    PHASES,
    check_impedance,
    inside_bounds,
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
    OdeKneeConfig,
    OdeKneePlant,
    PlantInstabilityError,
    TargetProgram,
    alignment_errors,
    clip_features,
    cycle_duration,
    profile_to_array,
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

# A record stores its log as one array per field, four rows per gait cycle
# in phase order, so ``cycle`` and ``phase`` follow from the row index.
# Fields every row has come first, then those only learning rows have: on
# a safety-reset row they are None, and ``td_error`` is also None where the
# critic had no lag to step on (``lagged`` marks where it had one).
# ``clamped`` marks the rows whose impedance update was clamped.
_ROW_FIELDS = ("d_duration_s", "d_duration_pct", "d_peak_rad",
               "stiffness", "damping", "equilibrium", "reset", "in_tolerance", "converged")
_LEARNING_FIELDS = (
    "action_stiffness", "action_damping", "action_equilibrium",
    "delta_stiffness", "delta_damping", "delta_equilibrium",
    "stage_cost", "q_value", "td_error", "critic_bound", "actor_bound", "monitor_ok", "lagged")
_LOG_FIELDS = _ROW_FIELDS + _LEARNING_FIELDS + ("clamped",)
_BOOL_FIELDS = frozenset(("reset", "in_tolerance", "converged", "monitor_ok", "lagged",
                          "clamped"))


def _empty_log() -> dict[str, np.ndarray]:
    return {name: np.zeros(0, bool if name in _BOOL_FIELDS else float) for name in _LOG_FIELDS}


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
    log: dict[str, np.ndarray] = field(default_factory=_empty_log)
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

    def column(self, name: str) -> np.ndarray:
        """The log's values of one of the ``CSV_COLUMNS``, one per row."""
        if name in ("cycle", "phase"):
            index = np.arange(len(self.log["reset"]))
            return index // NUM_PHASES if name == "cycle" else index % NUM_PHASES + 1
        return self.log[name]

    def missing(self, name: str) -> np.ndarray | None:
        """Rows where column ``name`` holds None, or None when it never does."""
        if name == "td_error":
            return ~self.log["lagged"]
        return self.log["reset"] if name in _LEARNING_FIELDS else None


def _append_rows(record: TrialRecord, blocks: list[np.ndarray]) -> None:
    """Append log rows, (cycles, 4, field) blocks in ``_LOG_FIELDS`` order, to ``record``.

    The record's reset, monitor-violation and clamp counts grow by what
    the rows hold.
    """
    if not blocks:
        return
    rows = np.concatenate(blocks).reshape(-1, len(_LOG_FIELDS))
    new = {name: rows[:, j].astype(bool if name in _BOOL_FIELDS else float)
           for j, name in enumerate(_LOG_FIELDS)}
    for name, values in new.items():
        record.log[name] = np.concatenate([record.log[name], values])
    record.resets += int(np.count_nonzero(new["reset"])) // NUM_PHASES
    record.monitor_violations += int(np.count_nonzero(~(new["monitor_ok"] | new["reset"])))
    record.clamp_events += int(np.count_nonzero(new["clamped"]))


def safety_check(errors, bounds: BoundsTable, cycle_dur: float) -> bool:
    """True when every phase's (d_duration, d_peak) error row is inside its safety bound."""
    return all(
        within_bound(err, bounds.safety_for(phase), cycle_dur)
        for phase, err in zip(PHASES, errors)
    )


def make_plant(cfg: TrialConfig, rng: np.random.Generator):
    if cfg.plant_kind == "feature-map":
        return FeatureMapPlant(cfg.feature_map, rng)
    return OdeKneePlant(cfg.ode)


def steady_profile(plant, imp: np.ndarray) -> np.ndarray:
    """(4, 2) features the plant settles to under constant impedance (noise-free)."""
    if isinstance(plant, FeatureMapPlant):
        return clip_features(plant.steady_state(imp))
    # an OdeKneePlant holds two floats and a frozen config: a shallow copy
    # probes without touching the trial's plant
    probe = copy.copy(plant)
    for _ in range(3):
        profile = probe.step(imp)
    return profile_to_array(profile)


def scaled_impedance(reference: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Multiply the impedance componentwise; equilibrium clipped to stay legal.

    ``factors`` is one (4, 3) array or a stack (..., 4, 3) of them.
    """
    scaled = reference * factors
    scaled[..., 2] = np.minimum(scaled[..., 2], KNEE_ANGLE_MAX)
    return scaled


def _margin_limits(bounds: BoundsTable, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """``margin`` times each phase's safety bound, as :meth:`BoundsTable.limits` arrays."""
    angle, duration_pct = bounds.limits("safety")
    return margin * angle, margin * duration_pct


def _within(errors: np.ndarray, limits, cycle_dur) -> bool:
    """True when every phase's error row is inside ``limits``."""
    return bool(inside_bounds(errors, *limits, cycle_dur).all())


def draw_initial_impedance(cfg: TrialConfig, plant, target: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """Random impedance around the reference whose steady response is safe.

    Draws are uniform within +-init_spread of the reference and redrawn
    until the noise-free steady-state response stays inside the safety
    bounds of the first target, so every trial starts feasible, while
    still producing a peak-angle detuning worth tuning away.  Plants more
    sensitive than the configured spread allows for (the torque-law knee)
    exhaust a round of draws; the spread is then narrowed and drawing
    resumes, so the most-detuned feasible start is still found.

    Each round's candidates come from one block draw, which equals the
    round's successive (4, 3) draws bit for bit; ``rng`` must be this
    call's own, since the block draws past the candidate returned.
    """
    reference = cfg.feature_map.reference_impedance
    spread = cfg.init_spread
    target_dur = cycle_duration(target)
    limits = _margin_limits(cfg.bounds, FEASIBILITY_MARGIN)
    for _ in range(6):
        factors = rng.uniform(1.0 - spread, 1.0 + spread,
                              size=(MAX_INITIAL_DRAWS, NUM_PHASES, 3))
        for candidate in scaled_impedance(reference, factors):
            errors = alignment_errors(target, steady_profile(plant, candidate))
            # Python's float ** (libm pow) and numpy's square can differ in the
            # last bit; recorded runs and goldens were drawn with the former,
            # and with numpy's mean of four, which sums left to right as this
            # loop does (sum() compensates from Python 3.12)
            total = 0.0
            for p in errors[:, 1].tolist():
                total += p ** 2
            if math.sqrt(total / NUM_PHASES) < MIN_INITIAL_ANGLE_RMS:
                continue
            if _within(errors, limits, target_dur):
                return candidate.copy()
        spread *= 0.7
    raise RuntimeError("could not draw a feasible initial impedance")


def build_profile_pool(cfg: TrialConfig, plant, rng: np.random.Generator):
    """Pool of (4, 2) target profiles for terrain switching, mutually trackable.

    Each member comes from a perturbed impedance pushed through the
    plant's steady response.  Members are redrawn until every pair stays
    within a comfortable fraction of the safety bounds, so a switch never
    dooms the controller to reset forever.
    """
    reference = cfg.feature_map.reference_impedance
    limits = _margin_limits(cfg.bounds, 0.7)
    profiles: list[np.ndarray] = []
    for _ in range(cfg.pool_size):
        for _ in range(MAX_INITIAL_DRAWS):
            factors = rng.uniform(1.0 - cfg.pool_spread, 1.0 + cfg.pool_spread,
                                  size=(NUM_PHASES, 3))
            candidate = scaled_impedance(reference, factors)
            profile = steady_profile(plant, candidate)
            if all(_within(alignment_errors(other, profile), limits, cycle_duration(other))
                   for other in profiles):
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
    whole batches.  The trial keeps its per-cycle state (impedance, nets,
    lag, convergence windows) as stacks of one row, the shape a lockstep
    stacks; while a lockstep steps it, that state lives in the lockstep's
    stacks, and the trial gets it back when it leaves.  The trial itself
    handles its events: segment and leg bookkeeping, and its ending.
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

        wrng = np.random.default_rng(weight_seq)
        scale = cfg.dhdp.init_weight_scale
        critics = [init_critic(wrng, cfg.dhdp.critic_hidden, scale) for _ in PHASES]
        actors = [init_actor(wrng, cfg.dhdp.actor_hidden, scale) for _ in PHASES]
        if policy is not None:
            actors = policy[0]
            critics = policy[1] if cfg.load_critic and policy[1] is not None else critics

        # the stacked state, one row each (see _STACKED)
        self._impedance = self.initial_impedance[None]
        self._critic = stack_nets([stack_nets(critics)])  # shapes (1, 4, h, ...)
        self._actor = stack_nets([stack_nets(actors)])
        self._max_weight_norm = _max_abs_weights(self._critic, self._actor)
        # previous cycle's q-values and costs, kept only when it learned
        self._lag_value = np.zeros((1, NUM_PHASES))
        self._lag_cost = np.zeros((1, NUM_PHASES))
        self._lagged = np.zeros(1, bool)
        # each phase's in-tolerance flags of its last ``window`` cycles since
        # the windows last started over, and the cycle its convergence
        # latched at (-1 while it has not)
        self._window = np.zeros((1, NUM_PHASES, cfg.window), bool)
        self._converged = np.full((1, NUM_PHASES), -1)

        self._initial_weight_norm = float(self._max_weight_norm[0])
        self._consecutive_tracks = 0
        self._segment_index = 0
        self._segment_converged: int | None = None  # cycle the segment was tracked at
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

    @property
    def impedance(self) -> np.ndarray:
        """The (4, 3) impedance the next cycle is walked with."""
        return self._impedance[0]

    # -- events ------------------------------------------------------------

    def _finish(self, cycles_run: int, outcome: str, reason: str | None = None):
        self.finished = True
        rec = self.record
        rec.cycles_run, rec.outcome, rec.failure_reason = cycles_run, outcome, reason
        if outcome == "success":
            rec.tuning_steps = cycles_run

    def _close_record(self):
        """Fill in the finished trial's whole-run fields and its final nets."""
        rec = self.record
        rec.max_weight_ratio = float(self._max_weight_norm[0]) / self._initial_weight_norm
        if len(rec.log["reset"]):
            rec.rms_initial, rec.rms_final = compute_rms(rec, self.cfg.rms_window)
        rec.actors = unstack_net(self.actor)
        rec.critics = unstack_net(self.critic)

    def _all_converged(self, k: int, converged_at: list[int]) -> bool:
        """Apply the scenario's rule once every phase has converged in cycle ``k``.

        Returns True when the convergence windows start over: a new pace leg.
        """
        cfg = self.cfg
        if cfg.scenario == SCENARIO_LEVEL_GROUND:
            self.record.converged_at = dict(zip(map(int, PHASES), converged_at))
            self._finish(k + 1, "success")
        elif cfg.scenario == SCENARIO_TERRAIN:
            if self._segment_converged is None:
                self._segment_converged = max(converged_at)
                if self._consecutive_tracks + 1 >= cfg.consecutive_tracks:
                    self._record_segment()
                    self._finish(k + 1, "success")
        elif cfg.scenario == SCENARIO_PACE:
            self.record.legs.append({
                "leg": len(self.record.legs),
                "pace": self.program.pace_sequence[self.pace_index],
                "start_cycle": self._leg_start,
                "converged_cycle": k,
                "steps": k - self._leg_start + 1,
            })
            if self.pace_index + 1 >= len(self.program.pace_sequence):
                self._finish(k + 1, "success")
            else:
                self.pace_index += 1
                self._leg_start = k + 1
                return True
        return False

    def _record_segment(self):
        start = self._segment_index * self.program.switch_period
        self.record.segments.append({
            "segment": self._segment_index,
            "pool_index": self.program.profile_index(start),
            "start_cycle": start,
            "converged": self._segment_converged is not None,
            "converged_cycle": self._segment_converged,
        })

    def _close_segment(self):
        """Record the terrain segment that ends here and open the next one."""
        self._record_segment()
        tracked = self._segment_converged is not None
        self._consecutive_tracks = self._consecutive_tracks + 1 if tracked else 0
        self._segment_converged = None
        self._segment_index += 1

    # -- stepping ----------------------------------------------------------

    def step(self) -> bool:
        """Run one gait cycle; returns True once the trial has finished."""
        if not self.finished:
            lockstep = _Lockstep([self])
            lockstep.step()
            if lockstep.trials:
                lockstep.leave([0])
        return self.finished

    def run(self) -> TrialRecord:
        """Run to the end, as a lockstep of one, and return the finished record."""
        _step_to_end([self])
        return self.record


def _max_abs_weights(critic: CriticNet, actor: ActorNet) -> np.ndarray:
    """Largest absolute weight of each entry along the nets' leading trial axis."""
    mats = (critic.w_hidden, critic.w_out, actor.w_hidden, actor.w_out)
    flat = np.concatenate([m.reshape(len(m), -1) for m in mats], axis=1)
    return np.abs(flat).max(axis=1)


# A lockstep keeps per-trial arrays, nets and tapes stacked along a leading
# trial axis.  These helpers act on an array, or field by field on a net,
# tape or other dataclass of arrays.  An index of None stands for every
# entry, which costs nothing.

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


def _index(positions: np.ndarray, count: int):
    """Ascending ``positions`` as an index into ``count`` entries: None when all."""
    return None if len(positions) == count else positions


def _apply_deltas(impedance: np.ndarray, delta: np.ndarray, ranges: ParameterRanges):
    """(m, 4, 3) ``impedance`` plus ``delta``, clamped to ``ranges``, and (m, 4) clamp flags.

    Each phase goes through :func:`apply_delta` for the whole stack; its
    flag says whether any trial clamped, and only then do the per-trial
    flags need the clamped rows compared with the unclamped sums.
    """
    updated, clamped = impedance, False
    for phase in PHASES:
        updated, flag = apply_delta(updated, phase, delta[:, phase - 1], ranges)
        clamped |= flag
    if not clamped:
        return updated, np.zeros(delta.shape[:2], bool)
    return updated, np.logical_or.reduce(updated != impedance + delta, axis=-1)


# The per-cycle state a trial holds as one-row stacks and a lockstep stacks,
# and the rows a lockstep keeps of its own for each trial.
_STACKED = ("_impedance", "_critic", "_actor", "_max_weight_norm",
            "_lag_value", "_lag_cost", "_lagged", "_window", "_converged")
_LOCKSTEP_ROWS = ("_initial", "_features", "_reference", "_targets", "_cycle_dur", "_stale",
                  "_period", "_drifting")


@dataclass
class _Learned:
    """One lockstep cycle's learning results, one entry per trial that kept its update.

    The fields from ``action`` to ``lagged`` are the log's learning fields.
    """

    rows: np.ndarray          # (m,) positions in the lockstep
    action: np.ndarray        # (m, 4, 3)
    delta: np.ndarray         # (m, 4, 3)
    cost: np.ndarray          # (m, 4)
    q_value: np.ndarray       # (m, 4)
    td: np.ndarray            # (m, 4), 0 where the trial had no lag
    critic_bound: np.ndarray  # (m, 4)
    actor_bound: np.ndarray   # (m, 4)
    monitor_ok: np.ndarray    # (m, 4)
    lagged: np.ndarray        # (m,)
    weight_norm: np.ndarray   # (m,)


class _Lockstep:
    """Unfinished trials of one config advanced together, one gait cycle per step.

    Row ``i`` of every stack (the ``_STACKED`` state, plant features,
    targets, paces, tallies) belongs to ``trials[i]``, and every trial
    walks cycle ``k``.  A cycle is array work on the stacks: the feature-map
    plants step together, and errors, bounds, learning, the impedance
    update, convergence windows and the log rows come out for all trials
    at once.  Each trial still draws its plant noise from its own
    generator, and torque-law knees integrate one by one.  Per-trial Python
    runs only for events: terrain switches, finished segments and legs,
    faults, halts and endings.  Every array rule is bit-identical to the
    one-trial rule, so each trial gets the numbers it gets alone.  A
    trial leaves with its state and log rows handed back to it.
    """

    def __init__(self, trials):
        self.trials = list(trials)
        first = self.trials[0]
        self.cfg = cfg = first.cfg
        self.k = first.k
        if any(t.k != self.k for t in self.trials):
            raise ValueError("a lockstep steps trials that are at the same cycle")
        n = len(self.trials)
        for name in _STACKED:
            setattr(self, name, _concat([getattr(t, name) for t in self.trials]))
        self._initial = np.stack([t.initial_impedance for t in self.trials])
        # feature-map plants share a config, so one of them steps the stack
        self._plant = first.plant if isinstance(first.plant, FeatureMapPlant) else None
        self._features = (np.stack([t.plant.state for t in self.trials])
                          if self._plant is not None else None)
        # the plants' reference features at their trials' paces, kept while a pace holds
        self._reference = (self._plant.paced_reference(
            np.array([t.program.pace(t.pace_index) for t in self.trials]))
            if self._plant is not None else None)
        self._targets = np.zeros((n, NUM_PHASES, 2))
        self._cycle_dur = np.zeros(n)
        self._stale = np.ones(n, bool)  # targets to (re)compute before the next walk
        programs = [t.program for t in self.trials]
        self._period = np.array([p.switch_period if p.profile_pool else 0 for p in programs])
        self._drifting = np.array([p.drift_gain > 0.0 for p in programs])
        # tolerance and safety limits stacked, so one inside_bounds call checks both
        tolerance, self._safety = cfg.bounds.limits("tolerance"), cfg.bounds.limits("safety")
        self._bounds = tuple(np.stack([t, s])[:, None] for t, s in zip(tolerance, self._safety))
        self._monitor = cfg.dhdp.monitor_params()
        # log blocks (rows, logged flags) not yet handed over, and each
        # trial's handed-over blocks
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []
        self._chunks: list[list[np.ndarray]] = [[] for _ in self.trials]

    def step(self):
        """One gait cycle of every trial; the trials that finish in it leave."""
        cfg, k, n = self.cfg, self.k, len(self.trials)
        self._start_cycle()
        measured, walked = self._measure()
        errors = alignment_errors(self._targets, measured)
        for i in self._drifting.nonzero()[0]:
            if walked[i]:
                self.trials[i].program.observe_error(errors[i])
        pct = 100.0 * errors[..., 0] / self._cycle_dur[:, None]
        flags = inside_bounds(errors, *self._bounds, self._cycle_dur)
        in_tol, in_safety = flags[0], flags[1]  # indexing beats unpacking an array
        learns = walked & np.logical_and.reduce(in_safety, axis=1)
        reset = walked & ~learns

        # the trials inside their safety bounds learn; the state the nets see
        # is the error as a fraction of each phase's safety bound
        state = np.empty((n, NUM_PHASES, 2))
        state[..., 0] = pct / self._safety[1]
        state[..., 1] = errors[..., 1] / self._safety[0]
        learners = learns.nonzero()[0]
        learned = (self._learn(learners, _take(state, _index(learners, n)))
                   if len(learners) else None)

        walked_impedance = impedance = self._impedance
        if np.count_nonzero(reset):
            impedance = np.where(reset[:, None, None], self._initial, impedance)
        clamped = None
        logged = closing = walked  # the trials whose cycle leaves rows, and keeps them running
        if learned is not None:
            kept = _index(learned.rows, n)
            updated, clamped = _apply_deltas(_take(impedance, kept), learned.delta, cfg.ranges)
            impedance = _put(impedance, kept, updated)
            self._max_weight_norm = _put(self._max_weight_norm, kept, np.maximum(
                _take(self._max_weight_norm, kept), learned.weight_norm))
            if cfg.strict_monitor:
                halted = learned.rows[np.logical_or.reduce(~learned.monitor_ok, axis=1)]
                for i in halted:
                    self.trials[i]._finish(k + 1, "failure", "monitor-violation")
                closing = walked.copy()
                closing[halted] = False
        if learned is None or len(learned.rows) < len(learners):  # numeric faults
            logged = reset.copy()
            if learned is not None:
                logged[learned.rows] = True
            closing = closing & logged
        self._impedance = impedance
        # a trial keeps its lag only when it learned: a safety reset drops it
        self._lagged = learns

        # each window is a ring of its last flags, cycle k's in slot k % window;
        # a phase latches unless the cycle ended its trial
        self._window[..., k % cfg.window] = in_tol
        latch = ((np.add.reduce(self._window, axis=-1) >= cfg.quota) & (self._converged < 0)
                 & closing[:, None])
        self._converged[latch] = k
        converged = self._converged >= 0
        self._log(logged, errors, pct, walked_impedance, reset, in_tol, converged,
                  learned, clamped)

        # a trial's phases first stand all converged in the cycle its last one
        # latches; later calls of _all_converged before its windows start over
        # change nothing, so only a cycle with a latch makes them
        if np.count_nonzero(latch):
            for i in (closing & np.logical_and.reduce(converged, axis=1)).nonzero()[0]:
                trial = self.trials[i]
                if trial._all_converged(k, self._converged[i].tolist()):
                    self._window[i] = False
                    self._converged[i] = -1
                    if self._plant is not None:
                        self._reference[i] = self._plant.paced_reference(
                            trial.program.pace(trial.pace_index))
                    self._stale[i] = True
        if k + 1 >= cfg.max_cycles:
            for i in closing.nonzero()[0]:
                trial = self.trials[i]
                if not trial.finished:
                    if cfg.scenario == SCENARIO_TERRAIN:
                        trial._close_segment()
                    trial._finish(k + 1, "failure", "max-cycles")
        self.k = k + 1
        finished = [i for i, trial in enumerate(self.trials) if trial.finished]
        if finished:
            self.leave(finished)

    def _start_cycle(self):
        """Events before cycle ``k`` is walked: switches of pool programs and new targets.

        In scenario 2 a switch closes the trial's segment and restarts its windows.
        """
        k = self.k
        for period in set(self._period.tolist()) - {0}:  # of the programs with a pool
            if k > 0 and k % period == 0:
                rows = (self._period == period).nonzero()[0]
                for i in rows:
                    trial = self.trials[i]
                    if self.cfg.scenario == SCENARIO_TERRAIN:
                        trial._close_segment()
                    if trial.program.profile_index(k) != trial.program.profile_index(k - 1):
                        trial.record.switch_cycles.append(k)
                self._stale[rows] = True
                if self.cfg.scenario == SCENARIO_TERRAIN:
                    self._window[rows] = False
                    self._converged[rows] = -1
        stale = (self._stale | self._drifting).nonzero()[0]
        if len(stale):
            for i in stale:
                trial = self.trials[i]
                self._targets[i] = trial.program.target_for(k, trial.pace_index)
            self._cycle_dur[stale] = cycle_duration(self._targets[stale])
            self._stale[:] = False

    def _measure(self) -> tuple[np.ndarray, np.ndarray]:
        """The features each plant walks cycle ``k`` with, and which trials walked it.

        A torque-law knee that diverges ends its trial; its row of the
        features is then the target, a stand-in no rule reads.
        """
        if self._plant is not None:
            draws = np.array([t.plant.rng.standard_normal((NUM_PHASES, 2))
                              for t in self.trials])
            self._features = self._plant.respond(self._features, self._impedance,
                                                 self._reference, draws)
            return self._features, np.ones(len(self.trials), bool)
        measured = self._targets.copy()
        walked = np.ones(len(self.trials), bool)
        for i, trial in enumerate(self.trials):
            try:
                measured[i] = profile_to_array(trial.plant.step(self._impedance[i]))
            except PlantInstabilityError as exc:
                walked[i] = False
                trial._finish(self.k, "failure", f"plant-instability: {exc}")
        return measured, walked

    def _log(self, logged, errors, pct, impedance, reset, in_tol, converged, learned, clamped):
        """Queue cycle ``k``'s log rows of every trial as one block in ``_LOG_FIELDS`` order."""
        block = np.zeros((len(self.trials), NUM_PHASES, len(_LOG_FIELDS)))
        block[..., 0] = errors[..., 0]
        block[..., 1] = pct
        block[..., 2] = errors[..., 1]
        block[..., 3:6] = impedance
        block[..., 6] = reset[:, None]
        block[..., 7] = in_tol
        block[..., 8] = converged
        if learned is not None:
            kept = _index(learned.rows, len(self.trials))
            rows = slice(None) if kept is None else kept
            at = len(_ROW_FIELDS)
            block[rows, :, at:at + 3] = learned.action
            block[rows, :, at + 3:at + 6] = learned.delta
            for j, values in enumerate((learned.cost, learned.q_value, learned.td,
                                        learned.critic_bound, learned.actor_bound,
                                        learned.monitor_ok), start=at + 6):
                block[rows, :, j] = values
            block[rows, :, -2] = learned.lagged[:, None]
            block[rows, :, -1] = clamped
        self._blocks.append((block, logged))

    def _flush_log(self):
        """Hand the queued log blocks to each trial's chunks, its rows only."""
        if not self._blocks:
            return
        blocks = np.stack([block for block, _ in self._blocks], axis=1)  # (n, cycles, 4, F)
        logged = np.stack([flags for _, flags in self._blocks], axis=1)
        for chunks, rows, flags in zip(self._chunks, blocks, logged):
            chunks.append(rows[flags])
        self._blocks = []

    def leave(self, positions: list[int]):
        """Hand the trials at ``positions`` (ascending) their state back and drop them."""
        self._flush_log()
        n = len(self.trials)
        for i in positions:
            trial, row = self.trials[i], _index(np.array([i]), n)
            for name in _STACKED:
                setattr(trial, name, _take(getattr(self, name), row))
            if self._features is not None:
                trial.plant.state = self._features[i].copy()
            trial.k = self.k
            _append_rows(trial.record, self._chunks[i])
            if trial.finished:
                trial._close_record()
            else:
                trial.record.cycles_run = self.k
        keep = [i for i in range(n) if i not in positions]
        self.trials = [self.trials[i] for i in keep]
        self._chunks = [self._chunks[i] for i in keep]
        if keep:
            for name in _STACKED + _LOCKSTEP_ROWS:
                value = getattr(self, name)
                if value is not None:
                    setattr(self, name, _take(value, keep))

    def _learn(self, rows: np.ndarray, state: np.ndarray) -> _Learned | None:
        """One learning step of the trials at positions ``rows``, all four phases each.

        ``state`` is their (m, 4, 2) network input.  Returns the results of
        the trials that kept their update.  A numeric fault fails only the
        trials whose own update overflows: the step is then redone one
        trial at a time, and each trial keeps exactly what it keeps alone.
        """
        dhdp = self.cfg.dhdp
        learners = _index(rows, len(self.trials))
        critic, actor = _take(self._critic, learners), _take(self._actor, learners)
        a_tape = actor_eval(actor, state)
        cost = stage_cost(state, a_tape.output, dhdp.cost)
        c_tape = critic_eval(critic, state, a_tape.output)
        report = stability_monitor(critic, actor, c_tape, a_tape,
                                   self._monitor, dhdp.critic_lr, dhdp.actor_lr)
        monitor_ok = report.critic_ok & report.actor_ok

        # the critic steps only where the previous cycle left a lag
        lagged = _take(self._lagged, learners)
        lag = lagged.nonzero()[0]
        # a learner without a lag logs no TD error; its entry stays 0
        td = None if len(lag) == len(rows) else np.zeros_like(cost)
        try:
            if len(lag):
                sub = _index(lag, len(rows))
                lag_rows = _take(learners, sub) if learners is not None else sub
                step_td = td_error(_take(c_tape.value, sub), _take(self._lag_value, lag_rows),
                                   _take(self._lag_cost, lag_rows), dhdp.discount)
                updated = critic_update(_take(critic, sub), step_td, _take(c_tape, sub),
                                        dhdp.critic_lr, dhdp.discount)
                critic = _put(critic, sub, updated)
                c_tape = _put(c_tape, sub, critic_eval(
                    updated, _take(state, sub), _take(a_tape.output, sub)))
                td = _put(td, sub, step_td)
            actor = actor_update(actor, critic, c_tape, a_tape, dhdp.actor_lr)
        except NumericFaultError as exc:
            if len(rows) == 1:
                self._fault(rows[0], monitor_ok[0], exc)
                return None
            parts = [self._learn(rows[j:j + 1], state[j:j + 1]) for j in range(len(rows))]
            parts = [part for part in parts if part is not None]
            return _concat(parts) if parts else None

        self._critic = _put(self._critic, learners, critic)
        self._actor = _put(self._actor, learners, actor)
        self._lag_value = _put(self._lag_value, learners, c_tape.value)
        self._lag_cost = _put(self._lag_cost, learners, cost)

        return _Learned(
            rows=rows, action=a_tape.output,
            delta=scale_action(a_tape.output, dhdp.action_scale.half_ranges),
            cost=cost, q_value=c_tape.value, td=td, critic_bound=report.critic_bound,
            actor_bound=report.actor_bound, monitor_ok=monitor_ok, lagged=lagged,
            weight_norm=_max_abs_weights(critic, actor))

    def _fault(self, i: int, monitor_ok: np.ndarray, exc: NumericFaultError):
        """End trial ``i``'s cycle on a non-finite update: the monitor counts, nothing else is kept."""
        trial = self.trials[i]
        trial.record.monitor_violations += int((~monitor_ok).sum())
        trial._finish(self.k + 1, "failure", f"numeric-fault: {exc}")


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
    peak, pct = record.log["d_peak_rad"], record.log["d_duration_pct"]
    if not len(peak):
        raise ValueError("cannot compute RMS of an empty record")

    def pooled(rows):
        return {
            "peak_rad": float(np.sqrt(np.mean(np.square(peak[rows])))),
            "duration_pct": float(np.sqrt(np.mean(np.square(pct[rows])))),
        }

    initial = pooled(slice(0, NUM_PHASES * window))
    in_tol = record.log["in_tolerance"].reshape(-1, NUM_PHASES)
    final_rows = []
    for idx in range(NUM_PHASES):
        cycles = np.flatnonzero(in_tol[:, idx])
        if not len(cycles):
            return initial, None
        # samples are pooled in the iteration order of a set of cycles, which
        # fixes the order, and so the rounding, of the mean's sum
        final_rows.extend(NUM_PHASES * c + idx for c in set(cycles[-window:].tolist()))
    return initial, pooled(final_rows)


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


def _run_batch(cfg: TrialConfig, specs: list) -> list[TrialRecord]:
    """Records of the trials ``specs`` ((seed sequence, policy) pairs), stepped in one lockstep."""
    trials = [Trial(cfg, seq, policy=policy) for seq, policy in specs]
    _step_to_end(trials)
    # every record comes out of run_trial, as a lone trial's does; the
    # benchmark's traced run collects the records there
    return [run_trial(cfg, trial) for trial in trials]


@dataclass
class BatchResult:
    cfg: TrialConfig
    seed: int
    records: list[TrialRecord]
    metrics: Metrics
    policy_trials: list[int] = field(default_factory=list)
    policy_index: list[int] = field(default_factory=list)


def run_training_batch(cfg: TrialConfig, seed: int, trials: int = 30,
                       keep_policies: int = 10) -> BatchResult:
    """Run ``trials`` independent training trials and pick saved policies.

    Policies are drawn, without replacement, from the successful trials;
    when fewer than ``keep_policies`` succeed, all successes are kept.
    """
    seq = np.random.SeedSequence(seed)
    trial_seqs = seq.spawn(trials + 1)
    records = _run_batch(cfg, [(trial_seqs[i], None) for i in range(trials)])

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
    """Evaluate saved policies on fresh trials with new initial impedance.

    The batch runs in this process: ``jobs`` other than 1 is refused.
    """
    if jobs != 1:
        raise ValueError(f"jobs: batches run in one process, got {jobs}")
    if not policies:
        raise ValueError("testing requires at least one saved policy")
    trial_seqs = np.random.SeedSequence(seed).spawn(len(policies) * trials_per_policy)
    policy_index = [p_idx for p_idx in range(len(policies)) for _ in range(trials_per_policy)]
    records = _run_batch(cfg, [(trial_seq, policies[p_idx]) for trial_seq, p_idx
                               in zip(trial_seqs, policy_index)])
    return BatchResult(cfg=cfg, seed=seed, records=records,
                       metrics=aggregate_metrics(records),
                       policy_index=policy_index)


# ---------------------------------------------------------------------------
# Structured logs


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# a comma goes into the free byte 0 of every cell but a line's first
_COMMA, _CRLF = np.frombuffer(b",\0\0\0\r\n\0\0", dtype=np.uint32)


def write_trial_csv(record: TrialRecord, path) -> None:
    """The record's log as CSV, a header of ``CSV_COLUMNS`` then one line per row.

    The bytes are those of a ``csv.writer`` writing :func:`_fmt` of every
    cell.
    """
    lines = _padded_lines(record)
    with open(path, "wb") as fh:
        fh.write(",".join(CSV_COLUMNS).encode() + b"\r\n")
        fh.write(lines.tobytes().translate(None, b"\0"))


def _padded_lines(record: TrialRecord) -> np.ndarray:
    """The log's CSV lines as bytes with NUL padding between the characters.

    All lines are built as one word-major array of cells, one array column
    per line (see ``_repr``); its cell arrays are freed on return, before
    the bytes are copied out.
    """
    n = len(record.log["reset"])
    columns = [record.column(name) for name in CSV_COLUMNS]
    floats = iter(_repr.float_columns(np.array([c for c in columns if c.dtype.kind == "f"])))
    blocks = []
    for name, values in zip(CSV_COLUMNS, columns):
        if values.dtype.kind == "f":
            cells = next(floats)
        else:
            # a digit more than the largest value has keeps byte 0 free
            cells = _repr.int_words(values, len(str(int(values.max(initial=0)))) // 4 + 1)
        missing = record.missing(name)
        if missing is not None:
            cells *= ~missing
        blocks.append(cells)
    for cells in blocks[1:]:
        cells[0] |= _COMMA
    blocks.append(np.full((1, n), _CRLF))
    return np.ascontiguousarray(np.concatenate(blocks).T).view(np.uint8).reshape(-1)


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
