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
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _repr
from .config import RUN_DEFAULTS, SCENARIO_LEVEL_GROUND, SCENARIO_TERRAIN
from .config import ConfigError, check_run_values
from .config import DhdpConfig, TrialConfig  # noqa: F401 (bench/run.py: harness.TrialConfig())
from .core import (
    KNEE_ANGLE_MAX,
    BoundsTable,
    NUM_PHASES,
    PHASES,
    check_impedance,
    duration_error_pct,
    inside_bounds,
    within_bound,
)
from .dhdp import (
    ActorNet,
    CriticNet,
    NumericFaultError,
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
    FeatureMapPlant,
    OdeKneePlant,
    PlantInstabilityError,
    TargetProgram,
    alignment_errors,
    clip_features,
    cycle_duration,
    profile_to_array,
    switch_schedule,
)

# Fraction of the safety bound an initial impedance draw may use up; the
# margin leaves room for measurement noise around the steady-state check.
FEASIBILITY_MARGIN = 0.45
# Minimum pooled peak-angle RMS the initial detuning must produce.  Draws
# below this start essentially on target and would make the tuning run a
# no-op; published initial errors sit well above this floor.
MIN_INITIAL_ANGLE_RMS = 0.04
MAX_INITIAL_DRAWS = 1000
# Initial-draw candidates probed per steady_profile call.  A torque-law
# probe walks its candidates as one stack, whose cost is mostly per substep,
# not per candidate, while the first candidate to pass ends the draw.  Over
# 200 trial seeds a torque-law draw needed 3 to 758 candidates (median 97,
# 90th percentile 312), and its draws cost about the same for chunks of 192
# to 512; 256 ends three draws in four with one call.
PROBE_CHUNK = 256
# Gait cycles a steady-state probe walks; the last one's features count.
STEADY_CYCLES = 3
# Gait cycles of plant noise a feature-map trial draws at once, into its row of
# one (n, NOISE_BLOCK, 4, 2) block: the same numbers as one (4, 2) draw a cycle.
NOISE_BLOCK = 16


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


def safety_check(errors, bounds: BoundsTable, cycle_dur: float) -> bool:
    """True when every phase's (d_duration, d_peak) error row is inside its safety bound."""
    return all(within_bound(err, bound, cycle_dur) for err, bound in zip(errors, bounds.safety))


def make_plant(cfg: TrialConfig, rng: np.random.Generator):
    if cfg.plant_kind == "feature-map":
        return FeatureMapPlant(cfg.feature_map, rng)
    return OdeKneePlant(cfg.ode)


def steady_profile(plant, imp: np.ndarray) -> np.ndarray:
    """(4, 2) features the plant settles to under constant (4, 3) impedance (noise-free).

    A (C, 4, 3) stack of impedances gives a (C, 4, 2) stack of features.  A
    torque-law knee walks one impedance through :meth:`OdeKneePlant.step` and
    a stack through :meth:`OdeKneePlant.walk_stack`, whose rows are the
    same bytes; a candidate whose walk diverges comes back as a NaN row,
    and probed alone it raises the fault.
    """
    if isinstance(plant, FeatureMapPlant):
        return clip_features(plant.steady_state(imp))
    if imp.ndim == 3:
        return plant.walk_stack(imp, STEADY_CYCLES)
    # an OdeKneePlant holds two floats and a frozen config: a shallow copy
    # probes without touching the trial's plant
    probe = copy.copy(plant)
    for _ in range(STEADY_CYCLES):
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
    call's own, since the block draws past the candidate returned.  The
    candidates are probed ``PROBE_CHUNK`` at a time with one
    :func:`steady_profile` call, and the first in draw order that passes
    wins.  A candidate whose walk diverges is infeasible like any other
    that fails: its NaN error rows are inside no bound.
    """
    reference = cfg.feature_map.reference_impedance
    spread = cfg.init_spread
    target_dur = cycle_duration(target)
    limits = _margin_limits(cfg.bounds, FEASIBILITY_MARGIN)
    for _ in range(6):
        factors = rng.uniform(1.0 - spread, 1.0 + spread,
                              size=(MAX_INITIAL_DRAWS, NUM_PHASES, 3))
        candidates = scaled_impedance(reference, factors)
        for start in range(0, MAX_INITIAL_DRAWS, PROBE_CHUNK):
            chunk = candidates[start:start + PROBE_CHUNK]
            errors = alignment_errors(target, steady_profile(plant, chunk))
            pct = duration_error_pct(errors, target_dur)
            inside = inside_bounds(errors, *limits, pct).all(axis=1)
            for i in np.flatnonzero(inside).tolist():
                if _angle_rms(errors[i]) >= MIN_INITIAL_ANGLE_RMS:
                    return chunk[i].copy()
        spread *= 0.7
    raise RuntimeError("could not draw a feasible initial impedance")


def _angle_rms(errors: np.ndarray) -> float:
    """RMS over the phases of one (4, 2) error array's peak-angle errors."""
    # Python's float ** (libm pow) and numpy's square can differ in the last
    # bit; recorded runs and goldens were drawn with the former, and with
    # numpy's mean of four, which sums left to right as this loop does
    # (sum() compensates from Python 3.12)
    total = 0.0
    for p in errors[:, 1].tolist():
        total += p ** 2
    return math.sqrt(total / NUM_PHASES)


def build_profile_pool(cfg: TrialConfig, plant, rng: np.random.Generator):
    """Pool of (4, 2) target profiles for terrain switching, mutually trackable.

    Each member comes from a perturbed impedance pushed through the
    plant's steady response.  Members are redrawn until every pair stays
    within a comfortable fraction of the safety bounds, so a switch never
    dooms the controller to reset forever.
    """
    reference = cfg.feature_map.reference_impedance
    limits = _margin_limits(cfg.bounds, 0.7)
    members = np.empty((0, NUM_PHASES, 2))
    for _ in range(cfg.pool_size):
        for _ in range(MAX_INITIAL_DRAWS):
            factors = rng.uniform(1.0 - cfg.pool_spread, 1.0 + cfg.pool_spread,
                                  size=(NUM_PHASES, 3))
            candidate = scaled_impedance(reference, factors)
            profile = steady_profile(plant, candidate)
            errors = alignment_errors(members, profile)
            pct = duration_error_pct(errors, cycle_duration(members))
            if inside_bounds(errors, *limits, pct).all():
                members = np.concatenate([members, profile[None]])
                break
        else:
            raise RuntimeError("could not build a mutually trackable profile pool")
    return tuple(members)


def make_target_program(cfg: TrialConfig, plant, rng: np.random.Generator) -> TargetProgram:
    if cfg.scenario == SCENARIO_TERRAIN:
        profiles = build_profile_pool(cfg, plant, rng)
        segments = cfg.max_cycles // cfg.switch_period + 1
        schedule = switch_schedule(cfg.pool_size, segments, rng)
        return TargetProgram(
            base_profile=profiles[schedule[0]],
            profile_pool=profiles,
            switch_period=cfg.switch_period,
            schedule=schedule,
        )
    return TargetProgram(
        base_profile=steady_profile(plant, cfg.feature_map.reference_impedance),
        pace_sequence=cfg.pace_sequence(),
    )


class Trial:
    """One tuning trial, advanced cycle by cycle.

    The trial holds what it starts from (plant, target program, initial
    impedance and nets) and its record.  It enters one :class:`_Lockstep`,
    the routine that steps whole batches, which owns its per-cycle state
    from cycle 0, applies its scenario's rules, ends it and writes its
    record; the trial drops its starting nets once the lockstep has
    stacked them.  :meth:`step` advances a lockstep of one that the trial
    keeps (tests read the state from its row 0), and :meth:`run` steps
    that one, or a new one, to the end.
    """

    def __init__(self, cfg: TrialConfig, seed, policy=None,
                 target_program: TargetProgram | None = None,
                 initial_impedance: np.ndarray | None = None):
        self.cfg = cfg
        if not isinstance(seed, np.random.SeedSequence):
            check_run_values(seed=seed)
            seed = np.random.SeedSequence(seed)
        if policy is not None and cfg.load_critic and policy[1] is None:
            raise ConfigError("load_critic: the policy has no critic weights")
        plant_seq, program_seq, init_seq, weight_seq = seed.spawn(4)

        self.plant = make_plant(cfg, np.random.default_rng(plant_seq))
        self.program = target_program if target_program is not None else make_target_program(
            cfg, self.plant, np.random.default_rng(program_seq))

        if initial_impedance is not None:
            self.initial_impedance = check_impedance(initial_impedance)
        else:
            self.initial_impedance = draw_initial_impedance(
                cfg, self.plant, self.program.target_for(0), np.random.default_rng(init_seq))

        wrng = np.random.default_rng(weight_seq)
        scale = cfg.dhdp.init_weight_scale
        critics = [init_critic(wrng, cfg.dhdp.critic_hidden, scale) for _ in PHASES]
        actors = [init_actor(wrng, cfg.dhdp.actor_hidden, scale) for _ in PHASES]
        if policy is not None:
            actors = policy[0]
            critics = policy[1] if cfg.load_critic else critics

        # weights (4, h, 5) and (4, h), + 0.0: a given -0.0 becomes the 0.0 a
        # zero-TD step may leave of it; no draw or update makes one
        critic = stack_nets(critics)
        self.initial_critic = CriticNet(critic.w_hidden + 0.0, critic.w_out + 0.0)
        self.initial_actor = stack_nets(actors)  # weights (4, h, 2) and (4, 3, h)

        self.finished = False
        self._lockstep: _Lockstep | None = None  # the lockstep of one step() advances
        self.record = TrialRecord(scenario=cfg.scenario, stage=cfg.stage)

    @property
    def pace_index(self) -> int:
        """The pace leg the trial walks: one per leg its record holds."""
        return len(self.record.legs)

    def step(self) -> bool:
        """Run one gait cycle; returns True once the trial has finished."""
        if not self.finished:
            self._lockstep = self._lockstep or _Lockstep([self])
            self._lockstep.step()
        return self.finished

    def run(self) -> TrialRecord:
        """Run to the end, on the lockstep :meth:`step` made or a new one; the record."""
        if not self.finished:
            (self._lockstep or _Lockstep([self])).run()
        return self.record


def _max_abs_weights(critic: CriticNet, actor: ActorNet) -> np.ndarray:
    """Largest absolute weight of each entry along the nets' leading axis."""
    mats = (critic.w_hidden, critic.w_out, actor.w_hidden, actor.w_out)
    flat = np.concatenate([m.reshape(len(m), -1) for m in mats], axis=1)
    return np.maximum.reduce(np.abs(flat, out=flat), axis=1)


# A lockstep keeps per-trial arrays and nets stacked along a leading trial
# axis.  These helpers act on an array, or field by field on a net or other
# dataclass of arrays.  An index of None stands for every entry, which costs
# nothing.

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


def _row(net, i: int):
    """Net ``i`` along the leading axis as a copy, which keeps no stack alive."""
    return type(net)(**{name: value[i].copy() for name, value in vars(net).items()})


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


# The rows a lockstep keeps for each trial, all dropped together when trials leave.
_ROWS = ("impedance", "critic", "actor", "_max_weight_norm", "_initial_weight_norm",
         "_lag_value", "_lag_cost", "_lagged", "_window", "_converged",
         "_initial", "_features", "_noise", "_reference", "_targets", "_cycle_dur", "_stale",
         "_drift", "_ended", "_logged", "_index")


class _Lockstep:
    """Unfinished trials of one config advanced together, one gait cycle per step.

    The trials enter new, at cycle 0.  Row ``i`` of every stack (``_ROWS``:
    impedance, nets, lag, windows, plant features, targets, paces, target
    drift, tallies) belongs to ``trials[i]`` until it has finished, and
    every trial walks cycle ``k`` of a program that switches as the
    others' do.  A cycle is array work on the stacks: the feature-map
    plants step together, and errors, bounds, learning, the impedance
    update, convergence windows and the log rows come out for all trials
    at once.  Each trial still draws its plant noise from its own
    generator, NOISE_BLOCK cycles at a time, and torque-law knees
    integrate one by one.  Per-trial Python runs only for events, where
    the scenario rules apply: new terrains (:meth:`_start_cycle`),
    converged trials (:meth:`_all_converged`), faults, halts and endings.  Every array rule is bit-identical to the
    one-trial rule, so each trial gets the numbers it gets alone.
    :meth:`_end` ends a trial where it ends.  Each cycle's log block is
    queued; in a step that ends trials, every trial takes its rows of the
    queue, and :meth:`_leave` writes the ended ones' records from theirs,
    their final nets and weight ratios.  The lockstep is the only writer
    of a record once the trial is built.  :meth:`run` may be given
    an ``on_leave(index, record)`` to call as each trial leaves, with the
    trial's position in the list the lockstep was built from.
    """

    def __init__(self, trials):
        self.trials = list(trials)
        first = self.trials[0]
        self.cfg = cfg = first.cfg
        # the switch period of a program with a pool (0 without one): one per lockstep
        shared = {t.program.switch_period if t.program.profile_pool else 0 for t in self.trials}
        if len(shared) > 1:
            raise ValueError("a lockstep steps trials with programs that switch alike")
        [self._period] = shared
        self.k = 0
        n = len(self.trials)
        self._initial = np.stack([t.initial_impedance for t in self.trials])
        self.impedance = self._initial  # (n, 4, 3), for the next cycle; never written in place
        self.critic = stack_nets([t.initial_critic for t in self.trials])
        self.actor = stack_nets([t.initial_actor for t in self.trials])
        for t in self.trials:  # the stacks hold the starting nets from here on
            t.initial_critic = t.initial_actor = None
        self._max_weight_norm = self._initial_weight_norm = _max_abs_weights(
            self.critic, self.actor)
        # previous cycle's q-values and costs, kept only when it learned
        self._lag_value = np.zeros((n, NUM_PHASES))
        self._lag_cost = np.zeros((n, NUM_PHASES))
        self._lagged = np.zeros(n, bool)
        # each phase's in-tolerance flags of its last ``window`` cycles since
        # the windows last started over, and the cycle its convergence
        # latched at (-1 while it has not)
        self._window = np.zeros((n, NUM_PHASES, cfg.window), bool)
        self._converged = np.full((n, NUM_PHASES), -1)
        # feature-map plants share a config, so one of them steps the stack
        self._plant = first.plant if isinstance(first.plant, FeatureMapPlant) else None
        self._features = (np.stack([t.plant.state for t in self.trials])
                          if self._plant is not None else None)
        # the feature-map plants' draws for this block of NOISE_BLOCK cycles
        self._noise = (np.empty((n, NOISE_BLOCK, NUM_PHASES, 2))
                       if self._plant is not None else None)
        # the plants' reference features at their trials' paces, kept while a pace holds
        self._reference = (self._plant.paced_reference(
            np.array([t.program.pace(0) for t in self.trials]))
            if self._plant is not None else None)
        self._targets = np.zeros((n, NUM_PHASES, 2))
        self._cycle_dur = np.zeros(n)
        self._stale = np.ones(n, bool)  # targets to (re)compute before the next walk
        # each target's drift, a low-pass of its trial's tracking error; none at gain 0
        self._drift = np.zeros((n, NUM_PHASES, 2)) if cfg.drift_gain > 0.0 else None
        # tolerance and safety limits stacked, so one inside_bounds call checks both
        tolerance, safety = cfg.bounds.limits("tolerance"), cfg.bounds.limits("safety")
        self._bounds = tuple(np.stack([t, s])[:, None] for t, s in zip(tolerance, safety))
        # (4, 2) safety bounds laid out like the nets' input: duration percent, angle
        self._scale = np.stack(safety[::-1], axis=-1)
        self._monitor = cfg.dhdp.monitor_params()
        # the trials this step ended, and whether their cycle left each a log row;
        # _leaving says whether it ended any
        self._ended = np.zeros(n, bool)
        self._logged = np.ones(n, bool)
        self._leaving = False
        self._index = np.arange(n)  # each row's trial's position in ``trials``
        self._on_leave = None  # what run() calls as each trial leaves
        # log blocks not yet handed over, and each trial's handed-over blocks
        self._blocks: list[np.ndarray] = []
        self._chunks: list[list[np.ndarray]] = [[] for _ in self.trials]

    def step(self):
        """One gait cycle of every trial; the trials that end in it leave."""
        cfg, k, n = self.cfg, self.k, len(self.trials)
        self._start_cycle()
        measured = self._measure()
        errors = alignment_errors(self._targets, measured)
        if self._drift is not None:
            beta = cfg.drift_smoothing
            self._drift = (1.0 - beta) * self._drift + beta * errors
        pct = duration_error_pct(errors, self._cycle_dur)
        flags = inside_bounds(errors, *self._bounds, pct)
        in_tol, in_safety = flags[0], flags[1]  # indexing beats unpacking an array
        learns = np.logical_and.reduce(in_safety, axis=1)
        reset = ~learns
        if self._leaving:  # a diverged knee neither learns nor resets
            walked = ~self._ended
            learns &= walked
            reset &= walked

        # a safety reset restores the trial's initial impedance; the trials inside
        # their safety bounds learn, into cycle k's log block, and the nets see
        # the error as a fraction of each phase's safety bound
        walked_impedance = self.impedance
        if np.count_nonzero(reset):
            self.impedance = np.where(reset[:, None, None], self._initial, self.impedance)
        block = np.zeros((n, NUM_PHASES, len(_LOG_FIELDS)))
        state = errors.copy()
        state[..., 0] = pct
        state /= self._scale
        learners = learns.nonzero()[0]
        if len(learners):
            self._learn(learners, state, block)
        # a trial keeps its lag only when it learned: a safety reset drops it
        self._lagged = learns

        # each window is a ring of its last flags, cycle k's in slot k % window;
        # a phase latches unless the cycle ended its trial
        self._window[..., k % cfg.window] = in_tol
        latch = (np.add.reduce(self._window, axis=-1) >= cfg.quota) & (self._converged < 0)
        if self._leaving:
            latch &= ~self._ended[:, None]
        latched = np.count_nonzero(latch)
        if latched:
            self._converged[latch] = k
        converged = self._converged >= 0
        self._log(block, errors, pct, walked_impedance, reset, in_tol, converged)

        # a trial's phases first stand all converged in the cycle its last one
        # latches; later calls of _all_converged before its windows start over
        # change nothing, so only a cycle with a latch makes them
        if latched:
            for i in (~self._ended & np.logical_and.reduce(converged, axis=1)).nonzero()[0]:
                self._all_converged(i, k)
        if k + 1 >= cfg.max_cycles:
            for i in (~self._ended).nonzero()[0]:
                self._end(i, k + 1, "failure", "max-cycles")
        self.k = k + 1
        if self._leaving:
            self._leave()

    def _end(self, i: int, cycles_run: int, outcome: str, reason: str | None = None,
             logged: bool = True):
        """End trial ``i``, which leaves after this step; ``logged`` is False when
        cycle ``k`` left it no log row (a diverged knee, a numeric fault)."""
        self._ended[i] = True
        self._logged[i] = logged
        self._leaving = True
        trial = self.trials[i]
        trial.finished = True
        rec = trial.record
        rec.cycles_run, rec.outcome, rec.failure_reason = cycles_run, outcome, reason
        rec.tuning_steps = cycles_run if outcome == "success" else None

    def _all_converged(self, i: int, k: int):
        """Apply trial ``i``'s scenario rule, its phases all converged in cycle ``k``.

        Scenario 1 keeps each phase's convergence cycle and succeeds.
        Scenario 2 marks the open segment tracked and succeeds once the last
        ``consecutive_tracks`` segments are.  Scenario 3 records the leg, then
        walks the next pace with its windows started over, or succeeds after
        the last.
        """
        cfg, trial = self.cfg, self.trials[i]
        rec, converged_at = trial.record, self._converged[i].tolist()
        if cfg.scenario == SCENARIO_LEVEL_GROUND:
            rec.converged_at = dict(zip(map(int, PHASES), converged_at))
            self._end(i, k + 1, "success")
        elif cfg.scenario == SCENARIO_TERRAIN:
            rec.segments[-1].update(converged=True, converged_cycle=max(converged_at))
            recent = rec.segments[-cfg.consecutive_tracks:]
            if len(recent) == cfg.consecutive_tracks and all(s["converged"] for s in recent):
                self._end(i, k + 1, "success")
        else:
            legs, paces = rec.legs, trial.program.pace_sequence
            start = legs[-1]["converged_cycle"] + 1 if legs else 0
            legs.append({"leg": len(legs), "pace": paces[len(legs)], "start_cycle": start,
                         "converged_cycle": k, "steps": k - start + 1})
            if len(legs) < len(paces):
                self._restart(i)
            else:
                self._end(i, k + 1, "success")

    def _restart(self, i: int):
        """Start trial ``i``'s convergence windows over, on its current target and pace."""
        self._window[i] = False
        self._converged[i] = -1
        if self._plant is not None:
            trial = self.trials[i]
            self._reference[i] = self._plant.paced_reference(trial.program.pace(trial.pace_index))
        self._stale[i] = True

    def _start_cycle(self):
        """Events before cycle ``k`` is walked: new terrains, new targets, drifting ones each cycle.

        Cycle 0 and each switch period's start enter a terrain.  A switch to
        another pool profile is kept in the record.  In scenario 2 each
        terrain opens an untracked segment, and after cycle 0 the
        convergence windows start over.
        """
        k = self.k
        if k == 0 or self._period and k % self._period == 0:
            for i, trial in enumerate(self.trials):
                program, rec = trial.program, trial.record
                if k and program.profile_index(k) != program.profile_index(k - 1):
                    rec.switch_cycles.append(k)
                if self.cfg.scenario == SCENARIO_TERRAIN:
                    rec.segments.append({
                        "segment": len(rec.segments), "pool_index": program.profile_index(k),
                        "start_cycle": k, "converged": False, "converged_cycle": None})
                    if k:
                        self._restart(i)
            self._stale[:] = True
        drift = self._drift
        stale = np.arange(len(self.trials)) if drift is not None else self._stale.nonzero()[0]
        if len(stale):
            for i in stale:
                trial = self.trials[i]
                self._targets[i] = trial.program.target_for(
                    k, trial.pace_index, None if drift is None else self.cfg.drift_gain * drift[i])
            self._cycle_dur[stale] = cycle_duration(self._targets[stale])
            self._stale[:] = False

    def _measure(self) -> np.ndarray:
        """The features each plant walks cycle ``k`` with.

        A torque-law knee that diverges ends its trial with no row of cycle
        ``k``; its row of the features is then the target, a stand-in no rule reads.
        """
        if self._plant is not None:
            slot = self.k % NOISE_BLOCK
            if not slot:
                for trial, draws in zip(self.trials, self._noise):
                    trial.plant.rng.standard_normal(out=draws)
            self._features = self._plant.respond(self._features, self.impedance,
                                                 self._reference, self._noise[:, slot])
            return self._features
        measured = self._targets.copy()
        for i, trial in enumerate(self.trials):
            try:
                measured[i] = profile_to_array(trial.plant.step(self.impedance[i]))
            except PlantInstabilityError as exc:
                self._end(i, self.k, "failure", f"plant-instability: {exc}", logged=False)
        return measured

    def _log(self, block, errors, pct, impedance, reset, in_tol, converged):
        """Fill in the fields every row of cycle ``k``'s log ``block`` has, and queue it."""
        block[..., 0:3:2] = errors  # d_duration_s and d_peak_rad
        block[..., 1] = pct
        block[..., 3:6] = impedance
        block[..., 6] = reset[:, None]
        block[..., 7] = in_tol
        block[..., 8] = converged
        self._blocks.append(block)

    def _leave(self):
        """Hand every trial its queued log rows, less the last where its cycle left it none
        (``_logged``); write the ended trials' records (log, counts, RMS, weight ratio and
        final nets) and drop their rows."""
        blocks = np.stack(self._blocks, axis=1)  # (n, cycles, 4, F)
        self._blocks = []
        for chunks, rows, logged in zip(self._chunks, blocks, self._logged.tolist()):
            chunks.append((rows if logged else rows[:-1]).copy())
        del blocks, rows  # the copies let the stack go before any record is built
        highs, starts = self._max_weight_norm.tolist(), self._initial_weight_norm.tolist()
        for i in self._ended.nonzero()[0].tolist():
            rec = self.trials[i].record
            rows = np.concatenate(self._chunks[i]).reshape(-1, len(_LOG_FIELDS))
            log = rec.log = {name: rows[:, j].astype(bool if name in _BOOL_FIELDS else float)
                             for j, name in enumerate(_LOG_FIELDS)}
            rec.resets += int(np.count_nonzero(log["reset"])) // NUM_PHASES
            rec.monitor_violations += int(np.count_nonzero(~(log["monitor_ok"] | log["reset"])))
            rec.clamp_events += int(np.count_nonzero(log["clamped"]))
            # on floats, capped for JSON; no update moves nets that start all zero
            rec.max_weight_ratio = (min(highs[i] / starts[i], sys.float_info.max)
                                    if starts[i] else 1.0)
            if len(log["reset"]):
                rec.rms_initial, rec.rms_final = compute_rms(rec, self.cfg.rms_window)
            rec.actors = unstack_net(_row(self.actor, i))
            rec.critics = unstack_net(_row(self.critic, i))
            if self._on_leave is not None:
                self._on_leave(int(self._index[i]), rec)
        keep = (~self._ended).nonzero()[0].tolist()
        self._leaving = False
        self.trials = [self.trials[i] for i in keep]
        self._chunks = [self._chunks[i] for i in keep]
        for name in _ROWS:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, _take(value, keep))

    def run(self, on_leave=None):
        """Step until every trial has ended and left, calling ``on_leave`` as each leaves."""
        self._on_leave = on_leave
        while self.trials:
            self.step()

    def _learn(self, rows: np.ndarray, state: np.ndarray, block: np.ndarray):
        """One learning step of the trials at positions ``rows``, all four phases each.

        ``state`` is every trial's (n, 4, 2) network input.  The step commits
        all it changes: the nets and the critics' lag, the impedance (the
        scaled action added and clamped to the ranges), the weight-norm high
        marks, and the strict monitor's halts; the learning fields and the
        clamp flags go into cycle ``k``'s log ``block``.  A numeric fault ends
        only the trials whose own update overflows, with no row of the cycle:
        the step is then redone one trial at a time, and each trial keeps
        exactly what it keeps alone.
        """
        cfg, dhdp = self.cfg, self.cfg.dhdp
        learners = None if len(rows) == len(self.trials) else rows
        inputs = _take(state, learners)
        critic, actor = _take(self.critic, learners), _take(self.actor, learners)
        a_tape = actor_eval(actor, inputs)
        cost = stage_cost(inputs, a_tape.output, dhdp.cost)
        c_tape = critic_eval(critic, inputs, a_tape.output)
        report = stability_monitor(critic, actor, c_tape, a_tape,
                                   self._monitor, dhdp.critic_lr, dhdp.actor_lr)
        monitor_ok = report.critic_ok & report.actor_ok

        # a learner without a lag (cycle 0, or after a safety reset) has the TD
        # error 0.0, whatever its stale lag; its critic step w - (+-0.0) * x keeps
        # every weight but -0.0, which no critic holds (see Trial)
        lagged = _take(self._lagged, learners)
        lags = np.count_nonzero(lagged)
        td = td_error(c_tape.value, _take(self._lag_value, learners),
                      _take(self._lag_cost, learners), dhdp.discount)
        if lags < len(lagged):
            td = np.where(lagged[:, None], td, 0.0)
        try:
            if lags:
                critic = critic_update(critic, td, c_tape, dhdp.critic_lr, dhdp.discount)
                c_tape = critic_eval(critic, inputs, a_tape.output)
            actor = actor_update(actor, critic, c_tape, a_tape, dhdp.actor_lr)
        except NumericFaultError as exc:
            if len(rows) == 1:  # the trial's cycle ends; only its monitor reports count
                self.trials[rows[0]].record.monitor_violations += int((~monitor_ok[0]).sum())
                self._end(rows[0], self.k + 1, "failure", f"numeric-fault: {exc}", logged=False)
                return
            for j in range(len(rows)):
                self._learn(rows[j:j + 1], state, block)
            return

        self.critic = _put(self.critic, learners, critic)
        self.actor = _put(self.actor, learners, actor)
        self._lag_value = _put(self._lag_value, learners, c_tape.value)
        self._lag_cost = _put(self._lag_cost, learners, cost)
        delta = scale_action(a_tape.output, dhdp.action_scale.half_ranges)
        updated, clamped = _apply_deltas(_take(self.impedance, learners), delta, cfg.ranges)
        self.impedance = _put(self.impedance, learners, updated)
        self._max_weight_norm = _put(self._max_weight_norm, learners, np.maximum(
            _take(self._max_weight_norm, learners), _max_abs_weights(critic, actor)))
        if cfg.strict_monitor:
            for i in rows[np.logical_or.reduce(~monitor_ok, axis=1)]:
                self._end(i, self.k + 1, "failure", "monitor-violation")

        at, out = len(_ROW_FIELDS), slice(None) if learners is None else rows
        block[out, :, at:at + 3] = a_tape.output
        block[out, :, at + 3:at + 6] = delta
        for j, values in enumerate((cost, c_tape.value, td, report.critic_bound,
                                    report.actor_bound, monitor_ok, lagged[:, None], clamped),
                                   start=at + 6):
            block[out, :, j] = values


def run_trial(cfg: TrialConfig, seed, policy=None, **kwargs) -> TrialRecord:
    """Run one trial to its end and return its record.

    ``seed`` may also be a :class:`Trial` already built: a finished one,
    such as a lockstep batch's, returns its record as it stands, and an
    unfinished one runs on from where it stands.
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


def _mean(values: list[float]) -> float:
    """``np.mean`` of finite values; where their sum overflows, the sum of their shares."""
    with np.errstate(over="ignore"):
        mean = float(np.mean(values))
    # rounding may lift the shares' sum past the largest value, not further
    return mean if math.isfinite(mean) else min(sum(v / len(values) for v in values), max(values))


def _mean_rms(samples: list[dict | None]) -> dict | None:
    present = [s for s in samples if s is not None]
    if not present:
        return None
    return {key: _mean([s[key] for s in present]) for key in ("peak_rad", "duration_pct")}


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


def _run_batch(cfg: TrialConfig, specs: list, on_leave=None) -> list[TrialRecord]:
    """Records of the trials ``specs`` ((seed sequence, policy) pairs), stepped in one lockstep.

    ``on_leave(index, record)``, if given, is called once per trial as it
    leaves the lockstep, with the trial's index in ``specs`` and its closed record.
    """
    trials = [Trial(cfg, seq, policy=policy) for seq, policy in specs]
    _Lockstep(trials).run(on_leave)
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


def run_training_batch(cfg: TrialConfig, seed: int, trials: int = RUN_DEFAULTS["trials"],
                       keep_policies: int = RUN_DEFAULTS["keep_policies"],
                       on_leave=None) -> BatchResult:
    """Run ``trials`` independent training trials and pick saved policies.

    Policies are drawn, without replacement, from the successful trials;
    when fewer than ``keep_policies`` succeed, all successes are kept.
    ``on_leave`` is called as each trial ends (see :func:`_run_batch`).
    """
    check_run_values(trials=trials, keep_policies=keep_policies, seed=seed)
    seq = np.random.SeedSequence(seed)
    trial_seqs = seq.spawn(trials + 1)
    records = _run_batch(cfg, [(trial_seqs[i], None) for i in range(trials)], on_leave)

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
                      trials_per_policy: int = RUN_DEFAULTS["trials_per_policy"],
                      jobs: int = 1, on_leave=None) -> BatchResult:
    """Evaluate saved policies on fresh trials with new initial impedance.

    Trial i runs policy ``i // trials_per_policy``.  The batch runs in this
    process: ``jobs`` other than 1 is refused.  ``on_leave`` is called as
    each trial ends (see :func:`_run_batch`).
    """
    if jobs != 1:
        raise ValueError(f"jobs: batches run in one process, got {jobs}")
    if not policies:
        raise ValueError("testing requires at least one saved policy")
    check_run_values(trials_per_policy=trials_per_policy, seed=seed)
    trial_seqs = np.random.SeedSequence(seed).spawn(len(policies) * trials_per_policy)
    policy_index = [p_idx for p_idx in range(len(policies)) for _ in range(trials_per_policy)]
    records = _run_batch(cfg, [(trial_seq, policies[p_idx]) for trial_seq, p_idx
                               in zip(trial_seqs, policy_index)], on_leave)
    return BatchResult(cfg=cfg, seed=seed, records=records,
                       metrics=aggregate_metrics(records),
                       policy_index=policy_index)


# ---------------------------------------------------------------------------
# Structured logs


# rows the CSV writer formats at once, so its working set does not grow with the log
_CSV_BLOCK = 512


def write_trial_csv(record: TrialRecord, path) -> None:
    """The record's log as CSV, a header of ``CSV_COLUMNS`` then one line per row.

    The bytes are those of a ``csv.writer`` given every row's values, a
    flag as the int 1 or 0 and a missing cell (see :meth:`TrialRecord.missing`)
    as None; it writes a float as its ``repr``.  The lines are formatted
    and written ``_CSV_BLOCK`` rows at a time.
    """
    columns = [record.column(name) for name in CSV_COLUMNS]
    missing = [record.missing(name) for name in CSV_COLUMNS]
    with open(path, "wb") as fh:
        fh.write(",".join(CSV_COLUMNS).encode() + b"\r\n")
        for start in range(0, len(record.log["reset"]), _CSV_BLOCK):
            rows = slice(start, start + _CSV_BLOCK)
            fh.write(_repr.csv_lines([values[rows] for values in columns],
                                     [mask if mask is None else mask[rows] for mask in missing]))
