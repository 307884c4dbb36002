"""Reduced-order surrogates for the human-prosthesis system.

Two plants sit behind the same step interface:

* :class:`FeatureMapPlant` maps a (4, 3) impedance array directly to next-cycle
  gait features through a smoothed affine response around a reference
  operating point.  It is fast, analytically checkable, and is what the
  batch experiments and acceptance runs use.
* :class:`OdeKneePlant` integrates the impedance torque law through one
  full phase-machine cycle of a single-joint knee and extracts per-phase
  (duration, peak angle) features from the trajectory.  It exercises the
  torque law in closed loop and is used for realism checks.

The intact-knee side is a :class:`TargetProgram`: a base feature profile
with optional terrain switching (a pool of profiles swapped on a fixed
schedule), pace scaling (durations divided by a pace multiplier), and a
slow adaptation drift coupled to the prosthetic tracking error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    KNEE_ANGLE_MAX,
    NUM_PHASES,
    GaitFeatures,
    Phase,
    check_impedance,
)
from .fsm import (
    FsmState,
    joint_torque,
    step_fsm,
)

MIN_DURATION = 1e-3  # emitted phase durations are floored here to stay valid


class PlantInstabilityError(RuntimeError):
    """The simulated knee diverged; the harness treats this as a failure."""


GaitProfile = tuple[GaitFeatures, GaitFeatures, GaitFeatures, GaitFeatures]


def profile_to_array(profile) -> np.ndarray:
    """Stack a four-phase profile into a (4, 2) array of (duration, peak)."""
    return np.array([[f.duration, f.peak_angle] for f in profile])


def array_to_profile(values: np.ndarray) -> GaitProfile:
    clipped = np.array(values, dtype=float)
    clipped[:, 0] = np.maximum(clipped[:, 0], MIN_DURATION)
    clipped[:, 1] = np.clip(clipped[:, 1], 0.0, KNEE_ANGLE_MAX)
    return tuple(GaitFeatures(float(d), float(p)) for d, p in clipped)


def cycle_duration(profile) -> float:
    return float(sum(f.duration for f in profile))


@dataclass(frozen=True)
class FeatureMapConfig:
    """Affine response of gait features to impedance around a reference.

    ``sensitivity`` holds one 2x3 matrix per phase: rows are (duration,
    peak angle), columns are (stiffness, damping, equilibrium).  The signs
    of the defaults follow basic biomechanics: more damping lengthens the
    phase, a higher equilibrium angle raises the flexion peak, and extra
    stiffness slightly speeds the phase up and caps the peak.
    """

    reference_impedance: np.ndarray  # (4, 3): per phase (stiffness, damping, equilibrium)
    reference_features: GaitProfile
    sensitivity: np.ndarray          # (4, 2, 3)
    smoothing: float = 0.6           # fraction of the affine response applied per cycle
    noise_std: tuple[float, float] = (0.005, 0.005)  # (seconds, radians)
    # Fraction of a pace change that reaches the prosthetic side through the
    # shared body motion; the remainder of the duration shift has to be
    # closed by impedance tuning.
    pace_passthrough: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "reference_impedance",
                           check_impedance(self.reference_impedance))
        if self.sensitivity.shape != (NUM_PHASES, 2, 3):
            raise ValueError("sensitivity must be a (4, 2, 3) array")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing factor must lie in (0, 1]")
        if any(s < 0.0 for s in self.noise_std):
            raise ValueError("noise std must be non-negative")
        if not 0.0 <= self.pace_passthrough <= 1.0:
            raise ValueError("pace passthrough must lie in [0, 1]")

    @classmethod
    def default(cls) -> "FeatureMapConfig":
        reference_impedance = np.array([
            [55.0, 1.4, 0.30],
            [45.0, 1.1, 0.12],
            [18.0, 0.9, 1.00],
            [14.0, 0.7, 0.16],
        ])
        reference_features = (
            GaitFeatures(0.30, 0.33),
            GaitFeatures(0.32, 0.15),
            GaitFeatures(0.33, 1.05),
            GaitFeatures(0.25, 0.32),
        )
        per_phase = np.array([
            [-0.0015, 0.045, 0.0],   # duration: s per (N*m/rad), (N*m*s/rad), rad
            [-0.0008, 0.0, 0.85],    # peak angle: rad per the same units
        ])
        return cls(
            reference_impedance=reference_impedance,
            reference_features=reference_features,
            sensitivity=np.tile(per_phase, (NUM_PHASES, 1, 1)),
        )


class FeatureMapPlant:
    """Cycle-atomic plant: impedance in, next-cycle gait features out."""

    def __init__(self, config: FeatureMapConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self._ref_feat = profile_to_array(config.reference_features)
        self._state = self._ref_feat.copy()

    def steady_state(self, imp: np.ndarray, pace: float = 1.0) -> np.ndarray:
        """Fixed point the features relax to under constant impedance.

        Under a pace multiplier, the natural phase durations shorten or
        lengthen by the passthrough share of the pace change; peak angles
        are unaffected by pace.
        """
        offsets = imp - self.config.reference_impedance
        base = self._ref_feat.copy()
        eta = self.config.pace_passthrough
        base[:, 0] *= eta / pace + (1.0 - eta)
        return base + np.einsum("pij,pj->pi", self.config.sensitivity, offsets)

    def step(self, imp: np.ndarray, pace: float = 1.0) -> GaitProfile:
        """Advance one gait cycle under a (4, 3) impedance array."""
        lam = self.config.smoothing
        target = self.steady_state(imp, pace)
        noise = self.rng.normal(0.0, self.config.noise_std, size=(NUM_PHASES, 2))
        self._state = (1.0 - lam) * self._state + lam * target + noise
        self._state[:, 0] = np.maximum(self._state[:, 0], MIN_DURATION)
        self._state[:, 1] = np.clip(self._state[:, 1], 0.0, KNEE_ANGLE_MAX)
        return array_to_profile(self._state)


@dataclass(frozen=True)
class OdeKneeConfig:
    """Single-joint knee driven by the impedance torque law.

    The joint obeys inertia * accel = -torque + load, where the load is a
    per-phase constant bias: an extensor bias in stance and a gravity-like
    pull in swing.  Phase hand-offs reuse the torque-law phase machine;
    the surrogate has no ground reaction forces, so toe-off and heel
    strike are synthesized as the knee extending down through a fixed
    angle threshold, which keeps phase durations a smooth function of the
    impedance parameters.
    """

    inertia: float = 0.05            # kg*m^2
    timestep: float = 0.01           # s (inner loop runs at 100 Hz)
    initial_angle: float = 0.08      # rad
    initial_velocity: float = 0.0    # rad/s
    load_torque: tuple[float, float, float, float] = (-2.5, -1.5, -4.0, -2.5)
    toe_off_angle: float = 0.15      # rad; stance ends once extended past this
    heel_strike_angle: float = 0.15  # rad; swing ends once extended past this
    max_phase_time: float = 2.0     # s; hard cap so a cycle always terminates
    velocity_limit: float = 50.0     # rad/s; beyond this the plant has diverged

    def __post_init__(self):
        if self.inertia <= 0.0 or self.timestep <= 0.0:
            raise ValueError("inertia and timestep must be positive")


class OdeKneePlant:
    """Integrates one full four-phase cycle per step and extracts features."""

    def __init__(self, config: OdeKneeConfig):
        self.config = config
        self._angle = config.initial_angle
        self._velocity = config.initial_velocity

    def step(self, imp: np.ndarray, pace: float = 1.0) -> GaitProfile:
        # pace is accepted for interface parity; the torque-law knee has no
        # body-motion channel for it, so durations respond to impedance only
        cfg = self.config
        dt = cfg.timestep
        state = FsmState(Phase.STANCE_FLEXION)
        durations = np.zeros(NUM_PHASES)
        peaks = np.full(NUM_PHASES, self._angle)
        # Python floats: the torque law runs ~60 times per cycle, and numpy
        # scalar arithmetic there costs twice as much
        rows = imp.tolist()

        while True:
            phase = state.phase
            triple = rows[phase - 1]
            load = cfg.load_torque[phase - 1]

            accel = (-joint_torque(triple, self._angle, self._velocity) + load) / cfg.inertia
            prev_velocity = self._velocity
            self._velocity += dt * accel
            if abs(self._velocity) > cfg.velocity_limit:
                raise PlantInstabilityError(
                    f"knee velocity {self._velocity:.1f} rad/s exceeds "
                    f"{cfg.velocity_limit} rad/s in phase {phase.short_name}"
                )
            self._angle += dt * self._velocity
            if self._angle <= 0.0:
                self._angle, self._velocity = 0.0, 0.0
            elif self._angle >= KNEE_ANGLE_MAX:
                self._angle, self._velocity = KNEE_ANGLE_MAX, 0.0

            idx = phase - 1
            durations[idx] += dt
            peaks[idx] = max(peaks[idx], self._angle)

            threshold = (cfg.toe_off_angle if phase is Phase.STANCE_EXTENSION
                         else cfg.heel_strike_angle)
            extended = (
                self._angle < threshold
                and self._velocity <= 0.0
                and state.phase_elapsed + dt > 2 * dt
            )
            timed_out = durations[idx] >= cfg.max_phase_time
            fire_event = extended or timed_out
            next_state = step_fsm(
                state, dt, self._angle, self._velocity,
                heel_strike=fire_event and phase is Phase.SWING_EXTENSION,
                toe_off=fire_event and phase is Phase.STANCE_EXTENSION,
                prev_velocity=prev_velocity,
            )
            if next_state.phase is Phase.STANCE_FLEXION and phase is not Phase.STANCE_FLEXION:
                break
            if next_state.phase is not phase:
                peaks[next_state.phase - 1] = self._angle
            elif timed_out and phase in (Phase.STANCE_FLEXION, Phase.SWING_FLEXION):
                # flexion peak never materialized (e.g. zero stiffness); force on
                next_state = FsmState(Phase(phase + 1), 0.0, next_state.cycle_elapsed)
                peaks[next_state.phase - 1] = self._angle
            state = next_state

        return array_to_profile(np.column_stack([durations, peaks]))


@dataclass
class TargetProgram:
    """Generates the intact-knee target features for each gait cycle.

    Terrain variation swaps the active profile from a pool on a fixed
    cycle schedule; the schedule is drawn up-front from a seeded generator
    so runs are reproducible.  Pace variation rescales durations by the
    active pace multiplier, chosen by the harness as legs complete.  When
    ``drift_gain`` is positive the profile also drifts with a first-order
    low-pass of the prosthetic tracking error, mimicking the way the
    intact side adapts to the prosthesis.
    """

    base_profile: GaitProfile
    profile_pool: tuple[GaitProfile, ...] = ()
    pace_sequence: tuple[float, ...] = (1.0,)
    switch_period: int = 20
    drift_gain: float = 0.0
    drift_smoothing: float = 0.2
    schedule: tuple[int, ...] = ()
    _drift: np.ndarray = field(default_factory=lambda: np.zeros((NUM_PHASES, 2)))

    def __post_init__(self):
        if self.switch_period <= 0:
            raise ValueError("switch period must be positive")
        if any(m <= 0.0 for m in self.pace_sequence):
            raise ValueError("pace multipliers must be positive")
        if self.profile_pool and not self.schedule:
            raise ValueError("a profile pool needs a switch schedule")
        if self.drift_gain < 0.0:
            raise ValueError("drift gain must be non-negative")

    def profile_index(self, k: int) -> int | None:
        """Pool index active at cycle ``k``, or None without a pool."""
        if not self.profile_pool:
            return None
        return self.schedule[min(k // self.switch_period, len(self.schedule) - 1)]

    def target_for(self, k: int, pace_index: int = 0) -> GaitProfile:
        """Target features for cycle ``k`` under the given pace leg."""
        if k < 0:
            raise ValueError("cycle index must be non-negative")
        idx = self.profile_index(k)
        base = self.base_profile if idx is None else self.profile_pool[idx]
        values = profile_to_array(base)
        pace = self.pace_sequence[min(pace_index, len(self.pace_sequence) - 1)]
        values[:, 0] = values[:, 0] / pace
        if self.drift_gain > 0.0:
            values = values + self.drift_gain * self._drift
        return array_to_profile(values)

    def observe_error(self, errors: np.ndarray) -> None:
        """Feed the (4, 2) prosthetic tracking error into the drift filter."""
        if self.drift_gain <= 0.0:
            return
        beta = self.drift_smoothing
        self._drift = (1.0 - beta) * self._drift + beta * errors


def switch_schedule(pool_size: int, segments: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Random pool indices per segment; consecutive segments always differ."""
    if pool_size < 1:
        raise ValueError("pool must not be empty")
    indices = [int(rng.integers(pool_size))]
    for _ in range(segments - 1):
        nxt = int(rng.integers(pool_size))
        while pool_size > 1 and nxt == indices[-1]:
            nxt = int(rng.integers(pool_size))
        indices.append(nxt)
    return tuple(indices)


def alignment_errors(target, measured) -> np.ndarray:
    """Tracking error per phase: intact-knee target minus prosthetic feature.

    Returns one (d_duration, d_peak) row per phase, seconds and radians.

    This is the only place the library subtracts gait features.  The
    prosthetic leg strikes half a gait after the intact leg, so the
    prosthetic features of cycle k are measured against the intact features
    of the same cycle index, which completed half a gait earlier in wall
    time.  A target change at cycle k therefore first shows up in the
    prosthetic measurement taken during cycle k's trailing half.  Plants
    with no intra-cycle timing reduce to plain same-index pairing.
    """
    return profile_to_array(target) - profile_to_array(measured)
