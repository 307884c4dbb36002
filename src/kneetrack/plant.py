"""Reduced-order surrogates for the human-prosthesis system.

Two plants sit behind the same step interface:

* :class:`FeatureMapPlant` maps a (4, 3) impedance array directly to next-cycle
  gait features through a smoothed affine response around a reference
  operating point.  It is fast, analytically checkable, and is what the
  batch experiments and acceptance runs use.
* :class:`OdeKneePlant` integrates the impedance torque law through one
  full phase-machine cycle of a single-joint knee and extracts per-phase
  (duration, peak angle) features from the trajectory.  It exercises the
  torque law in closed loop and is used for realism checks.  Each phase is
  one Euler loop on Python floats, with the phase machine's rules
  (:func:`~kneetrack.fsm.joint_torque`, :func:`~kneetrack.fsm.flexion_peaked`).

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
    PHASES,
    GaitFeatures,
    Phase,
    check_features,
    check_impedance,
)
from .fsm import flexion_peaked, joint_torque

MIN_DURATION = 1e-3  # emitted phase durations are floored here to stay valid


class PlantInstabilityError(RuntimeError):
    """The simulated knee diverged; the harness treats this as a failure."""


GaitProfile = tuple[GaitFeatures, GaitFeatures, GaitFeatures, GaitFeatures]


def profile_to_array(profile) -> np.ndarray:
    """Stack a four-phase profile into a (4, 2) array of (duration, peak)."""
    return np.array([[f.duration, f.peak_angle] for f in profile])


def clip_features(values) -> np.ndarray:
    """Copy of (..., 4, 2) features with every duration and peak angle made legal.

    Durations are floored at ``MIN_DURATION``; peak angles are clipped into
    [0, KNEE_ANGLE_MAX].
    """
    clipped = np.array(values, dtype=float)
    clipped[..., 0] = np.maximum(clipped[..., 0], MIN_DURATION)
    clipped[..., 1] = np.clip(clipped[..., 1], 0.0, KNEE_ANGLE_MAX)
    return clipped


def cycle_duration(features):
    """Summed phase durations of (..., 4, 2) features, added left to right."""
    d = features[..., 0]
    return ((d[..., 0] + d[..., 1]) + d[..., 2]) + d[..., 3]


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
    """Cycle-atomic plant: impedance in, next-cycle gait features out.

    ``state`` holds the last cycle's features as a (4, 2) array.
    :meth:`steady_state`, :meth:`paced_reference` and :meth:`respond` also
    take stacks: a leading trial axis on the impedance, the state and the
    reference, and one pace multiplier per trial.  A lockstep of trials
    then steps all its plants in one call, each with the numbers its own
    plant gives.
    """

    def __init__(self, config: FeatureMapConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self._ref_feat = profile_to_array(config.reference_features)
        self._noise_std = np.array(config.noise_std, dtype=float)
        self.state = self._ref_feat.copy()

    def paced_reference(self, pace=1.0) -> np.ndarray:
        """The reference features at pace multiplier ``pace``, or a stack for a stack of them.

        Under a pace multiplier, the natural phase durations shorten or
        lengthen by the passthrough share of the pace change; peak angles
        are unaffected by pace.
        """
        eta = self.config.pace_passthrough
        # durations times the pace factor, peak angles times 1.0 (exactly themselves)
        scale = np.ones(np.shape(pace) + (1, 2))
        scale[..., 0] = eta / np.asarray(pace)[..., None] + (1.0 - eta)
        return self._ref_feat * scale

    def steady_state(self, imp: np.ndarray, pace=1.0) -> np.ndarray:
        """Fixed point the features relax to under constant impedance at ``pace``."""
        return self._steady(imp, self.paced_reference(pace))

    def _steady(self, imp: np.ndarray, reference: np.ndarray) -> np.ndarray:
        offsets = imp - self.config.reference_impedance
        return reference + np.einsum("pij,...pj->...pi", self.config.sensitivity, offsets)

    def respond(self, state: np.ndarray, imp: np.ndarray, reference: np.ndarray,
                draws: np.ndarray) -> np.ndarray:
        """Features of the cycle after ``state``, walked under ``imp``.

        ``reference`` is the :meth:`paced_reference` of the pace walked; a
        caller keeps it while the pace holds.  ``draws`` are standard-normal
        draws shaped like ``state``; scaled by the noise std they equal
        ``rng.normal(0.0, noise_std)`` on the same generator, bit for bit.
        """
        lam = self.config.smoothing
        noise = 0.0 + draws * self._noise_std
        return clip_features((1.0 - lam) * state + lam * self._steady(imp, reference) + noise)

    def step(self, imp: np.ndarray, pace: float = 1.0) -> np.ndarray:
        """Advance one gait cycle under a (4, 3) impedance array; returns the new state."""
        self.state = self.respond(self.state, imp, self.paced_reference(pace),
                                  self.rng.standard_normal((NUM_PHASES, 2)))
        return self.state


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
        for name in ("inertia", "timestep", "max_phase_time", "velocity_limit"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)}")
        for name in ("initial_angle", "toe_off_angle", "heel_strike_angle"):
            if not 0.0 <= getattr(self, name) <= KNEE_ANGLE_MAX:
                raise ValueError(f"{name}: must lie in [0, {KNEE_ANGLE_MAX}] rad, "
                                 f"got {getattr(self, name)}")


class OdeKneePlant:
    """Integrates one full four-phase cycle per step and extracts features.

    The knee has no body-motion channel for pace, so its durations respond
    to impedance only and :meth:`step` takes no pace multiplier.
    """

    def __init__(self, config: OdeKneeConfig):
        self.config = config
        self._angle = config.initial_angle
        self._velocity = config.initial_velocity

    def step(self, imp: np.ndarray) -> GaitProfile:
        cfg = self.config
        dt, inertia, limit, max_time = (cfg.timestep, cfg.inertia, cfg.velocity_limit,
                                        cfg.max_phase_time)
        angle, velocity = self._angle, self._velocity
        peak = angle
        features = []
        # one Euler loop per phase on Python floats: ~50 substeps per cycle,
        # where numpy scalars or a state object per substep cost more than the arithmetic
        try:
            for phase, row, load in zip(PHASES, imp.tolist(), cfg.load_torque):
                flexion = phase in (Phase.STANCE_FLEXION, Phase.SWING_FLEXION)
                threshold = (cfg.toe_off_angle if phase is Phase.STANCE_EXTENSION
                             else cfg.heel_strike_angle)
                elapsed = 0.0
                while True:
                    accel = (-joint_torque(row, angle, velocity) + load) / inertia
                    prev_velocity = velocity
                    velocity += dt * accel
                    if abs(velocity) > limit:
                        raise PlantInstabilityError(
                            f"knee velocity {velocity:.1f} rad/s exceeds "
                            f"{limit} rad/s in phase {phase.short_name}"
                        )
                    angle += dt * velocity
                    if angle <= 0.0:
                        angle, velocity = 0.0, 0.0
                    elif angle >= KNEE_ANGLE_MAX:
                        angle, velocity = KNEE_ANGLE_MAX, 0.0
                    elapsed += dt
                    if angle > peak:
                        peak = angle
                    if flexion:
                        ended = flexion_peaked(elapsed, velocity, prev_velocity)
                    else:
                        # toe-off or heel strike: extended down through the
                        # threshold after two substeps, or timed out
                        ended = ((angle < threshold and velocity <= 0.0 and elapsed > 2 * dt)
                                 or elapsed >= max_time)
                    if ended:
                        break
                    if elapsed >= max_time:
                        # flexion peak never materialized (e.g. zero stiffness); force on
                        break
                features.append((elapsed, peak))
                peak = angle
        finally:
            # also on a raise: a velocity-limit fault leaves the new velocity
            # with the angle it was integrated from
            self._angle, self._velocity = angle, velocity

        # clip_features' rules on floats: max and min keep their first
        # argument on ties and NaN, as np.maximum and np.clip do
        return tuple(GaitFeatures(max(d, MIN_DURATION), min(max(p, 0.0), KNEE_ANGLE_MAX))
                     for d, p in features)


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

    base_profile: np.ndarray                  # (4, 2): per phase (duration, peak angle)
    profile_pool: tuple[np.ndarray, ...] = ()
    pace_sequence: tuple[float, ...] = (1.0,)
    switch_period: int = 20
    drift_gain: float = 0.0
    drift_smoothing: float = 0.2
    schedule: tuple[int, ...] = ()
    _drift: np.ndarray = field(default_factory=lambda: np.zeros((NUM_PHASES, 2)))

    def __post_init__(self):
        self.base_profile = check_features(self.base_profile)
        self.profile_pool = tuple(check_features(p) for p in self.profile_pool)
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

    def pace(self, pace_index: int) -> float:
        """Pace multiplier of the given leg; the last leg's holds after the sequence ends."""
        return self.pace_sequence[min(pace_index, len(self.pace_sequence) - 1)]

    def target_for(self, k: int, pace_index: int = 0) -> np.ndarray:
        """Target features, a (4, 2) array, for cycle ``k`` under the given pace leg."""
        if k < 0:
            raise ValueError("cycle index must be non-negative")
        idx = self.profile_index(k)
        values = (self.base_profile if idx is None else self.profile_pool[idx]).copy()
        values[:, 0] = values[:, 0] / self.pace(pace_index)
        if self.drift_gain > 0.0:
            values = values + self.drift_gain * self._drift
        return clip_features(values)

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


def alignment_errors(target: np.ndarray, measured: np.ndarray) -> np.ndarray:
    """Tracking error per phase: intact-knee target minus prosthetic feature.

    Takes (..., 4, 2) feature arrays and returns one (d_duration, d_peak)
    row per phase, seconds and radians.

    This is the only place the library subtracts gait features.  The
    prosthetic leg strikes half a gait after the intact leg, so the
    prosthetic features of cycle k are measured against the intact features
    of the same cycle index, which completed half a gait earlier in wall
    time.  A target change at cycle k therefore first shows up in the
    prosthetic measurement taken during cycle k's trailing half.  Plants
    with no intra-cycle timing reduce to plain same-index pairing.
    """
    return target - measured
