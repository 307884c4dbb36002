"""Finite-state-machine impedance controller.

A gait cycle is split into four phases, each with its own impedance row
(stiffness, damping, equilibrium) of a (4, 3) impedance array.  The
controller produces joint torque from the active row, advances the phase on
kinematic peaks and gait events, and applies per-cycle parameter
adjustments with clamping to configured physical ranges.

The flexion-peak rule is :func:`flexion_peaked`.  :func:`step_fsm` applies it
to an :class:`FsmState` per timestep; the torque-law knee (``OdeKneePlant``)
calls it and :func:`joint_torque` from its own float loop, building no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import KNEE_ANGLE_MAX, NUM_PHASES, Phase

# A kinematic peak is declared when the angular velocity falls to (or through)
# this threshold after the phase has been active for at least MIN_DWELL
# seconds.  The dwell keeps a stale negative velocity at phase entry from
# firing the peak detector instantly.
PEAK_VELOCITY_EPS = 1e-3
MIN_DWELL = 0.05


@dataclass(frozen=True)
class PhaseRanges:
    """Allowed (lo, hi) interval per impedance component for one phase.

    Every interval lies inside the physical domain that
    :func:`~kneetrack.core.check_impedance` enforces, so clamping a legal
    impedance into these ranges keeps it legal.
    """

    stiffness: tuple[float, float] = (0.0, 100.0)
    damping: tuple[float, float] = (0.0, 5.0)
    equilibrium: tuple[float, float] = (0.0, 1.6)

    def __post_init__(self):
        for name, (lo, hi), top in (("stiffness", self.stiffness, math.inf),
                                    ("damping", self.damping, math.inf),
                                    ("equilibrium", self.equilibrium, KNEE_ANGLE_MAX)):
            if not 0.0 <= lo <= hi <= top:
                raise ValueError(f"{name} range ({lo}, {hi}) must satisfy "
                                 f"0 <= lower <= upper <= {top}")


@dataclass(frozen=True)
class ParameterRanges:
    """Physical impedance ranges for all four phases."""

    phases: tuple[PhaseRanges, PhaseRanges, PhaseRanges, PhaseRanges]

    def for_phase(self, phase: Phase) -> PhaseRanges:
        return self.phases[phase - 1]

    @cached_property
    def limits(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds as (4, 3) arrays, laid out like an impedance array."""
        rows = [(p.stiffness, p.damping, p.equilibrium) for p in self.phases]
        bounds = np.array(rows, dtype=float)  # (4, 3, 2)
        return bounds[..., 0], bounds[..., 1]

    @classmethod
    def default(cls) -> "ParameterRanges":
        return cls(tuple(PhaseRanges() for _ in range(NUM_PHASES)))


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


def flexion_peaked(phase_elapsed: float, velocity: float,
                   prev_velocity: float | None = None) -> bool:
    """Whether a flexion phase has reached its kinematic peak.

    The peak needs ``MIN_DWELL`` seconds in the phase and a velocity at or
    below ``PEAK_VELOCITY_EPS``.  Given the previous timestep's velocity, it
    must also have been above the threshold, so the velocity fell through it.
    """
    return (phase_elapsed >= MIN_DWELL and velocity <= PEAK_VELOCITY_EPS
            and (prev_velocity is None or prev_velocity > PEAK_VELOCITY_EPS))


def joint_torque(imp, angle: float, velocity: float) -> float:
    """Impedance torque of one (stiffness, damping, equilibrium) row."""
    stiffness, damping, equilibrium = imp
    return stiffness * (angle - equilibrium) + damping * velocity


def apply_delta(
    imp: np.ndarray,
    phase: Phase,
    delta,
    ranges: ParameterRanges,
) -> tuple[np.ndarray, bool]:
    """Add a (d_stiffness, d_damping, d_equilibrium) row to one phase's row.

    ``imp`` is a (4, 3) impedance array, or a stack (..., 4, 3) of them with
    one delta row each.  Returns a new array, clamped to the phase's ranges,
    and a flag saying whether any component was clamped; ``imp`` is never
    written.  Clamping rather than rejecting keeps the tuning loop running
    with out-of-range requests while still guaranteeing valid parameters.
    """
    step = np.asarray(delta, dtype=float)
    if step.shape[-1:] != (3,):
        raise ValueError(f"control delta rows need 3 components, got shape {step.shape}")
    if np.count_nonzero(np.isfinite(step)) < step.size:
        raise ValueError(f"control delta components must be finite, got {step.tolist()}")
    idx = phase - 1
    lower, upper = ranges.limits
    lo, hi = lower[idx], upper[idx]
    raw = imp[..., idx, :] + step
    # Python's min(max(v, lo), hi): lo where lo > v, else hi where hi < v,
    # else v itself, so a -0.0 within range stays -0.0 (np.maximum would
    # not keep it); the row differs from the sum exactly where it clamped
    below, above = lo > raw, hi < raw
    clamped = bool(np.count_nonzero(below | above))
    updated = imp.copy()
    updated[..., idx, :] = np.where(below, lo, np.where(above, hi, raw)) if clamped else raw
    return updated, clamped


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
