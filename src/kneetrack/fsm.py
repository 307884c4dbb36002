"""Finite-state-machine impedance controller.

A gait cycle is split into four phases, each with its own impedance row
(stiffness, damping, equilibrium) of a (4, 3) impedance array.  The
controller produces joint torque from the active row, advances the phase on
kinematic peaks and gait events, and applies per-cycle parameter
adjustments with clamping to configured physical ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    Returns a new (4, 3) array, clamped to the phase's ranges, and a flag
    saying whether any component was clamped; ``imp`` is never written.
    Clamping rather than rejecting keeps the tuning loop running with
    out-of-range requests while still guaranteeing valid parameters.
    """
    # Python floats: this runs once per phase per cycle, and numpy scalar
    # work on three values costs several times as much
    step = np.asarray(delta, dtype=float).tolist()
    if not all(map(math.isfinite, step)):
        raise ValueError(f"control delta components must be finite, got {step}")
    limits = ranges.for_phase(phase)
    raw = [v + d for v, d in zip(imp[phase - 1].tolist(), step, strict=True)]
    row = [min(max(v, lo), hi) for v, (lo, hi)
           in zip(raw, (limits.stiffness, limits.damping, limits.equilibrium))]
    updated = imp.copy()
    updated[phase - 1] = row
    return updated, row != raw


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
        if prev_velocity is None:
            transition = phase_elapsed >= MIN_DWELL and velocity <= PEAK_VELOCITY_EPS
        else:
            transition = (phase_elapsed >= MIN_DWELL
                          and prev_velocity > PEAK_VELOCITY_EPS
                          and velocity <= PEAK_VELOCITY_EPS)
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
