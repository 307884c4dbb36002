"""Domain types and feature arithmetic shared by the whole library.

Unit conventions: angles are radians and durations are seconds everywhere
inside the library.  Duration error bounds are specified as percentages of
a full gait cycle, so the comparison in :func:`within_bound` converts a
seconds-valued duration error to percent before checking it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

KNEE_ANGLE_MAX = 1.6
"""Physical knee flexion limit in radians (~92 deg); angles live in [0, max]."""


class Phase(IntEnum):
    """The four gait phases, in the order they occur within a cycle."""

    STANCE_FLEXION = 1
    STANCE_EXTENSION = 2
    SWING_FLEXION = 3
    SWING_EXTENSION = 4

    @property
    def short_name(self) -> str:
        return _SHORT_NAMES[self]


_SHORT_NAMES = {
    Phase.STANCE_FLEXION: "STF",
    Phase.STANCE_EXTENSION: "STE",
    Phase.SWING_FLEXION: "SWF",
    Phase.SWING_EXTENSION: "SWE",
}

PHASES = tuple(Phase)
NUM_PHASES = len(PHASES)


@dataclass(frozen=True)
class GaitFeatures:
    """Per-phase gait summary: phase duration (s) and peak knee angle (rad)."""

    duration: float
    peak_angle: float

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError(f"duration must be positive and finite, got {self.duration}")
        if not (0.0 <= self.peak_angle <= KNEE_ANGLE_MAX):
            raise ValueError(
                f"peak angle {self.peak_angle} outside [0, {KNEE_ANGLE_MAX}] rad"
            )


@dataclass(frozen=True)
class TrackingState:
    """Per-phase tracking error: target feature minus measured feature."""

    d_duration: float
    d_peak: float


@dataclass(frozen=True)
class ImpedanceTriple:
    """Stiffness (N*m/rad), damping (N*m*s/rad) and equilibrium angle (rad)."""

    stiffness: float
    damping: float
    equilibrium: float

    def __post_init__(self):
        if not (math.isfinite(self.stiffness) and self.stiffness >= 0.0):
            raise ValueError(f"stiffness must be >= 0, got {self.stiffness}")
        if not (math.isfinite(self.damping) and self.damping >= 0.0):
            raise ValueError(f"damping must be >= 0, got {self.damping}")
        if not (0.0 <= self.equilibrium <= KNEE_ANGLE_MAX):
            raise ValueError(
                f"equilibrium angle {self.equilibrium} outside [0, {KNEE_ANGLE_MAX}] rad"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.stiffness, self.damping, self.equilibrium])


@dataclass(frozen=True)
class ControlDelta:
    """Per-cycle adjustment of one phase's impedance triple."""

    d_stiffness: float
    d_damping: float
    d_equilibrium: float

    def __post_init__(self):
        for v in (self.d_stiffness, self.d_damping, self.d_equilibrium):
            if not math.isfinite(v):
                raise ValueError(f"control delta components must be finite, got {v}")


@dataclass(frozen=True)
class PhaseBound:
    """Error bound for one phase: angle in radians, duration in percent of cycle."""

    angle: float
    duration_pct: float

    def __post_init__(self):
        if not (self.angle > 0.0 and self.duration_pct > 0.0):
            raise ValueError("bounds must be positive")


@dataclass(frozen=True)
class BoundsTable:
    """Safety and tolerance bounds for all four phases.

    A tracking error outside the safety bound triggers an impedance reset;
    staying inside the tolerance bound is what counts toward convergence.
    Tolerance must be strictly tighter than safety in both components.
    """

    safety: tuple[PhaseBound, PhaseBound, PhaseBound, PhaseBound]
    tolerance: tuple[PhaseBound, PhaseBound, PhaseBound, PhaseBound]

    def __post_init__(self):
        if len(self.safety) != NUM_PHASES or len(self.tolerance) != NUM_PHASES:
            raise ValueError("bounds tables need one entry per phase")
        for safe, tol in zip(self.safety, self.tolerance):
            if not (tol.angle < safe.angle and tol.duration_pct < safe.duration_pct):
                raise ValueError("tolerance bound must be tighter than safety bound")

    def safety_for(self, phase: Phase) -> PhaseBound:
        return self.safety[phase - 1]

    def tolerance_for(self, phase: Phase) -> PhaseBound:
        return self.tolerance[phase - 1]

    @classmethod
    def default(cls) -> "BoundsTable":
        safety = (
            PhaseBound(0.184, 12.0),
            PhaseBound(0.131, 12.0),
            PhaseBound(0.157, 12.0),
            PhaseBound(0.105, 12.0),
        )
        tolerance = tuple(PhaseBound(0.0263, 2.0) for _ in range(NUM_PHASES))
        return cls(safety=safety, tolerance=tolerance)


def within_bound(state: TrackingState, bound: PhaseBound, cycle_duration: float) -> bool:
    """True iff the error is inside the bound in both components.

    The duration component of ``bound`` is a percentage of the gait cycle,
    so the seconds-valued duration error is converted before comparison.
    """
    if not (math.isfinite(cycle_duration) and cycle_duration > 0.0):
        raise ValueError(f"cycle duration must be positive, got {cycle_duration}")
    duration_pct = 100.0 * abs(state.d_duration) / cycle_duration
    return abs(state.d_peak) <= bound.angle and duration_pct <= bound.duration_pct
