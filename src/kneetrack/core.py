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
            raise ValueError(f"duration: must be positive and finite, got {self.duration}")
        if not (0.0 <= self.peak_angle <= KNEE_ANGLE_MAX):
            raise ValueError(f"peak_angle: must lie in [0, {KNEE_ANGLE_MAX}] rad, "
                             f"got {self.peak_angle}")


def check_impedance(values) -> np.ndarray:
    """Validated float copy of a (4, 3) impedance array.

    Rows are the gait phases in order; columns are stiffness (N*m/rad),
    damping (N*m*s/rad) and equilibrium angle (rad).  Stiffness and damping
    must be finite and non-negative, the equilibrium must lie in
    [0, KNEE_ANGLE_MAX].  A refusal opens with ``impedance``, then the first
    illegal entry, column by column (``impedance[1][0]:``).
    """
    imp = np.array(values, dtype=float)
    if imp.shape != (NUM_PHASES, 3):
        raise ValueError(f"impedance: must be a ({NUM_PHASES}, 3) array, got shape {imp.shape}")
    legal = np.isfinite(imp) & (imp >= 0.0) & (imp <= [math.inf, math.inf, KNEE_ANGLE_MAX])
    if not legal.all():
        j, i = np.argwhere(~legal.T)[0]
        rule = f"must lie in [0, {KNEE_ANGLE_MAX}] rad" if j == 2 else "must be >= 0"
        name = ("stiffness", "damping", "equilibrium")[j]
        raise ValueError(f"impedance[{i}][{j}]: {name} {rule}, got {imp[i, j]}")
    return imp


def check_features(values) -> np.ndarray:
    """Validated float copy of a (4, 2) gait-feature array.

    Rows are the gait phases in order; columns are phase duration (s),
    which must be positive and finite, and peak knee angle (rad), which
    must lie in [0, KNEE_ANGLE_MAX]: the rules of :class:`GaitFeatures`.
    """
    features = np.array(values, dtype=float)
    if features.shape != (NUM_PHASES, 2):
        raise ValueError(f"features must be a ({NUM_PHASES}, 2) array, "
                         f"got shape {features.shape}")
    for duration, peak in features.tolist():
        GaitFeatures(duration, peak)
    return features


@dataclass(frozen=True)
class PhaseBound:
    """Error bound for one phase: angle in radians, duration in percent of cycle.

    Both must be positive; the :class:`BoundsTable` that holds the bound
    refuses it otherwise, naming its table and phase.
    """

    angle: float
    duration_pct: float


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
        # each refusal opens with the table entry it names
        for kind in ("safety", "tolerance"):
            for i, bound in enumerate(getattr(self, kind)):
                if not (bound.angle > 0.0 and bound.duration_pct > 0.0):
                    raise ValueError(f"{kind}[{i}]: must be positive, "
                                     f"got {[bound.angle, bound.duration_pct]}")
                if not (math.isfinite(bound.angle) and math.isfinite(bound.duration_pct)):
                    raise ValueError(f"{kind}[{i}]: must be finite, "
                                     f"got {[bound.angle, bound.duration_pct]}")
        for i, (safe, tol) in enumerate(zip(self.safety, self.tolerance)):
            if not (tol.angle < safe.angle and tol.duration_pct < safe.duration_pct):
                raise ValueError(f"tolerance[{i}]: must be tighter than safety in both components")

    def safety_for(self, phase: Phase) -> PhaseBound:
        return self.safety[phase - 1]

    def limits(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """The ``kind`` ("safety" or "tolerance") bounds as (4,) angle and duration-% arrays."""
        bounds = getattr(self, kind)
        return (np.array([b.angle for b in bounds]),
                np.array([b.duration_pct for b in bounds]))

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


def within_bound(error, bound: PhaseBound, cycle_duration: float) -> bool:
    """True iff one phase's (d_duration, d_peak) error row is inside the bound.

    The duration component of ``bound`` is a percentage of the gait cycle,
    so the seconds-valued duration error is converted before comparison.
    """
    if not (math.isfinite(cycle_duration) and cycle_duration > 0.0):
        raise ValueError(f"cycle duration must be positive, got {cycle_duration}")
    d_duration, d_peak = error
    duration_pct = 100.0 * abs(d_duration) / cycle_duration
    return bool(abs(d_peak) <= bound.angle and duration_pct <= bound.duration_pct)


def duration_error_pct(errors: np.ndarray, cycle_duration) -> np.ndarray:
    """Signed duration errors of (..., 4, 2) error rows in percent of their cycle.

    ``cycle_duration`` holds one positive duration per leading entry.
    """
    return 100.0 * errors[..., 0] / np.asarray(cycle_duration)[..., None]


def inside_bounds(errors: np.ndarray, angle: np.ndarray, duration_pct: np.ndarray,
                  cycle_duration=None, pct: np.ndarray | None = None) -> np.ndarray:
    """:func:`within_bound` of every phase of (..., 4, 2) error rows, as (..., 4) flags.

    ``angle`` and ``duration_pct`` hold one bound per phase (:meth:`BoundsTable.limits`).
    ``pct`` is the rows' :func:`duration_error_pct`; a caller that has it
    passes it in place of ``cycle_duration``.  Since |100 e / c| equals
    100 |e| / c exactly, each flag is the one within_bound returns.
    """
    if pct is None:
        pct = duration_error_pct(errors, cycle_duration)
    return (np.abs(errors[..., 1]) <= angle) & (np.abs(pct) <= duration_pct)
