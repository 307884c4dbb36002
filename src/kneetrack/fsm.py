"""Finite-state-machine impedance controller.

A gait cycle is split into four phases, each with its own impedance row
(stiffness, damping, equilibrium) of a (4, 3) impedance array.  This module
holds the controller's rules: the joint torque of the active row
(:func:`joint_torque`), the kinematic peak that ends a flexion phase
(:func:`flexion_peaked`), and per-cycle parameter adjustments clamped to
configured physical ranges (:func:`apply_delta`).  The torque-law knee
(``OdeKneePlant``) walks the phase machine in its own float loop with the
first two.
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
                raise ValueError(f"{name}: range ({lo}, {hi}) must satisfy "
                                 f"0 <= lower <= upper <= {top}")
            if not math.isfinite(hi):
                raise ValueError(f"{name}: range ({lo}, {hi}) must be finite")


@dataclass(frozen=True)
class ParameterRanges:
    """Physical impedance ranges for all four phases."""

    phases: tuple[PhaseRanges, PhaseRanges, PhaseRanges, PhaseRanges]

    @cached_property
    def limits(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds as (4, 3) arrays, laid out like an impedance array."""
        rows = [(p.stiffness, p.damping, p.equilibrium) for p in self.phases]
        bounds = np.array(rows, dtype=float)  # (4, 3, 2)
        return bounds[..., 0], bounds[..., 1]

    @cached_property
    def rows(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each phase's (lower, upper) rows of :attr:`limits`, in phase order."""
        return tuple(zip(*self.limits))

    @classmethod
    def default(cls) -> "ParameterRanges":
        return cls(tuple(PhaseRanges() for _ in range(NUM_PHASES)))


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
    lo, hi = ranges.rows[phase - 1]
    updated = imp.copy()
    row = updated[..., phase - 1, :]
    row += step
    # Python's min(max(v, lo), hi): lo where lo > v, else hi where hi < v,
    # else v itself, so a -0.0 within range stays -0.0 (np.maximum would
    # not keep it); the row differs from the sum exactly where it clamped
    below, above = lo > row, hi < row
    clamped = bool(np.count_nonzero(below | above))
    if clamped:
        row[...] = np.where(below, lo, np.where(above, hi, row))
    return updated, clamped
