"""Host-speed sampling, so timings taken on a shared, noisy machine compare.

On a machine shared with other tenants the same batch can take 50% longer
in one minute than in the next, with CPU time rising as much as wall time:
the host switches between a fast and a slow mode many times a second.
While a batch runs, a real-time interval timer interrupts it every
``INTERVAL_S`` and runs a short, fixed calibration slice: interpreter-bound
loops, small-array numpy calls, a scalar Euler integration and small
frozen-dataclass construction, the kinds of work kneetrack's loop does.
Each slice's speed, 1 / duration, samples the host's speed at that moment,
so the batch's work time times the mean slice speed is the time it would
have taken on a host of constant speed:

    normalised = (wall - slices) * REFERENCE_S * mean(1 / slice)

The mean of speeds (not of durations) is the right average for work done
at a varying rate, and it also gives a slice stalled for tens of
milliseconds the near-zero weight that the stall had.  The calibration
code shares nothing with kneetrack, so a change to the library cannot
move the scale.  Raw wall times are reported beside the normalised ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.04
REFERENCE_S = 0.0012    # one slice on a quiet host, by definition of the scale

_VEC = np.arange(6.0)
_MAT = np.eye(6) * 0.5


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float

    def __post_init__(self):
        if self.a != self.a:
            raise ValueError("nan")


def calibration_slice() -> float:
    """Fixed mixed work, about 1.2 ms on a quiet host; returns its duration in seconds."""
    t0 = time.perf_counter()
    v = _VEC
    acc = 0.0
    for _ in range(40):
        h = np.tanh(_MAT @ v)
        acc += float(h @ v)
        v = np.clip(h + v * 0.5, -1.0, 1.0)
    table = {}
    for i in range(2000):
        acc += i * i % 7
        table[i & 63] = acc
    pairs = []
    for _ in range(30):
        h = np.tanh(_MAT @ v)
        pairs.append(_Pair(float(h[0]), float(h[1])))
        pairs.append(tuple(float(x) for x in h[:3]))
    x, dx = 0.1, 0.0
    for _ in range(150):
        dx += 0.2 * (-40.0 * (x - 0.3) - 1.5 * dx)
        x = min(max(x + 0.01 * dx, 0.0), 1.6)
        pairs.append(_Pair(x, dx))
    return time.perf_counter() - t0


def _speed(slices: list[float]) -> float:
    """REFERENCE_S times the mean speed 1 / slice."""
    return REFERENCE_S * statistics.fmean(1.0 / d for d in slices)


class Sampler:
    """Interval-timer sampling of host speed around timed calls."""

    def __init__(self):
        self._slices: list[float] = []
        for _ in range(20):                  # warm up before the first sample
            calibration_slice()

    def _handler(self, signum, frame):
        self._slices.append(calibration_slice())

    def timed(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; return (result, wall_s, normalised_s, host_factor).

        ``host_factor`` is REFERENCE_S times the mean slice speed; normalised
        time is the work time (wall minus slices) times that factor.
        """
        before = calibration_slice()
        self._slices = []
        previous = signal.signal(signal.SIGALRM, self._handler)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        inside = self._slices
        factor = _speed([before, *inside, calibration_slice()])
        return result, wall, (wall - sum(inside)) * factor, factor
