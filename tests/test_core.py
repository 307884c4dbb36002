"""Domain types and feature arithmetic."""

import numpy as np
import pytest

from kneetrack.core import (
    BoundsTable,
    GaitFeatures,
    ImpedanceTriple,
    PHASES,
    Phase,
    PhaseBound,
    TrackingState,
    within_bound,
)
from kneetrack.plant import alignment_errors


def test_phases_are_exactly_four_in_order():
    assert [int(p) for p in PHASES] == [1, 2, 3, 4]
    assert [p.short_name for p in PHASES] == ["STF", "STE", "SWF", "SWE"]


def test_gait_features_validation():
    GaitFeatures(0.3, 0.5)
    with pytest.raises(ValueError):
        GaitFeatures(0.0, 0.5)
    with pytest.raises(ValueError):
        GaitFeatures(0.3, -0.1)
    with pytest.raises(ValueError):
        GaitFeatures(0.3, 1.7)


def test_impedance_triple_validation():
    ImpedanceTriple(10.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        ImpedanceTriple(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        ImpedanceTriple(10.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        ImpedanceTriple(10.0, 1.0, 1.61)


def test_tracking_error_identical_inputs():
    y = [GaitFeatures(0.40, 0.30), GaitFeatures(0.32, 1.05)]
    assert alignment_errors(y, y) == [TrackingState(0.0, 0.0)] * 2


def test_tracking_error_componentwise():
    errs = alignment_errors([GaitFeatures(0.45, 0.35), GaitFeatures(0.40, 0.25)],
                            [GaitFeatures(0.40, 0.30), GaitFeatures(0.45, 0.30)])
    assert errs[0].d_duration == pytest.approx(0.05)
    assert errs[0].d_peak == pytest.approx(0.05)
    assert errs[1].d_duration == pytest.approx(-0.05)
    assert errs[1].d_peak == pytest.approx(-0.05)


def test_tracking_error_antisymmetric():
    rng = np.random.default_rng(0)

    def profile():
        return [GaitFeatures(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.0, 1.6)))
                for _ in PHASES]

    for _ in range(100):
        a, b = profile(), profile()
        for fw, bw in zip(alignment_errors(a, b), alignment_errors(b, a)):
            assert fw.d_duration == -bw.d_duration
            assert fw.d_peak == -bw.d_peak


def test_within_bound_zero_error():
    assert within_bound(TrackingState(0.0, 0.0), PhaseBound(0.001, 0.001), 1.0)


def test_within_bound_tolerance_row():
    bound = PhaseBound(0.0263, 2.0)
    assert within_bound(TrackingState(0.012, 0.02), bound, 1.0)
    assert not within_bound(TrackingState(0.03, 0.02), bound, 1.0)


def test_within_bound_rejects_bad_cycle_duration():
    with pytest.raises(ValueError):
        within_bound(TrackingState(0.0, 0.0), PhaseBound(0.1, 2.0), 0.0)
    with pytest.raises(ValueError):
        within_bound(TrackingState(0.0, 0.0), PhaseBound(0.1, 2.0), -1.0)


def test_within_bound_monotone_in_error_magnitude():
    rng = np.random.default_rng(1)
    bound = PhaseBound(0.0263, 2.0)
    for _ in range(200):
        d = float(rng.uniform(-0.1, 0.1))
        p = float(rng.uniform(-0.1, 0.1))
        shrink = float(rng.uniform(0.0, 1.0))
        inside = within_bound(TrackingState(d, p), bound, 1.2)
        if inside:
            assert within_bound(TrackingState(shrink * d, shrink * p), bound, 1.2)


def test_bounds_table_default_matches_published_limits():
    table = BoundsTable.default()
    assert [b.angle for b in table.safety] == [0.184, 0.131, 0.157, 0.105]
    assert all(b.duration_pct == 12.0 for b in table.safety)
    assert all(b.angle == 0.0263 and b.duration_pct == 2.0 for b in table.tolerance)
    assert table.safety_for(Phase.STANCE_FLEXION).angle == 0.184
    assert table.tolerance_for(Phase.SWING_EXTENSION).duration_pct == 2.0


def test_bounds_table_rejects_tolerance_wider_than_safety():
    good = BoundsTable.default()
    with pytest.raises(ValueError):
        BoundsTable(safety=good.tolerance, tolerance=good.safety)
