"""Domain types and feature arithmetic."""

import numpy as np
import pytest

from kneetrack.core import (
    BoundsTable,
    GaitFeatures,
    PHASES,
    Phase,
    PhaseBound,
    check_impedance,
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
    legal = [[10.0, 1.0, 0.5]] * 4
    checked = check_impedance(legal)
    assert checked.dtype == float and checked.shape == (4, 3)
    assert np.array_equal(checked, legal)
    source = np.array(legal)
    assert check_impedance(source) is not source
    for row, col, value in ((1, 0, -1.0), (2, 1, -0.1), (3, 2, 1.61), (0, 2, -0.01),
                            (0, 0, float("nan")), (1, 1, float("inf"))):
        bad = source.copy()
        bad[row, col] = value
        with pytest.raises(ValueError, match=("stiffness", "damping", "equilibrium")[col]):
            check_impedance(bad)
    for shape in ((3, 3), (4, 2), (12,)):
        with pytest.raises(ValueError, match="shape"):
            check_impedance(np.ones(shape))


def test_tracking_error_identical_inputs():
    y = np.array([[0.40, 0.30], [0.32, 1.05]])
    assert np.array_equal(alignment_errors(y, y), np.zeros((2, 2)))


def test_tracking_error_componentwise():
    errs = alignment_errors(np.array([[0.45, 0.35], [0.40, 0.25]]),
                            np.array([[0.40, 0.30], [0.45, 0.30]]))
    np.testing.assert_allclose(errs, [[0.05, 0.05], [-0.05, -0.05]])


def test_tracking_error_antisymmetric():
    rng = np.random.default_rng(0)

    def profile():
        return np.array([[rng.uniform(0.1, 1.0), rng.uniform(0.0, 1.6)] for _ in PHASES])

    for _ in range(100):
        a, b = profile(), profile()
        assert np.array_equal(alignment_errors(a, b), -alignment_errors(b, a))


def test_within_bound_zero_error():
    assert within_bound(np.zeros(2), PhaseBound(0.001, 0.001), 1.0) is True


def test_within_bound_tolerance_row():
    bound = PhaseBound(0.0263, 2.0)
    assert within_bound(np.array([0.012, 0.02]), bound, 1.0) is True
    assert within_bound(np.array([0.03, 0.02]), bound, 1.0) is False


def test_within_bound_rejects_bad_cycle_duration():
    with pytest.raises(ValueError):
        within_bound(np.zeros(2), PhaseBound(0.1, 2.0), 0.0)
    with pytest.raises(ValueError):
        within_bound(np.zeros(2), PhaseBound(0.1, 2.0), -1.0)


def test_within_bound_monotone_in_error_magnitude():
    rng = np.random.default_rng(1)
    bound = PhaseBound(0.0263, 2.0)
    for _ in range(200):
        d = float(rng.uniform(-0.1, 0.1))
        p = float(rng.uniform(-0.1, 0.1))
        shrink = float(rng.uniform(0.0, 1.0))
        inside = within_bound(np.array([d, p]), bound, 1.2)
        if inside:
            assert within_bound(np.array([shrink * d, shrink * p]), bound, 1.2)


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
