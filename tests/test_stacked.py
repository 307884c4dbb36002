"""Stacked per-cycle primitives equal the one-trial rules they replace, bit for bit.

A lockstep walks the cycle of all its trials with array operations on
(n, 4, ...) stacks.  Each test here checks one such operation, for random
stacks of n >= 1 trials, against the rule a lone trial used before the
stacking: element by element, with ``np.array_equal`` on the bits (so a
-0.0 that came out as +0.0 counts as a difference).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kneetrack.core import (
    KNEE_ANGLE_MAX,
    BoundsTable,
    PhaseBound,
    inside_bounds,
    within_bound,
)
from kneetrack.fsm import ParameterRanges, PhaseRanges, apply_delta
from kneetrack.harness import _apply_deltas
from kneetrack.plant import (
    MIN_DURATION,
    FeatureMapConfig,
    FeatureMapPlant,
    cycle_duration,
    profile_to_array,
)

PHASES = range(4)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def lone_feature_map_step(cfg: FeatureMapConfig, state, imp, pace: float, rng):
    """One plant's cycle as a lone trial walked it: Python pace, (4, 3) einsum, rng.normal."""
    offsets = imp - cfg.reference_impedance
    base = profile_to_array(cfg.reference_features)
    eta = cfg.pace_passthrough
    base[:, 0] *= eta / pace + (1.0 - eta)
    target = base + np.einsum("pij,pj->pi", cfg.sensitivity, offsets)
    noise = rng.normal(0.0, cfg.noise_std, size=(4, 2))
    state = (1.0 - cfg.smoothing) * state + cfg.smoothing * target + noise
    state[:, 0] = np.maximum(state[:, 0], MIN_DURATION)
    state[:, 1] = np.clip(state[:, 1], 0.0, KNEE_ANGLE_MAX)
    return state


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 40),
       smoothing=st.floats(0.01, 1.0), passthrough=st.floats(0.0, 1.0),
       noise=st.sampled_from([(0.0, 0.0), (0.005, 0.005), (0.2, 0.8), (0.0, 0.01)]))
def test_stacked_feature_map_response_equals_lone_steps(seed, trials, smoothing,
                                                        passthrough, noise):
    # (a) the response, einsum over stacked subscripts included, and the
    # noise each trial draws from its own generator
    rng = np.random.default_rng(seed)
    default = FeatureMapConfig.default()
    cfg = FeatureMapConfig(
        reference_impedance=default.reference_impedance * rng.uniform(0.5, 1.5, (4, 3)),
        reference_features=oracles.array_to_profile(rng.uniform([0.2, 0.1], [0.5, 1.2], (4, 2))),
        sensitivity=rng.normal(size=(4, 2, 3)) * 10.0 ** rng.uniform(-4, 0, (4, 2, 3)),
        smoothing=smoothing, noise_std=noise, pace_passthrough=passthrough,
    )
    plant = FeatureMapPlant(cfg, np.random.default_rng(0))
    imp = cfg.reference_impedance * rng.uniform(0.6, 1.4, (trials, 4, 3))
    state = rng.uniform([0.1, 0.0], [0.6, 1.6], (trials, 4, 2))
    pace = rng.choice([1.0, 0.8, 1.12, 0.88, 1.2, float(rng.uniform(0.5, 2.0))], trials)
    seeds = rng.integers(0, 2**32, trials)

    stacked_rngs = [np.random.default_rng(s) for s in seeds]
    draws = np.array([r.standard_normal((4, 2)) for r in stacked_rngs])
    stacked = plant.respond(state, imp, plant.paced_reference(pace), draws)

    for i, s in enumerate(seeds):
        lone_rng = np.random.default_rng(s)
        want = lone_feature_map_step(cfg, state[i].copy(), imp[i], float(pace[i]), lone_rng)
        assert same_bits(stacked[i], want)
        assert lone_rng.random() == stacked_rngs[i].random()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 50),
       std=st.tuples(st.sampled_from([0.0, 0.005, 1e-3, 0.8, 3.0]),
                     st.sampled_from([0.0, 0.005, 1e-3, 0.8, 3.0])))
def test_scaled_standard_normal_equals_normal(seed, draws, std):
    # (b) the noise: a standard-normal draw scaled on the stack is the
    # rng.normal draw of the same generator, and both streams go on alike
    scaled, normal = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        got = 0.0 + scaled.standard_normal((4, 2)) * np.array(std)
        assert same_bits(got, normal.normal(0.0, std, size=(4, 2)))
    assert scaled.random() == normal.random()


def edge_values(rng, shape, lo, hi):
    """Values that hit the ranges' edges and signed zeros as well as their insides."""
    picks = np.stack(np.broadcast_arrays(lo, hi, -0.0, 0.0, lo - 1.0, hi + 1.0,
                                         rng.uniform(-5, 105, shape)), axis=-1)
    return np.take_along_axis(picks, rng.integers(0, 7, shape + (1,)), axis=-1)[..., 0]


def random_ranges(rng) -> ParameterRanges:
    def interval(top):
        lo, hi = sorted(rng.choice([0.0, -0.0, float(rng.uniform(0, top)), top], 2))
        return (lo, hi)
    return ParameterRanges(tuple(PhaseRanges(interval(100.0), interval(5.0), interval(1.6))
                                 for _ in PHASES))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 30))
def test_stacked_clamp_equals_python_min_max(seed, trials):
    # (c) the clip: Python's min(max(v, lo), hi) on each component, and a
    # clamp flag exactly where the clamped row differs from the sum
    rng = np.random.default_rng(seed)
    ranges = random_ranges(rng)
    lo, hi = ranges.limits
    imp = edge_values(rng, (trials, 4, 3), lo, hi)
    delta = np.where(rng.random((trials, 4, 3)) < 0.3, rng.choice([0.0, -0.0], (trials, 4, 3)),
                     rng.normal(0.0, 3.0, (trials, 4, 3)))

    want = imp.copy()
    want_flags = np.zeros((trials, 4), bool)
    for i in range(trials):
        for p in PHASES:
            raw = [v + d for v, d in zip(imp[i, p].tolist(), delta[i, p].tolist())]
            row = [min(max(v, a), b) for v, a, b in zip(raw, lo[p].tolist(), hi[p].tolist())]
            want[i, p] = row
            want_flags[i, p] = row != raw

    got, flags = _apply_deltas(imp, delta, ranges)
    assert same_bits(got, want)
    assert np.array_equal(flags, want_flags)
    for p in PHASES:
        # apply_delta moves one phase of every trial; its flag is any trial's
        one, clamped = apply_delta(imp, p + 1, delta[:, p], ranges)
        assert same_bits(one[:, p], want[:, p])
        assert same_bits(np.delete(one, p, axis=1), np.delete(imp, p, axis=1))
        assert clamped is bool(want_flags[:, p].any())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 30))
def test_stacked_bounds_equal_within_bound(seed, trials):
    # (d) the tolerance and safety flags, also both tables in one call as
    # the lockstep makes it, row by row against within_bound
    rng = np.random.default_rng(seed)
    safety = tuple(PhaseBound(float(rng.uniform(0.05, 0.3)), float(rng.uniform(5, 15)))
                   for _ in PHASES)
    tolerance = tuple(PhaseBound(s.angle * float(rng.uniform(0.05, 0.9)),
                                 s.duration_pct * float(rng.uniform(0.05, 0.9))) for s in safety)
    bounds = BoundsTable(safety=safety, tolerance=tolerance)
    cycle_dur = rng.uniform(0.5, 2.0, trials)
    scale = np.array([[s.duration_pct / 100.0, s.angle] for s in safety])
    errors = rng.uniform(-1.5, 1.5, (trials, 4, 2)) * scale
    # errors that sit exactly on a bound
    on_edge = rng.random((trials, 4)) < 0.2
    errors[..., 1] = np.where(on_edge, [s.angle for s in safety], errors[..., 1])

    both = tuple(np.stack(pair)[:, None]
                 for pair in zip(bounds.limits("tolerance"), bounds.limits("safety")))
    in_both = inside_bounds(errors, *both, cycle_dur)
    for k, kind in enumerate(("tolerance", "safety")):
        got = inside_bounds(errors, *bounds.limits(kind), cycle_dur)
        want = [[within_bound(err, getattr(bounds, kind)[p], float(cycle_dur[i]))
                 for p, err in zip(PHASES, errors[i].tolist())] for i in range(trials)]
        assert got.tolist() == want
        assert in_both[k].tolist() == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 30))
def test_stacked_cycle_duration_equals_python_sum(seed, trials):
    # the cycle duration a lone trial summed over its profile's GaitFeatures
    features = np.random.default_rng(seed).uniform([1e-3, 0.0], [2.0, 1.6], (trials, 4, 2))
    got = cycle_duration(features)
    for i in range(trials):
        want = float(sum(f.duration for f in oracles.array_to_profile(features[i])))
        assert got[i] == want


LEADING_SHAPES = [(), (1,), (4,), (1, 4), (3, 4), (16, 4), (60, 4)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lead=st.sampled_from(LEADING_SHAPES),
       inner=st.integers(1, 40), outer=st.integers(1, 40))
def test_contraction_gufuncs_equal_the_matmul_forms(seed, lead, inner, outer):
    # the dHDP rules contract with np.vecdot/np.matvec/np.vecmat; each must give
    # the bits of the matmul form it replaced, for every stack of nets and for
    # a column slice such as w_hidden[..., 2:], which is not contiguous
    rng = np.random.default_rng(seed)

    def operand(*core):
        # random signs, magnitudes spread log-uniformly over 1e-5 .. 1e5; half
        # of the operands are a [..., 2:] slice
        skip = int(rng.choice([0, 2]))
        shape = lead + core[:-1] + (core[-1] + skip,)
        values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
        return values[..., skip:]

    x, y, m, v = operand(inner), operand(inner), operand(outer, inner), operand(outer)
    assert same_bits(np.vecdot(x, y), oracles.matmul_dot(x, y))
    assert same_bits(np.matvec(m, x), oracles.matmul_matvec(m, x))
    assert same_bits(np.vecmat(v, m), oracles.matmul_vecmat(v, m))
