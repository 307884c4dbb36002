"""Stacked per-cycle primitives equal the one-trial rules they replace, bit for bit.

A lockstep walks the cycle of all its trials with array operations on
(n, 4, ...) stacks.  Each test here checks one such operation, for random
stacks of n >= 1 trials, against the rule a lone trial used before the
stacking: element by element, with ``np.array_equal`` on the bits (so a
-0.0 that came out as +0.0 counts as a difference).
"""

import copy

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
from kneetrack.dhdp import ActorNet, CriticNet, init_actor, stack_nets
from kneetrack.fsm import ParameterRanges, PhaseRanges, apply_delta
from kneetrack.harness import (
    _LOG_FIELDS,
    DhdpConfig,
    Trial,
    TrialConfig,
    _apply_deltas,
    _Lockstep,
    make_plant,
    make_target_program,
)
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


def drawn_values(rng, scales, shape):
    """Values of every sign, each trial's (along the first axis) at its own scale."""
    return scales.reshape((-1,) + (1,) * (len(shape) - 1)) * rng.uniform(-1.0, 1.0, shape)


def row(value, i):
    """Entry ``i`` of a stacked array, or of each weight of a stacked net."""
    if hasattr(value, "w_out"):
        return type(value)(w_hidden=value.w_hidden[i], w_out=value.w_out[i])
    return value[i]


def same_row_bits(a, b) -> bool:
    if hasattr(a, "w_out"):
        return same_bits(a.w_hidden, b.w_hidden) and same_bits(a.w_out, b.w_out)
    return same_bits(a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 6), strict=st.booleans(),
       rates=st.sampled_from([(0.1, 30.0), (1e3, 1e6)]))
def test_learning_step_equals_reference_learn(seed, trials, strict, rates):
    # _Lockstep._learn on any learners of any lockstep, some with a lag and
    # some without, some faulting or halted, equals each learner's lone step
    rng = np.random.default_rng(seed)
    cfg = TrialConfig(max_cycles=40, strict_monitor=strict,
                      dhdp=DhdpConfig(critic_lr=rates[0], actor_lr=rates[1]))
    program = make_target_program(cfg, make_plant(cfg, rng), rng)
    lockstep = _Lockstep([Trial(cfg, i, target_program=program,
                                initial_impedance=cfg.feature_map.reference_impedance)
                          for i in range(trials)])
    n, h_c, h_a = trials, cfg.dhdp.critic_hidden, cfg.dhdp.actor_hidden
    lockstep.k = int(rng.integers(0, 40))
    # weights at scales up to those whose updates overflow, with no -0.0 (a
    # uniform draw gives none), and lags up to ones whose TD error overflows them
    scale = rng.choice([0.5, 4.0, 1e200], n, p=[0.45, 0.45, 0.1])
    lockstep.critic = CriticNet(w_hidden=drawn_values(rng, scale, (n, 4, h_c, 5)),
                                w_out=drawn_values(rng, scale, (n, 4, h_c)))
    lockstep.actor = ActorNet(w_hidden=drawn_values(rng, scale, (n, 4, h_a, 2)),
                              w_out=drawn_values(rng, scale, (n, 4, 3, h_a)))
    lockstep._lag_value = drawn_values(rng, rng.choice([1.0, 1e200], n, p=[0.8, 0.2]), (n, 4))
    lockstep._lag_cost = rng.uniform(0.0, 3.0, (n, 4))
    lockstep._lagged = rng.random(n) < 0.5
    lockstep._max_weight_norm = rng.choice([0.0, 3.0, 1e150], n)
    lo, hi = cfg.ranges.limits
    lockstep.impedance = np.choose(rng.integers(0, 3, (n, 4, 3)),
                                   [np.broadcast_to(lo, (n, 4, 3)), np.broadcast_to(hi, (n, 4, 3)),
                                    lo + (hi - lo) * rng.random((n, 4, 3))])
    state = rng.uniform(-1.0, 1.0, (n, 4, 2))
    rows = np.flatnonzero(rng.random(n) < 0.7)
    rows = rows if len(rows) else np.array([int(rng.integers(0, n))])
    before = copy.deepcopy({name: getattr(lockstep, name) for name in (
        "critic", "actor", "_lag_value", "_lag_cost", "impedance", "_max_weight_norm")})
    block = np.zeros((n, 4, len(_LOG_FIELDS)))

    kept = lockstep._learn(rows, state, block)

    want_kept = []
    for i in range(n):
        trial = lockstep.trials[i]
        lag = (before["_lag_value"][i], before["_lag_cost"][i]) if lockstep._lagged[i] else None
        step = (oracles.reference_learn(cfg, row(before["critic"], i), row(before["actor"], i),
                                        state[i], before["impedance"][i], lag)
                if i in rows else None)
        keeps = step is not None and step.critic is not None
        want = {"critic": step.critic, "actor": step.actor, "_lag_value": step.lag[0],
                "_lag_cost": step.lag[1], "impedance": step.impedance,
                "_max_weight_norm": max(before["_max_weight_norm"][i], step.weight_norm),
                } if keeps else {name: row(value, i) for name, value in before.items()}
        for name, value in want.items():
            assert same_row_bits(row(getattr(lockstep, name), i), value), (i, name)
        if keeps:
            want_kept.append(i)
            for name, column in step.fields.items():
                assert same_bits(block[i, :, _LOG_FIELDS.index(name)], column), (i, name)
        else:
            assert not block[i].any()
        ending = step.ending if step is not None else None
        assert trial.finished == (ending is not None)
        if ending is not None:
            assert (trial.record.outcome, trial.record.failure_reason,
                    trial.record.cycles_run) == ("failure", ending, lockstep.k + 1)
        faulted = step is not None and not keeps
        assert trial.record.monitor_violations == (
            int(np.count_nonzero(~step.monitor_ok)) if faulted else 0)
    assert kept.tolist() == want_kept


def test_a_given_critic_enters_without_negative_zero():
    # a zero-TD step may turn a -0.0 weight into 0.0, so a given critic enters
    # a trial as w + 0.0: the same values, no -0.0, and the policy left as it was
    rng = np.random.default_rng(5)
    critics = [CriticNet(w_hidden=np.where(rng.random((8, 5)) < 0.5, -0.0,
                                           rng.uniform(-1.0, 1.0, (8, 5))),
                         w_out=np.full(8, -0.0)) for _ in range(4)]
    actors = [init_actor(rng) for _ in range(4)]
    trial = Trial(TrialConfig(max_cycles=40, load_critic=True), 3, policy=(actors, critics))
    given = stack_nets(critics)
    entered = _Lockstep([trial]).critic
    for name in ("w_hidden", "w_out"):
        got = getattr(entered, name)[0]
        assert np.array_equal(got, getattr(given, name))
        assert not np.signbit(got[got == 0.0]).any()
    assert np.signbit(critics[0].w_out).all()

