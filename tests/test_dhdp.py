"""Unit and oracle tests for the per-phase learning block."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from kneetrack.dhdp import (
    ActionScale,
    ActorNet,
    CriticNet,
    CriticTape,
    MonitorParams,
    NumericFaultError,
    StageCostParams,
    activation,
    activation_deriv,
    actor_eval,
    actor_forward,
    actor_update,
    critic_action_gradient,
    critic_eval,
    critic_forward,
    critic_update,
    init_actor,
    init_critic,
    load_policy,
    save_policy,
    scale_action,
    stability_monitor,
    stack_nets,
    stage_cost,
    td_error,
    unstack_net,
)
from kneetrack.harness import DhdpConfig


# ---------------------------------------------------------------------------
# activation


def test_activation_zero():
    assert activation(0.0) == 0.0


def test_activation_saturates():
    assert activation(60.0) == pytest.approx(1.0, abs=1e-12)
    assert activation(-60.0) == pytest.approx(-1.0, abs=1e-12)


def test_activation_closed_form():
    # (1 - e^-1) / (1 + e^-1), identically tanh(1/2)
    expected = (1.0 - math.exp(-1.0)) / (1.0 + math.exp(-1.0))
    assert activation(1.0) == pytest.approx(expected, abs=1e-15)
    assert activation(1.0) == pytest.approx(0.46211715, abs=1e-8)


def test_activation_is_odd():
    xs = np.linspace(-5.0, 5.0, 41)
    assert np.allclose(activation(xs), -activation(-xs), atol=1e-15)


# values where a saturation can differ: signed zeros, NaN, infinities,
# inputs that saturate tanh (|x| > 40) and the edges of the clip bounds
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, -1.0,
                     float(np.nextafter(1.0, 0.0)), 1.6, 1e-3, 5e-324, -5e-324]),
    st.floats(min_value=40.0, max_value=1e308), st.floats(min_value=-1e308, max_value=-40.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(EDGE_FLOATS, min_size=1, max_size=40))
def test_activation_clip_equals_the_min_max_form(values):
    # ndarray.clip replaced np.minimum(np.maximum(...)): the same bits for
    # arrays and for a scalar, NaN and signed zeros included
    x = np.array(values)
    assert activation(x).tobytes() == oracles.minmax_activation(x).tobytes()
    for v in values[:3]:
        want = oracles.minmax_activation(v)
        assert np.array(activation(v)).tobytes() == np.array(want).tobytes()


def test_activation_derivative_identity():
    # d/dx activation = (1 - activation^2) / 2, checked by finite differences
    xs = np.linspace(-3.0, 3.0, 25)
    h = 1e-6
    fd = (activation(xs + h) - activation(xs - h)) / (2 * h)
    assert np.allclose(fd, 0.5 * (1.0 - activation(xs) ** 2), rtol=1e-8)


# ---------------------------------------------------------------------------
# forward passes


def test_critic_forward_zero_weights():
    net = CriticNet(w_hidden=np.zeros((8, 5)), w_out=np.zeros(8))
    assert critic_forward(net, [0.3, -0.2], [0.1, 0.5, -0.4]) == 0.0


def test_critic_forward_zero_hidden_layer():
    net = CriticNet(w_hidden=np.zeros((8, 5)), w_out=np.ones(8))
    assert critic_forward(net, [1.0, 1.0], [1.0, 1.0, 1.0]) == 0.0


def test_critic_forward_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        net = init_critic(rng)
        s = rng.uniform(-1, 1, 2)
        u = rng.uniform(-1, 1, 3)
        assert critic_forward(net, s, u) == pytest.approx(oracles.loop_critic(net, s, u), abs=1e-12)


def test_actor_forward_zero_weights():
    net = ActorNet(w_hidden=np.zeros((6, 2)), w_out=np.zeros((3, 6)))
    assert np.all(actor_forward(net, [0.5, -0.5]) == 0.0)


def test_actor_forward_zero_state():
    rng = np.random.default_rng(3)
    net = init_actor(rng)
    assert np.all(actor_forward(net, [0.0, 0.0]) == 0.0)


def test_actor_forward_matches_loop_oracle():
    rng = np.random.default_rng(12)
    for _ in range(100):
        net = init_actor(rng)
        s = rng.uniform(-1, 1, 2)
        got = actor_forward(net, s)
        want = oracles.loop_actor(net, s)
        assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# td error and stage cost


def test_td_error_zeros():
    assert td_error(0.0, 0.0, 0.0, 0.95) == 0.0


def test_td_error_direct_substitution():
    assert td_error(1.0, 2.0, 1.0, 0.95) == pytest.approx(-0.05)


def test_td_error_vanishes_on_consistent_triple():
    rng = np.random.default_rng(4)
    for _ in range(50):
        q_now = rng.normal()
        cost_prev = rng.uniform(0, 2)
        q_prev = cost_prev + 0.95 * q_now
        assert td_error(q_now, q_prev, cost_prev, 0.95) == pytest.approx(0.0, abs=1e-12)


def test_stage_cost_zero_at_origin():
    p = StageCostParams.default()
    assert stage_cost([0.0, 0.0], [0.0, 0.0, 0.0], p) == 0.0


def test_stage_cost_reference_values():
    p = StageCostParams.default()
    assert stage_cost([1.0, 1.0], [1.0, 1.0, 1.0], p) == pytest.approx(2.3)
    assert stage_cost([0.05, 0.02], [0.0, 0.0, 0.0], p) == pytest.approx(0.0029)


def test_stage_cost_nonnegative_and_definite():
    p = StageCostParams.default()
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = rng.normal(size=2)
        u = rng.uniform(-1, 1, 3)
        cost = stage_cost(s, u, p)
        assert cost >= 0.0
        if cost == 0.0:
            assert np.all(s == 0.0) and np.all(u == 0.0)


def test_stage_cost_params_reject_non_pd():
    with pytest.raises(ValueError):
        StageCostParams(state_weight=np.diag([1.0, -1.0]),
                        action_weight=np.diag([0.1, 0.1, 0.1]))
    for discount in (1.0, 0.0, 1.5):
        with pytest.raises(ValueError, match="discount"):
            DhdpConfig(discount=discount)


# ---------------------------------------------------------------------------
# update rules against a finite-difference oracle


def test_critic_update_zero_error_is_identity():
    rng = np.random.default_rng(6)
    net = init_critic(rng)
    tape = critic_eval(net, [0.1, 0.2], [0.0, 0.1, -0.2])
    updated = critic_update(net, 0.0, tape, lr=0.5, discount=0.95)
    assert np.array_equal(updated.w_hidden, net.w_hidden)
    assert np.array_equal(updated.w_out, net.w_out)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 8),
       lead=st.sampled_from([(), (4,), (3, 4)]), td=st.sampled_from([0.0, -0.0]),
       lr=st.floats(1e-6, 1e300), discount=st.floats(0.01, 0.99))
def test_critic_update_zero_td_keeps_every_weight_bit(seed, hidden, lead, td, lr, discount):
    # a learner without a lag steps on a zero TD error: w - (+-0.0) * x gives
    # back every finite weight's bytes but -0.0's, which no critic holds
    rng = np.random.default_rng(seed)

    def weights(shape):
        # every sign and finite magnitude, subnormals, the largest double and +0.0
        values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-330.0, 308.0, shape)
        edges = rng.choice([0.0, 5e-324, -5e-324, 1.7976931348623157e308], shape)
        return np.where(rng.random(shape) < 0.2, edges, values) + 0.0  # no -0.0

    net = CriticNet(w_hidden=weights(lead + (hidden, 5)), w_out=weights(lead + (hidden,)))
    phi = rng.uniform(-1.0, 1.0, lead + (hidden,))
    tape = CriticTape(z=weights(lead + (5,)), phi=phi, gate=activation_deriv(phi),
                      value=rng.normal(size=lead))
    updated = critic_update(net, np.full(lead, td), tape, lr, discount)
    assert updated.w_hidden.tobytes() == net.w_hidden.tobytes()
    assert updated.w_out.tobytes() == net.w_out.tobytes()


def test_critic_update_hand_computed_single_unit():
    # one hidden unit, zero hidden weights: phi(0)=0 so the output weight
    # delta vanishes while the hidden delta is -lr*discount*td * 1 * 1/2 * z
    net = CriticNet(w_hidden=np.zeros((1, 5)), w_out=np.array([1.0]))
    z_state, z_action = [1.0, 0.0], [0.0, 0.0, 0.0]
    tape = critic_eval(net, z_state, z_action)
    updated = critic_update(net, td=0.5, tape=tape, lr=0.1, discount=0.95)
    assert updated.w_out[0] == pytest.approx(1.0)
    assert updated.w_hidden[0, 0] == pytest.approx(-0.02375)
    assert np.all(updated.w_hidden[0, 1:] == 0.0)


def test_critic_update_matches_finite_differences():
    rng = np.random.default_rng(7)
    discount = 0.95
    for _ in range(100):
        net = init_critic(rng)
        s = rng.uniform(-0.2, 0.2, 2)
        u = rng.uniform(-1, 1, 3)
        q_prev = rng.normal()
        cost_prev = rng.uniform(0, 1)
        tape = critic_eval(net, s, u)
        td = td_error(tape.value, q_prev, cost_prev, discount)
        lr = 0.3
        updated = critic_update(net, td, tape, lr, discount)
        gh, go = oracles.critic_fd_grads(net, s, u, q_prev, cost_prev, discount)
        np.testing.assert_allclose(updated.w_hidden - net.w_hidden, -lr * gh,
                                   rtol=1e-5, atol=1e-10)
        np.testing.assert_allclose(updated.w_out - net.w_out, -lr * go,
                                   rtol=1e-5, atol=1e-10)


def test_actor_update_zero_value_is_identity():
    rng = np.random.default_rng(8)
    actor = init_actor(rng)
    critic = CriticNet(w_hidden=np.zeros((8, 5)), w_out=np.zeros(8))
    s = np.array([0.1, -0.1])
    a_tape = actor_eval(actor, s)
    c_tape = critic_eval(critic, s, a_tape.output)
    assert c_tape.value == 0.0
    updated = actor_update(actor, critic, c_tape, a_tape, lr=1.0)
    assert np.array_equal(updated.w_hidden, actor.w_hidden)
    assert np.array_equal(updated.w_out, actor.w_out)


def test_actor_update_matches_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(100):
        actor = init_actor(rng)
        critic = init_critic(rng)
        s = rng.uniform(-0.2, 0.2, 2)
        a_tape = actor_eval(actor, s)
        c_tape = critic_eval(critic, s, a_tape.output)
        lr = 0.3
        updated = actor_update(actor, critic, c_tape, a_tape, lr)
        gh, go = oracles.actor_fd_grads(actor, critic, s)
        np.testing.assert_allclose(updated.w_hidden - actor.w_hidden, -lr * gh,
                                   rtol=1e-5, atol=1e-10)
        np.testing.assert_allclose(updated.w_out - actor.w_out, -lr * go,
                                   rtol=1e-5, atol=1e-10)


def test_updates_with_zero_learning_rate_are_identity():
    rng = np.random.default_rng(19)
    critic = init_critic(rng)
    actor = init_actor(rng)
    s = np.array([0.4, -0.6])
    a_tape = actor_eval(actor, s)
    c_tape = critic_eval(critic, s, a_tape.output)
    td = td_error(c_tape.value, 1.3, 0.7, 0.95)
    assert td != 0.0 and c_tape.value != 0.0
    updated_c = critic_update(critic, td, c_tape, lr=0.0, discount=0.95)
    updated_a = actor_update(actor, critic, c_tape, a_tape, lr=0.0)
    assert np.array_equal(updated_c.w_hidden, critic.w_hidden)
    assert np.array_equal(updated_c.w_out, critic.w_out)
    assert np.array_equal(updated_a.w_hidden, actor.w_hidden)
    assert np.array_equal(updated_a.w_out, actor.w_out)


def test_saturated_action_channel_gates_its_gradient():
    # one output channel driven deep into saturation: its derivative factor
    # (1 - u^2)/2 vanishes, so that row of the output-weight update is ~0
    rng = np.random.default_rng(20)
    actor = init_actor(rng)
    w_out = actor.w_out.copy()
    w_out[0, :] = 400.0  # saturate channel 0 for any nonzero hidden output
    actor = ActorNet(w_hidden=actor.w_hidden, w_out=w_out)
    critic = init_critic(rng)
    s = np.array([0.5, 0.3])
    a_tape = actor_eval(actor, s)
    assert abs(a_tape.output[0]) > 1.0 - 1e-12
    c_tape = critic_eval(critic, s, a_tape.output)
    updated = actor_update(actor, critic, c_tape, a_tape, lr=1.0)
    saturated_delta = np.max(np.abs(updated.w_out[0] - actor.w_out[0]))
    live_delta = np.max(np.abs(updated.w_out[1:] - actor.w_out[1:]))
    assert saturated_delta < 1e-10
    assert live_delta > 1e-6


def test_update_overflow_raises_numeric_fault():
    net = CriticNet(w_hidden=np.full((2, 5), 1e308), w_out=np.full(2, 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        tape = critic_eval(net, [1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(NumericFaultError):
            critic_update(net, td=1e308, tape=tape, lr=10.0, discount=0.95)


# ---------------------------------------------------------------------------
# batched nets


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 6),
       weight_scale=st.floats(0.05, 4.0),
       critic_hidden=st.integers(1, 10), actor_hidden=st.integers(1, 10),
       critic_lr=st.floats(1e-4, 1e3), actor_lr=st.floats(1e-4, 1e4),
       idle_phase=st.sampled_from([None, 0, 1, 2, 3]))
def test_stacked_rules_equal_single_net_calls(seed, trials, weight_scale, critic_hidden,
                                              actor_hidden, critic_lr, actor_lr, idle_phase):
    # every rule on an (n, 4, ...) stack of n trials' four phases, and on a
    # fancy-indexed subset of its trials, must give, bit for bit, what the
    # single-net calls give; an all-zero net exercises the +inf ceilings
    rng = np.random.default_rng(seed)
    critics = [[init_critic(rng, critic_hidden, weight_scale) for _ in range(4)]
               for _ in range(trials)]
    actors = [[init_actor(rng, actor_hidden, weight_scale) for _ in range(4)]
              for _ in range(trials)]
    if idle_phase is not None:
        critics[0][idle_phase] = CriticNet(np.zeros((critic_hidden, 5)), np.zeros(critic_hidden))
        actors[0][idle_phase] = ActorNet(np.zeros((actor_hidden, 2)), np.zeros((3, actor_hidden)))
    states = rng.uniform(-1.0, 1.0, size=(trials, 4, 2))
    q_prev, cost_prev = rng.normal(size=(trials, 4)), rng.uniform(0.0, 2.0, size=(trials, 4))
    subset = np.flatnonzero(rng.random(trials) < 0.5)
    cost_params = StageCostParams.default()
    monitor = MonitorParams.for_discount(0.95)

    def rules(critic, actor, state, q, c):
        a_tape = actor_eval(actor, state)
        cost = stage_cost(state, a_tape.output, cost_params)
        c_tape = critic_eval(critic, state, a_tape.output)
        report = stability_monitor(critic, actor, c_tape, a_tape, monitor, critic_lr, actor_lr)
        td = td_error(c_tape.value, q, c, 0.95)
        new_critic = critic_update(critic, td, c_tape, critic_lr, 0.95)
        new_tape = critic_eval(new_critic, state, a_tape.output)
        new_actor = actor_update(actor, new_critic, new_tape, a_tape, actor_lr)
        return {
            "ok": report.ok, "actor_state": a_tape.state, "actor_phi": a_tape.phi, "action": a_tape.output,
            "cost": cost, "z": c_tape.z, "critic_phi": c_tape.phi, "value": c_tape.value,
            "critic_bound": report.critic_bound, "actor_bound": report.actor_bound,
            "critic_ok": report.critic_ok, "actor_ok": report.actor_ok,
            "dq_du": critic_action_gradient(critic, c_tape), "td": td,
            "critic_hidden": new_critic.w_hidden, "critic_out": new_critic.w_out,
            "actor_hidden": new_actor.w_hidden, "actor_out": new_actor.w_out,
        }

    singles = [[rules(critics[i][p], actors[i][p], states[i, p], q_prev[i, p], cost_prev[i, p])
                for p in range(4)] for i in range(trials)]

    def check(critic, actor, state, q, c, expected):
        batched = rules(critic, actor, state, q, c)
        ok = batched.pop("ok")
        for key, value in batched.items():
            stacked = np.array([np.asarray(single[key]) for single in expected])
            assert np.array_equal(value, stacked.reshape(value.shape)), key
        assert ok is all(single["ok"] for single in expected)
        return batched

    critic = stack_nets([stack_nets(row) for row in critics])
    actor = stack_nets([stack_nets(row) for row in actors])
    for idx in (np.arange(trials), subset):
        batched = check(type(critic)(critic.w_hidden[idx], critic.w_out[idx]),
                        type(actor)(actor.w_hidden[idx], actor.w_out[idx]),
                        states[idx], q_prev[idx], cost_prev[idx],
                        [single for i in idx.tolist() for single in singles[i]])
        if idle_phase is not None and 0 in idx:
            assert batched["critic_bound"][0, idle_phase] == math.inf
    # one leading axis: the first trial's four phases
    check(stack_nets(critics[0]), stack_nets(actors[0]), states[0], q_prev[0], cost_prev[0],
          singles[0])
    for net, single in zip(unstack_net(stack_nets(actors[0])), actors[0]):
        assert np.array_equal(net.w_hidden, single.w_hidden)
        assert np.array_equal(net.w_out, single.w_out)


def test_batched_nets_reject_mismatched_shapes():
    with pytest.raises(ValueError):
        CriticNet(w_hidden=np.zeros((4, 8, 5)), w_out=np.zeros((3, 8)))
    with pytest.raises(ValueError):
        ActorNet(w_hidden=np.zeros((4, 6, 2)), w_out=np.zeros((3, 6)))


# ---------------------------------------------------------------------------
# constrained outputs and scaling


def test_actor_output_strictly_constrained_fuzz():
    rng = np.random.default_rng(10)
    scale = ActionScale.default()
    for _ in range(10_000):
        hidden = int(rng.integers(1, 12))
        actor = ActorNet(
            w_hidden=rng.uniform(-20, 20, size=(hidden, 2)),
            w_out=rng.uniform(-20, 20, size=(3, hidden)),
        )
        s = rng.uniform(-2, 2, 2)
        u = actor_forward(actor, s)
        assert np.all(np.abs(u) < 1.0)
        half_ranges = scale.half_ranges[int(rng.integers(0, 4))]
        delta = scale_action(u, half_ranges)
        assert np.all(np.abs(delta) < half_ranges)


def test_scale_action_reference_values():
    assert np.allclose(scale_action([0.0, 0.0, 0.0], [5.0, 0.5, 0.05]), 0.0)
    np.testing.assert_allclose(
        scale_action([0.5, -0.2, 0.1], [5.0, 0.5, 0.05]), [2.5, -0.1, 0.005]
    )
    near_one = 1.0 - 1e-12
    assert scale_action([near_one, 0.0, 0.0], [5.0, 0.5, 0.05])[0] < 5.0


# ---------------------------------------------------------------------------
# stability monitor


def test_monitor_matches_loop_oracle():
    rng = np.random.default_rng(13)
    params = MonitorParams.for_discount(0.95)
    for _ in range(50):
        critic = init_critic(rng)
        actor = init_actor(rng)
        s = rng.uniform(-0.2, 0.2, 2)
        a_tape = actor_eval(actor, s)
        c_tape = critic_eval(critic, s, a_tape.output)
        report = stability_monitor(critic, actor, c_tape, a_tape, params, 0.1, 0.1)
        want_c, want_a = oracles.loop_monitor_bounds(critic, actor, c_tape, a_tape, params)
        assert report.critic_bound == pytest.approx(want_c, abs=1e-10, rel=1e-10)
        assert report.actor_bound == pytest.approx(want_a, abs=1e-10, rel=1e-10)


def test_tapes_carry_their_activation_derivatives():
    # the monitor and both update rules read these instead of recomputing them
    rng = np.random.default_rng(12)
    actor = stack_nets([init_actor(rng, scale=3.0) for _ in range(4)])
    critic = stack_nets([init_critic(rng, scale=3.0) for _ in range(4)])
    a_tape = actor_eval(actor, rng.uniform(-2.0, 2.0, (4, 2)))
    c_tape = critic_eval(critic, a_tape.state, a_tape.output)
    for gate, values in ((c_tape.gate, c_tape.phi), (a_tape.gate_phi, a_tape.phi),
                         (a_tape.gate_out, a_tape.output)):
        assert gate.shape == values.shape
        assert gate.tobytes() == activation_deriv(values).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_monitor_degenerate_zero_weights_passes():
    critic = CriticNet(w_hidden=np.zeros((8, 5)), w_out=np.zeros(8))
    actor = ActorNet(w_hidden=np.zeros((6, 2)), w_out=np.zeros((3, 6)))
    params = MonitorParams.for_discount(0.95)
    a_tape = actor_eval(actor, [0.0, 0.0])
    c_tape = critic_eval(critic, [0.0, 0.0], a_tape.output)
    report = stability_monitor(critic, actor, c_tape, a_tape, params, 1e9, 1e9)
    assert report.critic_bound == math.inf
    assert report.actor_bound == math.inf
    assert report.ok


def test_monitor_flags_rate_above_bound():
    rng = np.random.default_rng(14)
    critic = init_critic(rng)
    actor = init_actor(rng)
    params = MonitorParams.for_discount(0.95)
    a_tape = actor_eval(actor, [0.1, 0.1])
    c_tape = critic_eval(critic, [0.1, 0.1], a_tape.output)
    probe = stability_monitor(critic, actor, c_tape, a_tape, params, 0.0, 0.0)
    report = stability_monitor(critic, actor, c_tape, a_tape, params,
                               critic_lr=probe.critic_bound * 2,
                               actor_lr=probe.actor_bound * 2)
    assert not report.critic_ok and not report.actor_ok and not report.ok


def test_monitor_params_reject_bad_alphas():
    with pytest.raises(ValueError):
        MonitorParams(alpha1=0.5, alpha2=6.0, alpha3=12.0, discount=0.95)
    with pytest.raises(ValueError):
        MonitorParams(alpha1=2.0, alpha2=3.0, alpha3=12.0, discount=0.95)
    with pytest.raises(ValueError):
        MonitorParams(alpha1=2.0, alpha2=6.0, alpha3=5.0, discount=0.95)


# ---------------------------------------------------------------------------
# policy snapshots


def test_policy_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(15)
    actors = [init_actor(rng) for _ in range(4)]
    critics = [init_critic(rng) for _ in range(4)]
    path = tmp_path / "policy.json"
    save_policy(path, actors, critics)
    loaded_actors, loaded_critics = load_policy(path)
    for a, b in zip(actors, loaded_actors):
        assert np.array_equal(a.w_hidden, b.w_hidden)
        assert np.array_equal(a.w_out, b.w_out)
    for a, b in zip(critics, loaded_critics):
        assert np.array_equal(a.w_hidden, b.w_hidden)
        assert np.array_equal(a.w_out, b.w_out)
    # save -> load -> save is byte-identical
    path2 = tmp_path / "policy2.json"
    save_policy(path2, loaded_actors, loaded_critics)
    assert path.read_bytes() == path2.read_bytes()


def test_policy_actor_only(tmp_path):
    rng = np.random.default_rng(16)
    actors = [init_actor(rng) for _ in range(4)]
    path = tmp_path / "policy.json"
    save_policy(path, actors)
    loaded_actors, loaded_critics = load_policy(path)
    assert loaded_critics is None
    assert len(loaded_actors) == 4


def test_policy_with_critics_in_some_phases_only_is_refused(tmp_path):
    # such a snapshot loaded as actor-only: a load_critic run took fresh
    # critics, and saving it again dropped the critics it held
    from kneetrack.dhdp import PolicyFormatError

    rng = np.random.default_rng(18)
    path = tmp_path / "policy.json"
    save_policy(path, [init_actor(rng) for _ in range(4)], [init_critic(rng) for _ in range(4)])
    valid = json.loads(path.read_text())
    some = copy.deepcopy(valid)
    for entry in some["phases"][2:]:
        del entry["critic_hidden"], entry["critic_output"]
    # a lone critic matrix is a critic too, a malformed one
    lone = copy.deepcopy(some)
    lone["phases"][2]["critic_output"] = valid["phases"][2]["critic_output"]
    extra = copy.deepcopy(some)
    extra["phases"][:2] = [{k: v for k, v in entry.items() if not k.startswith("critic")}
                           for entry in extra["phases"][:2]]
    extra["phases"][3] = valid["phases"][3]
    for doc, message in ((some, r"phases\[2\]: lacks critic weights, unlike phases\[0\]"),
                         (lone, "malformed critic weights: 'critic_hidden'"),
                         (extra, r"phases\[3\]: has critic weights, unlike phases\[0\]")):
        path.write_text(json.dumps(doc))
        with pytest.raises(PolicyFormatError, match=message):
            load_policy(path)


def test_policy_shape_mismatch_diagnostic(tmp_path):
    from kneetrack.dhdp import PolicyFormatError

    rng = np.random.default_rng(17)
    actors = [init_actor(rng, hidden=4) for _ in range(4)]
    critics = [init_critic(rng) for _ in range(4)]
    path = tmp_path / "policy.json"
    save_policy(path, actors)
    with pytest.raises(PolicyFormatError, match="expected 6, found 4"):
        load_policy(path, expect_actor_hidden=6)

    # every malformed snapshot is a PolicyFormatError, never a bare
    # KeyError/ValueError/AttributeError, and non-finite weights are refused
    save_policy(path, actors, critics)
    valid = json.loads(path.read_text())

    def drop_output(doc):
        del doc["phases"][1]["actor_output"]

    def transpose_output(doc):
        out = doc["phases"][0]["actor_output"]
        out["shape"] = out["shape"][::-1]

    def nan_weight(doc):
        doc["phases"][2]["critic_hidden"]["data"][3] = math.nan

    def inf_weight(doc):
        doc["phases"][3]["actor_hidden"]["data"][0] = math.inf

    def batched_actor(doc):
        for key in ("actor_hidden", "actor_output"):
            doc["phases"][0][key]["shape"].insert(0, 1)

    cases = [
        (drop_output, "actor weights"),
        (transpose_output, "must be \\(3, hidden\\)"),
        (nan_weight, "critic_hidden: weights must be finite"),
        (inf_weight, "actor_hidden: weights must be finite"),
        (batched_actor, "one net's matrix"),
    ]
    for edit, message in cases:
        doc = copy.deepcopy(valid)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(PolicyFormatError, match=message):
            load_policy(path)
    path.write_text(json.dumps([valid]))
    with pytest.raises(PolicyFormatError, match="not a policy snapshot"):
        load_policy(path)
