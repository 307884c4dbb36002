"""Online actor-critic learning block, one per gait phase.

The critic approximates the discounted cost-to-go of a (state, action)
pair with a single hidden layer and a linear output.  The actor maps the
tracking error to a bounded adjustment command through two saturating
layers, so its output always stays strictly inside (-1, 1) per component.
Both are trained once per gait cycle by plain gradient descent: the critic
on the squared temporal-difference error, the actor on the squared critic
value, chained through the critic's action inputs.

Every rule takes nets with any leading batch shape, one net per batch
entry; a single net is the empty batch.

The activation is the bipolar sigmoid (1 - e^-x) / (1 + e^-x), identically
tanh(x / 2).  Its derivative is (1 - value^2) / 2, which is the factor the
update rules and the stability monitor rely on; the forward passes compute
it once and keep it on their tapes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_STATE = 2
N_ACTION = 3
DEFAULT_CRITIC_HIDDEN = 8
DEFAULT_ACTOR_HIDDEN = 6
DEFAULT_INIT_SCALE = 0.5


class NumericFaultError(RuntimeError):
    """A weight update produced a non-finite value; the trial must abort."""


class PolicyFormatError(ValueError):
    """A policy snapshot file is malformed or has unexpected shapes."""


# Largest double below 1: saturated activations are nudged into the open
# interval so constrained outputs stay strictly inside (-1, 1) even when
# tanh rounds to exactly +-1.
_OPEN_ONE = float(np.nextafter(1.0, 0.0))


def activation(x):
    """Bipolar sigmoid (1 - e^-x) / (1 + e^-x), elementwise; range (-1, 1)."""
    # ndarray.clip is the clip ufunc without np.clip's dispatch; the bounds
    # are nonzero, so NaN and signed zeros come out as min(max(...)) gives them
    return np.tanh(0.5 * np.asarray(x, dtype=float)).clip(-_OPEN_ONE, _OPEN_ONE)


def activation_deriv(value):
    """Derivative of :func:`activation` expressed through its output value."""
    return 0.5 * (1.0 - np.asarray(value, dtype=float) ** 2)


@dataclass(frozen=True)
class CriticNet:
    """Hidden weights (..., hidden, 5) and linear output weights (..., hidden)."""

    w_hidden: np.ndarray
    w_out: np.ndarray

    def __post_init__(self):
        if self.w_hidden.ndim < 2 or self.w_hidden.shape[-1] != N_STATE + N_ACTION:
            raise ValueError(f"critic hidden weights must be (h, 5), got {self.w_hidden.shape}")
        if self.w_out.shape != self.w_hidden.shape[:-1]:
            raise ValueError("critic output weights must match hidden size")

    @property
    def hidden_size(self) -> int:
        return self.w_hidden.shape[-2]


@dataclass(frozen=True)
class ActorNet:
    """Hidden weights (..., hidden, 2) and saturating output weights (..., 3, hidden)."""

    w_hidden: np.ndarray
    w_out: np.ndarray

    def __post_init__(self):
        if self.w_hidden.ndim < 2 or self.w_hidden.shape[-1] != N_STATE:
            raise ValueError(f"actor hidden weights must be (h, 2), got {self.w_hidden.shape}")
        if self.w_out.shape != self.w_hidden.shape[:-2] + (N_ACTION, self.hidden_size):
            raise ValueError("actor output weights must be (3, hidden)")

    @property
    def hidden_size(self) -> int:
        return self.w_hidden.shape[-2]


def stack_nets(nets):
    """One batched net whose leading axis runs over same-shaped single ``nets``."""
    return type(nets[0])(w_hidden=np.stack([n.w_hidden for n in nets]),
                         w_out=np.stack([n.w_out for n in nets]))


def unstack_net(net) -> list:
    """The nets along a batched net's leading axis, as views of its weights."""
    return [type(net)(w_hidden=h, w_out=o) for h, o in zip(net.w_hidden, net.w_out)]


def init_critic(rng: np.random.Generator, hidden: int = DEFAULT_CRITIC_HIDDEN,
                scale: float = DEFAULT_INIT_SCALE) -> CriticNet:
    return CriticNet(
        w_hidden=rng.uniform(-scale, scale, size=(hidden, N_STATE + N_ACTION)),
        w_out=rng.uniform(-scale, scale, size=hidden),
    )


def init_actor(rng: np.random.Generator, hidden: int = DEFAULT_ACTOR_HIDDEN,
               scale: float = DEFAULT_INIT_SCALE) -> ActorNet:
    return ActorNet(
        w_hidden=rng.uniform(-scale, scale, size=(hidden, N_STATE)),
        w_out=rng.uniform(-scale, scale, size=(N_ACTION, hidden)),
    )


@dataclass(frozen=True)
class CriticTape:
    """Forward-pass intermediates needed by the update rules and the monitor."""

    z: np.ndarray      # network input [state; action], shape (..., 5)
    phi: np.ndarray    # hidden activations, shape (..., hidden)
    gate: np.ndarray   # activation_deriv(phi)
    value: np.ndarray  # shape (...)


@dataclass(frozen=True)
class ActorTape:
    state: np.ndarray     # shape (..., 2)
    phi: np.ndarray       # hidden activations, shape (..., hidden)
    gate_phi: np.ndarray  # activation_deriv(phi)
    output: np.ndarray    # constrained action, shape (..., 3)
    gate_out: np.ndarray  # activation_deriv(output)


# Contractions over the last axis go through numpy's gufuncs np.vecdot,
# np.matvec and np.vecmat: their inner loop runs once per net on its core
# shapes, so batched results equal single-net ones bit for bit (einsum or
# .sum(-1) would reorder the sums).


def critic_eval(net: CriticNet, state, action) -> CriticTape:
    z = np.concatenate([np.asarray(state, float), np.asarray(action, float)], axis=-1)
    phi = activation(np.matvec(net.w_hidden, z))
    return CriticTape(z=z, phi=phi, gate=activation_deriv(phi), value=np.vecdot(net.w_out, phi))


def critic_forward(net: CriticNet, state, action):
    """Approximate cost-to-go of taking ``action`` in ``state``."""
    return critic_eval(net, state, action).value


def actor_eval(net: ActorNet, state) -> ActorTape:
    s = np.asarray(state, dtype=float)
    phi = activation(np.matvec(net.w_hidden, s))
    output = activation(np.matvec(net.w_out, phi))
    return ActorTape(state=s, phi=phi, gate_phi=activation_deriv(phi), output=output,
                     gate_out=activation_deriv(output))


def actor_forward(net: ActorNet, state) -> np.ndarray:
    """Constrained action for ``state``; every component lies in (-1, 1)."""
    return actor_eval(net, state).output


def td_error(value_now, value_prev, cost_prev, discount: float):
    """Temporal-difference error of the critic.

    Zero exactly when the previous estimate satisfies the one-step
    recursion value_prev = cost_prev + discount * value_now.
    """
    return discount * value_now - (value_prev - cost_prev)


@dataclass(frozen=True)
class StageCostParams:
    """Quadratic penalty weights on tracking error and control effort."""

    state_weight: np.ndarray   # (2, 2), positive definite
    action_weight: np.ndarray  # (3, 3), positive definite

    def __post_init__(self):
        for name, mat, dim in (
            ("state_weight", self.state_weight, N_STATE),
            ("action_weight", self.action_weight, N_ACTION),
        ):
            if mat.shape != (dim, dim):
                raise ValueError(f"{name}: must be {dim}x{dim}")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name}: must be finite")
            if not np.allclose(mat, mat.T):
                raise ValueError(f"{name}: must be symmetric")
            if np.min(np.linalg.eigvalsh(mat)) <= 0.0:
                raise ValueError(f"{name}: must be positive definite")

    @classmethod
    def default(cls) -> "StageCostParams":
        return cls(state_weight=np.diag([1.0, 1.0]),
                   action_weight=np.diag([0.1, 0.1, 0.1]))


def stage_cost(state, action, params: StageCostParams):
    """Instantaneous quadratic cost; non-negative, zero only at the origin."""
    s = np.asarray(state, dtype=float)
    u = np.asarray(action, dtype=float)
    return (np.vecdot(np.vecmat(s, params.state_weight), s)
            + np.vecdot(np.vecmat(u, params.action_weight), u))


def _check_finite(*arrays):
    for a in arrays:
        # count_nonzero is a plain C call; ndarray.all goes through Python
        if np.count_nonzero(np.isfinite(a)) < a.size:
            raise NumericFaultError("weight update overflowed to a non-finite value")


def critic_update(net: CriticNet, td, tape: CriticTape,
                  lr: float, discount: float) -> CriticNet:
    """One gradient step on half the squared TD error.

    The lagged value and cost inside the TD error are treated as constants,
    so the gradient flows only through the current critic output.  The
    hidden-layer delta uses the pre-update output weights.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        grad_scale = np.asarray(lr * discount * td)[..., None, None]
        w_out = net.w_out - grad_scale[..., 0] * tape.phi
        w_hidden = (net.w_hidden
                    - grad_scale * (net.w_out * tape.gate)[..., None] * tape.z[..., None, :])
    _check_finite(w_out, w_hidden)
    return CriticNet(w_hidden=w_hidden, w_out=w_out)


def critic_action_gradient(net: CriticNet, tape: CriticTape) -> np.ndarray:
    """d(critic value)/d(action): the chain through the action input columns."""
    return np.vecmat(net.w_out * tape.gate, net.w_hidden[..., N_STATE:])


def actor_update(actor: ActorNet, critic: CriticNet, critic_tape: CriticTape,
                 actor_tape: ActorTape, lr: float) -> ActorNet:
    """One gradient step on half the squared critic value.

    The error signal is the critic value itself; it is backpropagated
    through the critic's action inputs and through both actor saturations.
    A saturated action component contributes nothing, because its
    derivative factor (1 - u^2) / 2 vanishes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.asarray(critic_tape.value)[..., None, None]
        dq_du = critic_action_gradient(critic, critic_tape)      # (..., 3)
        out_signal = dq_du * actor_tape.gate_out                 # (..., 3)
        grad_out = value * out_signal[..., :, None] * actor_tape.phi[..., None, :]
        back = np.vecmat(out_signal, actor.w_out)                 # (..., hidden)
        grad_hidden = (
            value * (back * actor_tape.gate_phi)[..., :, None]
            * actor_tape.state[..., None, :]
        )
        w_out = actor.w_out - lr * grad_out
        w_hidden = actor.w_hidden - lr * grad_hidden
    _check_finite(w_out, w_hidden)
    return ActorNet(w_hidden=w_hidden, w_out=w_out)


@dataclass(frozen=True)
class MonitorParams:
    """Weighting factors of the learning-rate stability conditions.

    The conditions require alpha1 > discount, alpha2 > 4 / discount^2 and
    alpha3 > alpha2; violating them would make the bounds meaningless.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    discount: float

    def __post_init__(self):
        if not self.alpha1 > self.discount > 0.0:
            raise ValueError("alpha1: must exceed the discount factor")
        if not self.alpha2 > 4.0 / self.discount**2:
            raise ValueError("alpha2: must exceed 4 / discount^2")
        if not self.alpha3 > self.alpha2:
            raise ValueError("alpha3: must exceed alpha2")
        for name in ("alpha1", "alpha2", "alpha3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite, got {getattr(self, name)}")

    @classmethod
    def for_discount(cls, discount: float) -> "MonitorParams":
        # Smallest simple choices satisfying all three inequalities.
        alpha2 = 4.0 / discount**2 + 1.0
        return cls(alpha1=2.0 * discount, alpha2=alpha2, alpha3=2.0 * alpha2,
                   discount=discount)


@dataclass(frozen=True)
class MonitorReport:
    """Per-net learning-rate ceilings and flags; ``ok`` when every net keeps both."""

    critic_bound: np.ndarray
    actor_bound: np.ndarray
    critic_ok: np.ndarray
    actor_ok: np.ndarray

    @property
    def ok(self) -> bool:
        return bool(np.all(self.critic_ok & self.actor_ok))


def _ceiling(numerator: float, denom):
    """``numerator / denom`` where ``denom`` > 0, else +inf (no constraint)."""
    return np.where(denom > 0.0, numerator / denom, math.inf)


def stability_monitor(critic: CriticNet, actor: ActorNet, critic_tape: CriticTape,
                      actor_tape: ActorTape, params: MonitorParams,
                      critic_lr: float, actor_lr: float) -> MonitorReport:
    """Evaluate the learning-rate ceilings that keep weight errors bounded.

    Degenerate denominators (all activations zero) mean the current step
    puts no constraint on the rates; the bound is reported as +inf and the
    check passes.
    """
    # diverging weights overflow here before the update rules catch them,
    # and _ceiling divides by zero denominators before it discards them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = params.discount
        phi_c = critic_tape.phi
        phi_a = actor_tape.phi

        gate_c = critic_tape.gate
        a_vec = gate_c * critic.w_out
        denom_c = g * g * params.alpha1 * (
            np.vecdot(phi_c, phi_c)
            + np.vecdot(a_vec, a_vec) * np.vecdot(critic_tape.z, critic_tape.z) / params.alpha1
        )
        critic_bound = _ceiling(params.alpha1 - g, denom_c)

        c_mat = (
            gate_c[..., :, None]
            * critic.w_hidden[..., N_STATE:]
            * actor_tape.gate_out[..., None, :]
        )
        wc = np.vecmat(critic.w_out, c_mat)                         # (..., 3)
        d_mat = actor.w_out * actor_tape.gate_phi[..., None, :]     # (..., 3, hidden)
        wcd = np.vecmat(wc, d_mat)                                  # (..., hidden)
        s = actor_tape.state
        denom_a = (params.alpha3 * np.vecdot(wc, wc) * np.vecdot(phi_a, phi_a)
                   + params.alpha2 * np.vecdot(wcd, wcd) * np.vecdot(s, s))
        actor_bound = _ceiling(params.alpha3 - params.alpha2, denom_a)

    return MonitorReport(
        critic_bound=critic_bound,
        actor_bound=actor_bound,
        critic_ok=critic_lr < critic_bound,
        actor_ok=actor_lr < actor_bound,
    )


@dataclass(frozen=True)
class ActionScale:
    """Physical half-ranges mapping the (-1, 1)^3 actor output to deltas.

    Row order follows the phases; columns are (stiffness, damping,
    equilibrium) half-ranges.
    """

    half_ranges: np.ndarray  # (4, 3), strictly positive

    def __post_init__(self):
        if self.half_ranges.shape != (4, N_ACTION):
            raise ValueError("half_ranges: must be a 4x3 table")
        for rule, legal in (("must be strictly positive", self.half_ranges > 0.0),
                            ("must be finite", np.isfinite(self.half_ranges))):
            if not legal.all():
                i, j = np.argwhere(~legal)[0]
                raise ValueError(f"half_ranges[{i}][{j}]: {rule}")

    @classmethod
    def default(cls) -> "ActionScale":
        return cls(np.tile(np.array([10.0, 1.0, 0.12]), (4, 1)))


def scale_action(action, half_ranges) -> np.ndarray:
    """Map a normalized action to physical deltas, componentwise."""
    u = np.asarray(action, dtype=float)
    return u * np.asarray(half_ranges, dtype=float)


# ---------------------------------------------------------------------------
# Policy snapshots
#
# Snapshots are plain JSON: one entry per phase holding each weight matrix as
# its shape plus row-major values.  Floats are serialized with full repr
# precision, so a save/load round trip is bit-exact.

POLICY_FORMAT = "kneetrack-policy"
POLICY_VERSION = 1


def _matrix_to_json(mat: np.ndarray) -> dict:
    return {"shape": list(mat.shape), "data": [float(v) for v in mat.ravel()]}


def _matrix_from_json(obj, name: str) -> np.ndarray:
    try:
        shape, data = obj["shape"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise PolicyFormatError(f"{name}: malformed matrix entry") from exc
    # JSON numbers only: float() would take true as 1.0 and "0.5" as 0.5,
    # int() a shape entry 6.7 as 6
    if not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape):
        raise PolicyFormatError(f"{name}: shape must be a list of non-negative integers")
    if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
        raise PolicyFormatError(f"{name}: data must be a list of numbers")
    shape = tuple(shape)
    data = np.array(data, dtype=float)
    if data.size != math.prod(shape):
        raise PolicyFormatError(
            f"{name}: {data.size} values do not fill shape {list(shape)}"
        )
    if not np.all(np.isfinite(data)):
        raise PolicyFormatError(f"{name}: weights must be finite")
    return data.reshape(shape)


def _net_from_json(cls, entry, kind: str, path, expect_hidden):
    """One phase's ``kind`` network from its hidden and output matrices."""
    try:
        w_hidden = _matrix_from_json(entry[f"{kind}_hidden"], f"{kind}_hidden")
        w_out = _matrix_from_json(entry[f"{kind}_output"], f"{kind}_output")
        if w_hidden.ndim != 2:
            raise ValueError(f"hidden weights must be one net's matrix, got {w_hidden.shape}")
        net = cls(w_hidden=w_hidden, w_out=w_out.ravel() if cls is CriticNet else w_out)
    except (KeyError, TypeError, ValueError) as exc:
        raise PolicyFormatError(f"{path}: malformed {kind} weights: {exc}") from exc
    if expect_hidden is not None and net.hidden_size != expect_hidden:
        raise PolicyFormatError(
            f"{kind} hidden size mismatch: expected {expect_hidden}, found {net.hidden_size}"
        )
    return net


def save_policy(path, actors, critics=None) -> None:
    """Write per-phase actor (and optionally critic) weights to ``path``."""
    phases = []
    for idx, actor in enumerate(actors):
        entry = {
            "phase": idx + 1,
            "actor_hidden": _matrix_to_json(actor.w_hidden),
            "actor_output": _matrix_to_json(actor.w_out),
        }
        if critics is not None:
            critic = critics[idx]
            entry["critic_hidden"] = _matrix_to_json(critic.w_hidden)
            entry["critic_output"] = _matrix_to_json(critic.w_out)
        phases.append(entry)
    doc = {"format": POLICY_FORMAT, "version": POLICY_VERSION, "phases": phases}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_policy(path, expect_actor_hidden=None, expect_critic_hidden=None):
    """Read a snapshot back into (actors, critics-or-None).

    A snapshot of another ``POLICY_VERSION``, whose entry i is not phase
    i + 1, or with critic weights in some phases only raises
    :class:`PolicyFormatError`, and so does one that does not match the
    expected hidden sizes given, naming both dimensions.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PolicyFormatError(f"cannot read policy snapshot {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != POLICY_FORMAT:
        raise PolicyFormatError(f"{path}: not a policy snapshot")
    # a boolean true equals 1 but is no version number
    version = doc.get("version")
    if type(version) is not int or version != POLICY_VERSION:
        raise PolicyFormatError(f"{path}: version: expected {POLICY_VERSION}, got {version!r}")
    phases = doc.get("phases")
    if not isinstance(phases, list) or len(phases) != 4:
        raise PolicyFormatError(f"{path}: snapshot must hold four phases")

    actors, critics = [], []
    for i, entry in enumerate(phases):
        # entry i drives phase i + 1: a reordered snapshot would run the wrong actor
        phase = entry.get("phase") if isinstance(entry, dict) else None
        if type(phase) is not int or phase != i + 1:
            raise PolicyFormatError(f"{path}: phases[{i}].phase: expected {i + 1}, "
                                    f"got {phase!r}")
        actors.append(_net_from_json(ActorNet, entry, "actor", path, expect_actor_hidden))
        # critics for every phase or for none, as phases[0] says: never some
        has_critic = "critic_hidden" in entry or "critic_output" in entry
        if i and has_critic != bool(critics):
            raise PolicyFormatError(f"{path}: phases[{i}]: {'has' if has_critic else 'lacks'} "
                                    f"critic weights, unlike phases[0]")
        if has_critic:
            critics.append(
                _net_from_json(CriticNet, entry, "critic", path, expect_critic_hidden))
    return actors, critics or None
