"""Run configuration: the trial's schema, and JSON files checked against it.

The schema is a default :class:`TrialConfig`, its learning blocks' part a
:class:`DhdpConfig`, and :data:`RUN_MINIMA` bounds a batch's settings.  A
config file is a plain JSON object mirroring :func:`default_config`, and
one table maps each key to the field it sets: the tree, the shape of every
numeric list, the types of the built config and the key each refusal names
all come from the two.  An unknown key is rejected, naming its full dotted
path.  Command-line flags override file values, which override defaults.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from .core import BoundsTable
from .dhdp import DEFAULT_ACTOR_HIDDEN, DEFAULT_CRITIC_HIDDEN, DEFAULT_INIT_SCALE
from .dhdp import ActionScale, MonitorParams, StageCostParams
from .fsm import ParameterRanges
from .plant import MIN_PACE, FeatureMapConfig, OdeKneeConfig


class ConfigError(ValueError):
    """A config file or run setting could not be read, parsed, or validated."""


SCENARIO_LEVEL_GROUND = 1
SCENARIO_TERRAIN = 2
SCENARIO_PACE = 3

# The networks see states inside [-1, 1] while a trial is safe, so initial
# weights far above 1 start every unit saturated; the ceiling only keeps the
# draw's width, twice the scale, finite with room to spare.
MAX_INIT_WEIGHT_SCALE = 1e6
# Each cycle scales the drift by 1 - smoothing * (1 - gain): above gain 1
# the intact side would adapt past the prosthesis, and the target runs away.
MAX_DRIFT_GAIN = 1.0
# A pool member is checked against every member before it, so building a pool
# takes the square of its size: 1000 members took 0.05 s, 3000 took 0.29 s.
MAX_POOL_SIZE = 1000
# The least value of each run setting, by its config key: a batch runs at
# least one trial, and a seed or a count of kept policies may be 0.
RUN_MINIMA = {"trials": 1, "trials_per_policy": 1, "seed": 0, "keep_policies": 0}
# the keys of a run that are no part of a trial, with their defaults
RUN_DEFAULTS = {"seed": 0, "out_dir": "runs/out", "trials": 30, "keep_policies": 10,
                "trials_per_policy": 30, "policy_dir": None}


def check_run_values(**values) -> None:
    """Refuse a run setting below its :data:`RUN_MINIMA` entry, naming its key."""
    for key, value in values.items():
        if value < RUN_MINIMA[key]:
            raise ConfigError(f"{key}: must be at least {RUN_MINIMA[key]}, got {value}")


@dataclass(frozen=True)
class DhdpConfig:
    """Hyperparameters shared by the four per-phase learning blocks.

    The networks see the tracking error normalized by the per-phase
    safety bounds (duration error as a fraction of the safety percentage,
    angle error as a fraction of the safety angle), so both state
    components live in [-1, 1] whenever the trial is safe.  Gradient
    magnitudes scale with the squared signal size, which is what makes
    learning rates of this order effective; the per-cycle stability
    monitor reports the matching ceilings.
    """

    critic_hidden: int = DEFAULT_CRITIC_HIDDEN
    actor_hidden: int = DEFAULT_ACTOR_HIDDEN
    discount: float = 0.95
    critic_lr: float = 0.1
    actor_lr: float = 30.0
    init_weight_scale: float = DEFAULT_INIT_SCALE
    cost: StageCostParams = field(default_factory=StageCostParams.default)
    action_scale: ActionScale = field(default_factory=ActionScale.default)
    monitor: MonitorParams | None = None

    def __post_init__(self):
        # each refusal opens with the field it names
        for name in ("critic_hidden", "actor_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be at least 1, got {getattr(self, name)}")
        for name in ("critic_lr", "actor_lr", "init_weight_scale"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)}")
        for name in ("critic_lr", "actor_lr"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite, got {getattr(self, name)}")
        if self.init_weight_scale > MAX_INIT_WEIGHT_SCALE:
            raise ValueError(f"init_weight_scale: must be at most {MAX_INIT_WEIGHT_SCALE:g}, "
                             f"got {self.init_weight_scale}")
        if not 0.0 < self.discount < 1.0:
            raise ValueError(f"discount: must lie in (0, 1), got {self.discount}")
        # a given monitor shares the discount; the default refuses one it has no alphas for
        if self.monitor_params().discount != self.discount:
            raise ValueError(f"monitor: its discount must be the learning discount "
                             f"{self.discount}, got {self.monitor.discount}")

    def monitor_params(self) -> MonitorParams:
        return self.monitor or MonitorParams.for_discount(self.discount)


@dataclass(frozen=True)
class TrialConfig:
    """Everything a single trial needs, independent of batch bookkeeping."""

    scenario: int = SCENARIO_LEVEL_GROUND
    stage: str = "training"
    plant_kind: str = "feature-map"
    max_cycles: int = 500
    window: int = 10
    quota: int = 8
    rms_window: int = 10
    bounds: BoundsTable = field(default_factory=BoundsTable.default)
    ranges: ParameterRanges = field(default_factory=ParameterRanges.default)
    dhdp: DhdpConfig = field(default_factory=DhdpConfig)
    feature_map: FeatureMapConfig = field(default_factory=FeatureMapConfig.default)
    ode: OdeKneeConfig = field(default_factory=OdeKneeConfig)
    init_spread: float = 0.3
    pool_size: int = 5
    pool_spread: float = 0.06
    switch_period: int = 20
    consecutive_tracks: int = 3
    pace_training: tuple[float, ...] = (1.0, 1.12, 1.0, 0.88)
    pace_testing: tuple[float, ...] = (1.0, 0.8, 1.0, 1.2)
    drift_gain: float = 0.0
    drift_smoothing: float = 0.2
    strict_monitor: bool = False
    load_critic: bool = False

    def __post_init__(self):
        # each refusal opens with the field it names
        if self.scenario not in (SCENARIO_LEVEL_GROUND, SCENARIO_TERRAIN, SCENARIO_PACE):
            raise ValueError(f"scenario: must be 1, 2 or 3, got {self.scenario}")
        if self.stage not in ("training", "testing"):
            raise ValueError(f"stage: must be 'training' or 'testing', got {self.stage!r}")
        if self.plant_kind not in ("feature-map", "ode"):
            raise ValueError(f"plant_kind: must be feature-map or ode, got {self.plant_kind!r}")
        if self.window < 1:
            raise ValueError(f"window: must be at least 1, got {self.window}")
        if not 0 < self.quota <= self.window:
            raise ValueError(f"quota: must lie in (0, window], got {self.quota}")
        if self.max_cycles <= self.window:
            raise ValueError(f"max_cycles: must exceed window, got {self.max_cycles}")
        for name in ("rms_window", "pool_size", "switch_period", "consecutive_tracks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be at least 1, got {getattr(self, name)}")
        if self.pool_size > MAX_POOL_SIZE:
            raise ValueError(f"pool_size: must be at most {MAX_POOL_SIZE}, got {self.pool_size}")
        for name in ("pace_training", "pace_testing"):
            if not getattr(self, name):
                raise ValueError(f"{name}: needs at least one pace multiplier")
            for i, pace in enumerate(getattr(self, name)):
                if not pace > 0.0:
                    raise ValueError(f"{name}[{i}]: must be a positive number, got {pace!r}")
                if pace < MIN_PACE:
                    raise ValueError(f"{name}[{i}]: must be at least {MIN_PACE:g}, got {pace!r}")
                if not math.isfinite(pace):
                    raise ValueError(f"{name}[{i}]: must be finite, got {pace!r}")
        if not 0.0 <= self.drift_gain <= MAX_DRIFT_GAIN:
            raise ValueError(f"drift_gain: must lie in [0, {MAX_DRIFT_GAIN:g}], "
                             f"got {self.drift_gain}")
        # the drift low-pass, like the feature map's, takes a fraction per cycle
        if not 0.0 < self.drift_smoothing <= 1.0:
            raise ValueError(f"drift_smoothing: must lie in (0, 1], got {self.drift_smoothing}")
        # impedance draws scale the reference by factors in 1 +- spread,
        # which stay positive, and so keep every drawn impedance legal
        for name in ("init_spread", "pool_spread"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name}: must lie in [0, 1), got {getattr(self, name)}")

    def pace_sequence(self) -> tuple[float, ...]:
        if self.scenario != SCENARIO_PACE:
            return (1.0,)
        return self.pace_training if self.stage == "training" else self.pace_testing


_ALPHAS = ("alpha1", "alpha2", "alpha3")
# The one table from each dotted config key to the dotted path of the TrialConfig
# field it sets, in the tree's order; the alphas are null while the monitor is None.
_FIELDS = {
    **{name: name for name in ("scenario", "stage", "strict_monitor", "load_critic", "max_cycles",
                               "window", "quota", "rms_window", "init_spread", "bounds", "ranges",
                               "feature_map", "ode")},
    "plant": "plant_kind", "terrain.pool_size": "pool_size", "terrain.pool_spread": "pool_spread",
    "terrain.switch_period": "switch_period", "terrain.consecutive_tracks": "consecutive_tracks",
    "pace.training": "pace_training", "pace.testing": "pace_testing", "drift.gain": "drift_gain",
    "drift.smoothing": "drift_smoothing",
    **{f"dhdp.{name}": f"dhdp.{name}" for name in ("critic_hidden", "actor_hidden", "discount",
                                                   "critic_lr", "actor_lr", "init_weight_scale",
                                                   "action_scale")},
    "dhdp.state_cost": "dhdp.cost.state_weight", "dhdp.action_cost": "dhdp.cost.action_weight",
    **{f"dhdp.{name}": f"dhdp.monitor.{name}" for name in _ALPHAS}}
# the numeric lists whose length is up to the user
_ANY_LENGTH = ("pace.training", "pace.testing")


@functools.cache
def _defaults() -> TrialConfig:
    """The default trial configuration, the schema of every tree; read, never handed out."""
    return TrialConfig()


def _plain(value):
    """The JSON form of a default: a dataclass is an object of its fields, or
    its one field's value; one inside a list is the list of its field values."""
    if is_dataclass(value):
        fields = {name: _plain(getattr(value, name)) for name in value.__dataclass_fields__}
        return fields.popitem()[1] if len(fields) == 1 else fields
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [list(_plain(item).values()) if is_dataclass(item) else _plain(item)
                for item in value]
    return value


def _at(value, path: str):
    """The value at the dotted ``path`` of nested dicts or dataclasses; past a None, None."""
    for name in filter(None, path.split(".")):
        value = (value[name] if isinstance(value, dict)
                 else None if value is None else getattr(value, name))
    return value


def _put(tree: dict, path: str, value) -> None:
    """Set ``value`` at the dotted ``path`` of nested dicts, making its sections."""
    *sections, name = path.split(".")
    for section in sections:
        tree = tree.setdefault(section, {})
    tree[name] = value


@functools.cache
def _default_tree() -> dict:
    """The defaults tree, built once; read, never handed out (:func:`_merge` copies)."""
    tree = dict(RUN_DEFAULTS)
    for key, path in _FIELDS.items():
        _put(tree, key, _plain(_at(_defaults(), path)))
    return tree


def default_config() -> dict:
    """Full config tree with library defaults filled in."""
    return copy.deepcopy(_default_tree())


def _merge(template: dict, user: dict, path: str = "", base: dict | None = None) -> dict:
    """``user``'s values, checked against the defaults ``template``, over ``base``'s."""
    base = template if base is None else base
    merged = {}
    for key, default in template.items():
        here = f"{path}.{key}" if path else key
        if key not in user:
            merged[key] = copy.deepcopy(base[key])
        elif not isinstance(default, dict):
            merged[key] = _check_leaf(user[key], default, here)
        elif isinstance(user[key], dict):
            merged[key] = _merge(default, user[key], here, base[key])
        else:
            raise ConfigError(f"{here}: expected an object")
    unknown = [f"{path}.{key}" if path else key for key in user if key not in template]
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]}")
    return merged


def _require_numbers(value, template, path: str) -> None:
    """Refuse anything but numbers in the shape of ``template``, a default.

    A numeric list has its default's length (a pace list any length), and its
    entries share the shape of the default's first: nulls, booleans and
    strings are refused inside lists as they are at a number's own key.
    """
    if isinstance(template, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if len(value) != len(template) and path not in _ANY_LENGTH:
            raise ConfigError(f"{path}: needs {len(template)} entries, got {len(value)}")
        for i, item in enumerate(value):
            _require_numbers(item, template[0], f"{path}[{i}]")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")


def _require_finite(value, path: str) -> None:
    """Refuse a number no double holds, in ``value`` or nested in its lists."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {value}")


# The JSON values a leaf takes, by the type of its default, and their name.
# An integer default is a count, size or seed: 2.5 would be truncated where
# it is used.  A boolean is taken only where the default is one.
_KINDS = {bool: (bool, "a boolean"), int: (int, "an integer"),
          float: ((int, float), "a number"), str: (str, "a string")}


def _check_leaf(value, default, path: str):
    _require_finite(value, path)
    if isinstance(default, list):
        _require_numbers(value, default, path)
        return copy.deepcopy(value)
    if default is not None:
        kind, name = _KINDS[type(default)]
        if not isinstance(value, kind) or isinstance(value, bool) != isinstance(default, bool):
            raise ConfigError(f"{path}: expected {name}")
    return value


def load_trial_config(path=None, overrides: dict | None = None) -> tuple[dict, TrialConfig]:
    """Resolve defaults <- file <- overrides into a validated config tree, and build
    the trial configuration out of it.  ``overrides`` nest like the file and pass
    the same checks, against the defaults: a section override merges into its own."""
    user: dict = {}
    if path is not None:
        file = Path(path)
        if not file.exists():
            raise ConfigError(f"config not found: {file}")
        try:
            user = json.loads(file.read_text(encoding="utf-8"))
        except OSError as exc:  # a directory, say
            raise ConfigError(f"config cannot be read: {file}: {exc}") from exc
        except ValueError as exc:  # bytes that are not UTF-8, or text that is not JSON
            raise ConfigError(f"config is not valid JSON: {file}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config root must be an object: {file}")
    # a None override is a flag left unset
    defaults = _default_tree()
    resolved = _merge(defaults, {key: value for key, value in (overrides or {}).items()
                                 if value is not None}, base=_merge(defaults, user))
    _check_values(resolved)
    return resolved, trial_config_from(resolved)


def load_config(path=None, overrides: dict | None = None) -> dict:
    """The validated config tree of :func:`load_trial_config`."""
    return load_trial_config(path, overrides)[0]


def _check_values(resolved: dict) -> None:
    """Refuse run values the run cannot use, naming the key; the trial's own
    values are refused where :func:`trial_config_from` builds them."""
    check_run_values(**{key: resolved[key] for key in RUN_MINIMA})
    # the monitor's weighting factors: all three numbers, or all three null (the defaults)
    dhdp = resolved["dhdp"]
    for key in _ALPHAS:
        if dhdp[key] is not None:
            _require_numbers(dhdp[key], 0.0, f"dhdp.{key}")
    unset = [key for key in _ALPHAS if dhdp[key] is None]
    if unset and len(unset) < len(_ALPHAS):
        raise ConfigError(f"dhdp.{unset[0]}: alpha1, alpha2 and alpha3 are set together "
                          f"or all left null")
    if resolved["policy_dir"] is not None and not isinstance(resolved["policy_dir"], str):
        raise ConfigError(f"policy_dir: expected a string or null, got {resolved['policy_dir']!r}")


def _key(path: str) -> str:
    """The config key of the entry at ``path``, a field path with indices: the table's
    key of the field path that starts it, the rest laid out as :func:`_plain` does."""
    key, field = next(((k, p) for k, p in _FIELDS.items() if re.match(rf"{re.escape(p)}\b", path)),
                      (path, path))  # a section above the fields keeps its name
    value = _at(_defaults(), field)
    for name, index in re.findall(r"\.(\w+)|\[(\d+)\]", path[len(field):]):
        if index:  # the entries of a list share the type of its first
            key, value = f"{key}[{index}]", value[0]
        else:  # a one-field dataclass is its field; one inside a list, its values
            names = list(value.__dataclass_fields__)
            key += ("" if len(names) == 1 else f"[{names.index(name)}]" if key.endswith("]")
                    else f".{name}")
            value = getattr(value, name)
    return key


def _refusal(exc: Exception, path: str) -> ConfigError:
    """``exc``, raised at field path ``path``, as a refusal under the key of the
    field or entry its message opens with (``field[i]:``), else of ``path``."""
    head, colon, rest = str(exc).partition(":")
    if colon and re.fullmatch(r"\w+(\[\d+\])*", head):
        return ConfigError(f"{_key(f'{path}.{head}'.lstrip('.'))}:{rest}")
    return ConfigError(f"{_key(path)}: {exc}")


def _built(default, raw, path: str = ""):
    """``raw`` built with the types of ``default``, the field at ``path``: the inverse
    of :func:`_plain`.  A float default makes ``float(raw)``, so a JSON ``1`` builds
    ``1.0``; a tuple's entries all take the type of its first.  The one special case
    is the monitor, None by default: all its alphas null leave it None, all set build it."""
    try:
        if isinstance(default, (int, float, str)):
            return type(default)(raw)
        if isinstance(default, np.ndarray):
            return np.array(raw, dtype=default.dtype)
        if default is None:
            return None if raw["alpha1"] is None else MonitorParams(
                **{name: float(value) for name, value in raw.items()})
        if is_dataclass(default):
            if not isinstance(raw, dict):
                names = list(default.__dataclass_fields__)
                raw = dict(zip(names, [raw] if len(names) == 1 else raw))
            return type(default)(**{name: _built(getattr(default, name), value,
                                                 f"{path}.{name}".lstrip("."))
                                    for name, value in raw.items()})
        return tuple(_built(default[0], item, f"{path}[{i}]") for i, item in enumerate(raw))
    except ConfigError:  # an entry's, named where it was raised
        raise
    except (ValueError, TypeError) as exc:
        raise _refusal(exc, path) from exc


def trial_config_from(resolved: dict) -> TrialConfig:
    """Build the typed trial configuration out of a resolved config tree: each key's
    value is put at its field path, and the tree of fields builds as a section does."""
    fields: dict = {}
    for key, path in _FIELDS.items():
        _put(fields, path, _at(resolved, key))
    _put(fields, "dhdp.monitor.discount", fields["dhdp"]["discount"])  # the monitor's too
    return _built(_defaults(), fields)
