"""Run configuration: JSON files with defaults, validation and overrides.

A config file is a plain JSON object mirroring :func:`default_config`.  The
one schema is a default :class:`TrialConfig`: the tree, the shape of every
numeric list and the types of the built config all come from it.  An
unknown key is rejected, naming its full dotted path.  Command-line flags
override file values, which override defaults.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np

from .dhdp import MonitorParams, StageCostParams
from .harness import DhdpConfig, TrialConfig


class ConfigError(ValueError):
    """A config file could not be read, parsed, or validated."""


# keys of a run that are no part of a trial, with their defaults
_RUN_DEFAULTS = {"seed": 0, "out_dir": "runs/out", "trials": 30, "keep_policies": 10,
                 "trials_per_policy": 30, "policy_dir": None}
# dotted config keys that differ from the TrialConfig field they set
_RENAMED = {"plant": "plant_kind", "terrain.pool_size": "pool_size",
            "terrain.pool_spread": "pool_spread", "terrain.switch_period": "switch_period",
            "terrain.consecutive_tracks": "consecutive_tracks",
            "pace.training": "pace_training", "pace.testing": "pace_testing",
            "drift.gain": "drift_gain", "drift.smoothing": "drift_smoothing"}
# config key -> TrialConfig field, for every field but dhdp
_FIELDS = {**{key: key for key in ("scenario", "stage", "strict_monitor", "load_critic",
                                   "max_cycles", "window", "quota", "rms_window",
                                   "init_spread", "bounds", "ranges", "feature_map", "ode")},
           **_RENAMED}
# TrialConfig field -> the config key that sets it
_KEYS = {name: key for key, name in _FIELDS.items()}
# dhdp keys named as their DhdpConfig field
_DHDP_FIELDS = ("critic_hidden", "actor_hidden", "discount", "critic_lr", "actor_lr",
                "init_weight_scale", "action_scale")
# the fields of the dhdp section's parts that a refusal names, and their keys
_DHDP_RENAMED = {"state_weight": "state_cost", "action_weight": "action_cost",
                 "half_ranges": "action_scale"}
_ALPHAS = ("alpha1", "alpha2", "alpha3")
# the numeric lists whose length is up to the user
_ANY_LENGTH = ("pace.training", "pace.testing")


@functools.cache
def _defaults() -> TrialConfig:
    """The default trial configuration, the schema of every tree; read, never handed out."""
    return TrialConfig()


def _plain(value):
    """The JSON form of a default: a dataclass is an object of its fields, or
    its one field's value; one inside a list is the list of its field values."""
    if dataclasses.is_dataclass(value):
        fields = {name: _plain(getattr(value, name)) for name in value.__dataclass_fields__}
        return fields.popitem()[1] if len(fields) == 1 else fields
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [list(_plain(item).values()) if dataclasses.is_dataclass(item) else _plain(item)
                for item in value]
    return value


def _built(default, raw):
    """``raw`` built with the types of ``default``, the inverse of :func:`_plain`.

    A float default makes ``float(raw)``, so a JSON ``1`` builds ``1.0``; the
    entries of a tuple all take the type of the default's first entry.
    """
    if isinstance(default, (int, float, str)):
        return type(default)(raw)
    if isinstance(default, np.ndarray):
        return np.array(raw, dtype=default.dtype)
    if dataclasses.is_dataclass(default):
        names = list(default.__dataclass_fields__)
        values = ([raw] if len(names) == 1 else raw if isinstance(raw, list)
                  else [raw[name] for name in names])
        return type(default)(*map(_built, [getattr(default, name) for name in names], values))
    return tuple(_built(default[0], item) for item in raw)


def default_config() -> dict:
    """Full config tree with library defaults filled in."""
    trial = _defaults()
    tree = dict(_RUN_DEFAULTS)
    for key, name in _FIELDS.items():
        section, _, leaf = key.rpartition(".")
        (tree.setdefault(section, {}) if section else tree)[leaf] = _plain(getattr(trial, name))
    dhdp = trial.dhdp
    tree["dhdp"] = {**{key: _plain(getattr(dhdp, key)) for key in _DHDP_FIELDS},
                    "state_cost": dhdp.cost.state_weight.tolist(),
                    "action_cost": dhdp.cost.action_weight.tolist(),
                    **dict.fromkeys(_ALPHAS)}
    return tree


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


def _entries(value, path: str):
    """(entry, its path) for every non-list value nested in lists in ``value``."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _entries(item, f"{path}[{i}]")
    else:
        yield value, path


# The JSON values a leaf takes, by the type of its default, and their name.
# An integer default is a count, size or seed: 2.5 would be truncated where
# it is used.  A boolean is taken only where the default is one.
_KINDS = {bool: (bool, "a boolean"), int: (int, "an integer"),
          float: ((int, float), "a number"), str: (str, "a string")}


def _check_leaf(value, default, path: str):
    for entry, here in _entries(value, path):
        if isinstance(entry, float) and not math.isfinite(entry):
            raise ConfigError(f"{here}: expected a finite number, got {entry}")
    if isinstance(default, list):
        _require_numbers(value, default, path)
        return copy.deepcopy(value)
    if default is not None:
        kind, name = _KINDS[type(default)]
        if not isinstance(value, kind) or isinstance(value, bool) != isinstance(default, bool):
            raise ConfigError(f"{path}: expected {name}")
    return value


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Resolve defaults <- file <- overrides into a validated config tree.

    ``overrides`` nest like the file and pass the same checks, against
    the defaults: a section override merges into its section.
    """
    user: dict = {}
    if path is not None:
        file = Path(path)
        if not file.exists():
            raise ConfigError(f"config not found: {file}")
        try:
            user = json.loads(file.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {file}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config root must be an object: {file}")
    # a None override is a flag left unset
    defaults = default_config()
    resolved = _merge(defaults, {key: value for key, value in (overrides or {}).items()
                                 if value is not None}, base=_merge(defaults, user))
    _check_values(resolved)
    trial_config_from(resolved)
    return resolved


def _get(resolved: dict, key: str):
    """The value at a dotted config path."""
    for part in key.split("."):
        resolved = resolved[part]
    return resolved


def _check_values(resolved: dict) -> None:
    """Refuse run values the run cannot use, naming the key; the trial's own
    values are refused where :func:`trial_config_from` builds them."""
    for key, least in (("trials", 1), ("trials_per_policy", 1), ("seed", 0),
                       ("keep_policies", 0)):
        if resolved[key] < least:
            raise ConfigError(f"{key}: must be at least {least}, got {resolved[key]}")
    _check_alphas(resolved["dhdp"])
    if resolved["policy_dir"] is not None and not isinstance(resolved["policy_dir"], str):
        raise ConfigError(f"policy_dir: expected a string or null, got {resolved['policy_dir']!r}")


def _check_alphas(dhdp: dict) -> None:
    """The monitor's weighting factors: all three numbers, or all three null (the defaults)."""
    for key in _ALPHAS:
        if dhdp[key] is not None:
            _require_numbers(dhdp[key], 0.0, f"dhdp.{key}")
    unset = [key for key in _ALPHAS if dhdp[key] is None]
    if unset and len(unset) < len(_ALPHAS):
        raise ConfigError(f"dhdp.{unset[0]}: alpha1, alpha2 and alpha3 are set together "
                          f"or all left null")


@contextlib.contextmanager
def _refused(name: str, keys=(), renamed=None):
    """Refuse the block's errors under ``name``; a message that opens with one
    of ``keys`` and a colon names that key by its dotted path, ``name.key:``.
    ``renamed`` maps a field a message opens with to the key that sets it."""
    renamed = renamed or {}
    try:
        yield
    except (ValueError, TypeError) as exc:
        head, colon, rest = str(exc).partition(":")
        field = head.partition("[")[0]  # an entry's index stays on its key
        if colon and (field in keys or field in renamed):
            key = renamed.get(field, field) + head[len(field):]
            raise ConfigError(f"{name}.{key}:{rest}") from exc
        raise ConfigError(f"{name}: {exc}") from exc


def _dhdp(raw: dict, default: DhdpConfig) -> DhdpConfig:
    discount = float(raw["discount"])
    monitor = (None if raw["alpha1"] is None else
               MonitorParams(*(float(raw[key]) for key in _ALPHAS), discount=discount))
    return DhdpConfig(
        **{key: _built(getattr(default, key), raw[key]) for key in _DHDP_FIELDS},
        cost=StageCostParams(state_weight=np.array(raw["state_cost"], dtype=float),
                             action_weight=np.array(raw["action_cost"], dtype=float)),
        monitor=monitor,
    )


def trial_config_from(resolved: dict) -> TrialConfig:
    """Build the typed trial configuration out of a resolved config tree."""
    default = _defaults()
    fields = {}
    for key, name in _FIELDS.items():
        value = getattr(default, name)
        with _refused(key, getattr(value, "__dataclass_fields__", ())):
            fields[name] = _built(value, _get(resolved, key))
    with _refused("dhdp", default.dhdp.__dataclass_fields__, _DHDP_RENAMED):
        fields["dhdp"] = _dhdp(resolved["dhdp"], default.dhdp)
    try:
        return TrialConfig(**fields)
    except ValueError as exc:  # it names a field, which _KEYS maps back to its key
        head, _, rest = str(exc).partition(":")
        field = head.partition("[")[0]
        raise ConfigError(f"{_KEYS.get(field, field)}{head[len(field):]}:{rest}") from exc
