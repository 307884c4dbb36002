"""Run configuration: JSON files with defaults, validation and overrides.

A config file is a plain JSON object mirroring the template below.  Any
key the template does not know is rejected, naming its full dotted path.
Command-line flags override file values, which override defaults.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

from .core import BoundsTable, GaitFeatures, PhaseBound
from .dhdp import ActionScale, MonitorParams, StageCostParams
from .fsm import ParameterRanges, PhaseRanges
from .harness import DhdpConfig, TrialConfig
from .plant import FeatureMapConfig, OdeKneeConfig


class ConfigError(ValueError):
    """A config file could not be read, parsed, or validated."""


# The networks see states inside [-1, 1] while a trial is safe, so initial
# weights far above 1 start every unit saturated; the ceiling only keeps the
# draw's width, twice the scale, finite with room to spare.
MAX_INIT_WEIGHT_SCALE = 1e6


def default_config() -> dict:
    """Full config tree with library defaults filled in."""
    trial = TrialConfig()
    fm, ode, dhdp = trial.feature_map, trial.ode, trial.dhdp
    bounds, ranges = trial.bounds, trial.ranges
    return {
        "scenario": trial.scenario,
        "stage": trial.stage,
        "plant": trial.plant_kind,
        "seed": 0,
        "strict_monitor": trial.strict_monitor,
        "out_dir": "runs/out",
        "trials": 30,
        "keep_policies": 10,
        "trials_per_policy": 30,
        "policy_dir": None,
        "load_critic": trial.load_critic,
        "max_cycles": trial.max_cycles,
        "window": trial.window,
        "quota": trial.quota,
        "rms_window": trial.rms_window,
        "init_spread": trial.init_spread,
        "bounds": {
            "safety": [[b.angle, b.duration_pct] for b in bounds.safety],
            "tolerance": [[b.angle, b.duration_pct] for b in bounds.tolerance],
        },
        "ranges": [
            [list(p.stiffness), list(p.damping), list(p.equilibrium)]
            for p in ranges.phases
        ],
        "dhdp": {
            "critic_hidden": dhdp.critic_hidden,
            "actor_hidden": dhdp.actor_hidden,
            "discount": dhdp.discount,
            "critic_lr": dhdp.critic_lr,
            "actor_lr": dhdp.actor_lr,
            "init_weight_scale": dhdp.init_weight_scale,
            "state_cost": dhdp.cost.state_weight.tolist(),
            "action_cost": dhdp.cost.action_weight.tolist(),
            "action_scale": dhdp.action_scale.half_ranges.tolist(),
            "alpha1": None,
            "alpha2": None,
            "alpha3": None,
        },
        "feature_map": {
            "smoothing": fm.smoothing,
            "noise_std": list(fm.noise_std),
            "pace_passthrough": fm.pace_passthrough,
            "reference_impedance": fm.reference_impedance.tolist(),
            "reference_features": [[f.duration, f.peak_angle] for f in fm.reference_features],
            "sensitivity": fm.sensitivity.tolist(),
        },
        "ode": {
            "inertia": ode.inertia,
            "timestep": ode.timestep,
            "initial_angle": ode.initial_angle,
            "initial_velocity": ode.initial_velocity,
            "load_torque": list(ode.load_torque),
            "toe_off_angle": ode.toe_off_angle,
            "heel_strike_angle": ode.heel_strike_angle,
            "max_phase_time": ode.max_phase_time,
            "velocity_limit": ode.velocity_limit,
        },
        "terrain": {
            "pool_size": trial.pool_size,
            "pool_spread": trial.pool_spread,
            "switch_period": trial.switch_period,
            "consecutive_tracks": trial.consecutive_tracks,
        },
        "pace": {
            "training": list(trial.pace_training),
            "testing": list(trial.pace_testing),
        },
        "drift": {"gain": trial.drift_gain, "smoothing": trial.drift_smoothing},
    }


def _merge(template: dict, user: dict, path: str = "") -> dict:
    merged = {}
    for key, default in template.items():
        here = f"{path}.{key}" if path else key
        if key in user:
            value = user[key]
            if isinstance(default, dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"{here}: expected an object")
                merged[key] = _merge(default, value, here)
            else:
                merged[key] = _check_leaf(value, default, here)
        else:
            merged[key] = copy.deepcopy(default)
    for key in user:
        if key not in template:
            here = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key: {here}")
    return merged


def _require_numbers(value, template, path: str) -> None:
    """Refuse anything but a number where ``template`` is one, nested in lists as it is.

    A numeric list's entries all share the shape of its first, so one
    template entry stands for every entry: nulls, booleans and strings are
    refused inside lists as they are at a number's own key.
    """
    if isinstance(template, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        for i, item in enumerate(value):
            _require_numbers(item, template[0], f"{path}[{i}]")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")


def _require_finite(value, path: str) -> None:
    if isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value}")


def _check_leaf(value, default, path: str):
    _require_finite(value, path)
    if default is None:
        return value
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean")
        return value
    if isinstance(default, int):
        # a count, size or seed: 2.5 would be truncated where it is used
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        return value
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        return value
    if isinstance(default, list):
        _require_numbers(value, default, path)
        return copy.deepcopy(value)
    raise ConfigError(f"{path}: unsupported value type")


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Resolve defaults <- file <- overrides into a validated config tree.

    ``overrides`` nest like the file and pass the same checks: a section
    override merges into its section.
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
    resolved = _merge(_merge(default_config(), user),
                      {key: value for key, value in (overrides or {}).items()
                       if value is not None})
    _check_values(resolved)
    return resolved


def _get(resolved: dict, key: str):
    """The value at a dotted config path."""
    for part in key.split("."):
        resolved = resolved[part]
    return resolved


def _check_values(resolved: dict) -> None:
    """Refuse values the run cannot use, naming the key: counts, sizes, shapes, ODE knee."""
    for key, least in (("trials", 1), ("trials_per_policy", 1), ("seed", 0),
                       ("keep_policies", 0), ("rms_window", 1),
                       ("dhdp.critic_hidden", 1), ("dhdp.actor_hidden", 1)):
        if _get(resolved, key) < least:
            raise ConfigError(f"{key}: must be at least {least}, got {_get(resolved, key)}")
    for key in ("dhdp.critic_lr", "dhdp.actor_lr", "dhdp.init_weight_scale"):
        if _get(resolved, key) <= 0:
            raise ConfigError(f"{key}: must be positive, got {_get(resolved, key)}")
    if resolved["dhdp"]["init_weight_scale"] > MAX_INIT_WEIGHT_SCALE:
        raise ConfigError(f"dhdp.init_weight_scale: must be at most {MAX_INIT_WEIGHT_SCALE:g}, "
                          f"got {resolved['dhdp']['init_weight_scale']}")
    _check_alphas(resolved["dhdp"])
    if resolved["drift"]["gain"] < 0:
        raise ConfigError(f"drift.gain: must be non-negative, got {resolved['drift']['gain']}")
    for key, size in (("ranges", 4), ("feature_map.reference_features", 4),
                      ("feature_map.noise_std", 2), ("ode.load_torque", 4)):
        if len(_get(resolved, key)) != size:
            raise ConfigError(f"{key}: needs {size} entries, got {len(_get(resolved, key))}")
    for i, phase in enumerate(resolved["ranges"]):
        if len(phase) != 3:
            raise ConfigError(f"ranges[{i}]: needs 3 intervals (stiffness, damping, "
                              f"equilibrium), got {len(phase)}")
        for j, interval in enumerate(phase):
            if len(interval) != 2:
                raise ConfigError(f"ranges[{i}][{j}]: expected two numbers [lower, upper], "
                                  f"got {interval!r}")
    _ode_config(resolved["ode"])
    for key in ("pace.training", "pace.testing"):
        paces = _get(resolved, key)
        if not paces:
            raise ConfigError(f"{key}: needs at least one pace multiplier")
        for i, pace in enumerate(paces):
            if pace <= 0:
                raise ConfigError(f"{key}[{i}]: must be a positive number, got {pace!r}")


def _check_alphas(dhdp: dict) -> None:
    """The monitor's weighting factors: all three numbers, or all three null (the defaults)."""
    keys = ("alpha1", "alpha2", "alpha3")
    for key in keys:
        if dhdp[key] is not None:
            _require_numbers(dhdp[key], 0.0, f"dhdp.{key}")
    unset = [key for key in keys if dhdp[key] is None]
    if unset and len(unset) < len(keys):
        raise ConfigError(f"dhdp.{unset[0]}: alpha1, alpha2 and alpha3 are set together "
                          f"or all left null")


def _section(fn, name, keys=()):
    """Call ``fn``, refusing its errors under ``name``.

    An error message that opens with one of the section's ``keys`` and a
    colon names that key by its dotted path, ``name.key:``.
    """
    try:
        return fn()
    except (ValueError, TypeError) as exc:
        key = str(exc).partition(":")[0]
        raise ConfigError(f"{name}.{exc}" if key in keys else f"{name}: {exc}") from exc


def _ode_config(raw: dict) -> OdeKneeConfig:
    return _section(lambda: OdeKneeConfig(
        inertia=float(raw["inertia"]),
        timestep=float(raw["timestep"]),
        initial_angle=float(raw["initial_angle"]),
        initial_velocity=float(raw["initial_velocity"]),
        load_torque=tuple(float(v) for v in raw["load_torque"]),
        toe_off_angle=float(raw["toe_off_angle"]),
        heel_strike_angle=float(raw["heel_strike_angle"]),
        max_phase_time=float(raw["max_phase_time"]),
        velocity_limit=float(raw["velocity_limit"]),
    ), "ode", raw)


def trial_config_from(resolved: dict) -> TrialConfig:
    """Build the typed trial configuration out of a resolved config tree."""

    def bounds():
        raw = resolved["bounds"]
        return BoundsTable(
            safety=tuple(PhaseBound(*map(float, b)) for b in raw["safety"]),
            tolerance=tuple(PhaseBound(*map(float, b)) for b in raw["tolerance"]),
        )

    def ranges():
        phases = []
        for entry in resolved["ranges"]:
            ks, bs, es = entry
            phases.append(PhaseRanges(
                stiffness=(float(ks[0]), float(ks[1])),
                damping=(float(bs[0]), float(bs[1])),
                equilibrium=(float(es[0]), float(es[1])),
            ))
        return ParameterRanges(tuple(phases))

    def dhdp():
        raw = resolved["dhdp"]
        discount = float(raw["discount"])
        monitor = None
        if raw["alpha1"] is not None:
            monitor = MonitorParams(
                alpha1=float(raw["alpha1"]), alpha2=float(raw["alpha2"]),
                alpha3=float(raw["alpha3"]), discount=discount,
            )
        return DhdpConfig(
            critic_hidden=int(raw["critic_hidden"]),
            actor_hidden=int(raw["actor_hidden"]),
            discount=discount,
            critic_lr=float(raw["critic_lr"]),
            actor_lr=float(raw["actor_lr"]),
            init_weight_scale=float(raw["init_weight_scale"]),
            cost=StageCostParams(
                state_weight=np.array(raw["state_cost"], dtype=float),
                action_weight=np.array(raw["action_cost"], dtype=float),
            ),
            action_scale=ActionScale(np.array(raw["action_scale"], dtype=float)),
            monitor=monitor,
        )

    def feature_map():
        raw = resolved["feature_map"]
        return FeatureMapConfig(
            reference_impedance=raw["reference_impedance"],
            reference_features=tuple(
                GaitFeatures(*map(float, f)) for f in raw["reference_features"]
            ),
            sensitivity=np.array(raw["sensitivity"], dtype=float),
            smoothing=float(raw["smoothing"]),
            noise_std=tuple(float(v) for v in raw["noise_std"]),
            pace_passthrough=float(raw["pace_passthrough"]),
        )

    terrain = resolved["terrain"]
    return _section(lambda: TrialConfig(
        scenario=int(resolved["scenario"]),
        stage=str(resolved["stage"]),
        plant_kind=str(resolved["plant"]),
        max_cycles=int(resolved["max_cycles"]),
        window=int(resolved["window"]),
        quota=int(resolved["quota"]),
        rms_window=int(resolved["rms_window"]),
        bounds=_section(bounds, "bounds"),
        ranges=_section(ranges, "ranges"),
        dhdp=_section(dhdp, "dhdp"),
        feature_map=_section(feature_map, "feature_map"),
        ode=_ode_config(resolved["ode"]),
        init_spread=float(resolved["init_spread"]),
        pool_size=int(terrain["pool_size"]),
        pool_spread=float(terrain["pool_spread"]),
        switch_period=int(terrain["switch_period"]),
        consecutive_tracks=int(terrain["consecutive_tracks"]),
        pace_training=tuple(float(v) for v in resolved["pace"]["training"]),
        pace_testing=tuple(float(v) for v in resolved["pace"]["testing"]),
        drift_gain=float(resolved["drift"]["gain"]),
        drift_smoothing=float(resolved["drift"]["smoothing"]),
        strict_monitor=bool(resolved["strict_monitor"]),
        load_critic=bool(resolved["load_critic"]),
    ), "config")
