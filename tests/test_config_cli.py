"""Config loading, CLI subcommands and output files."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kneetrack import harness
from kneetrack.cli import main, trial_summary
from kneetrack.config import ConfigError, default_config, load_config, trial_config_from
from kneetrack.core import BoundsTable, PhaseBound, check_features
from kneetrack.dhdp import (
    ActionScale,
    ActorNet,
    CriticNet,
    MonitorParams,
    StageCostParams,
    init_actor,
    init_critic,
    save_policy,
)
from kneetrack.fsm import ParameterRanges, PhaseRanges, apply_delta
from kneetrack.harness import (
    DhdpConfig,
    Trial,
    TrialConfig,
    TrialRecord,
    compute_rms,
    run_testing_batch,
    run_training_batch,
    run_trial,
)
from kneetrack.plant import (
    FeatureMapConfig,
    OdeKneeConfig,
    TargetProgram,
    profile_to_array,
    switch_schedule,
)

GOLDEN = Path(__file__).parent / "golden"


def small_run_config(**overrides):
    # seed/max_cycles chosen so this tiny batch contains successful trials
    cfg = {
        "trials": 3,
        "max_cycles": 120,
        "keep_policies": 2,
        "seed": 11,
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# config


def test_defaults_build_a_valid_trial_config():
    resolved = load_config(None)
    cfg = trial_config_from(resolved)
    assert cfg.scenario == 1
    assert cfg.max_cycles == 500
    assert cfg.window == 10 and cfg.quota == 8
    assert cfg.dhdp.critic_hidden == 8 and cfg.dhdp.actor_hidden == 6


def test_unknown_key_rejected_with_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dhdp": {"critic_hidden": 8, "bogus": 1}}))
    with pytest.raises(ConfigError, match="dhdp.bogus"):
        load_config(path)


def test_unknown_top_level_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenarios": 1}))
    with pytest.raises(ConfigError, match="unknown config key: scenarios"):
        load_config(path)


def test_missing_config_file_diagnostic(tmp_path):
    with pytest.raises(ConfigError, match="config not found"):
        load_config(tmp_path / "missing.json")


def assert_one_error(capsys, code, want, message):
    """``code`` is ``want``, and stderr holds no traceback and one error line,
    which opens with ``message``."""
    err = capsys.readouterr().err
    assert code == want, err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {message}"), err
    assert "Traceback" not in err


def test_unreadable_config_files_exit_2(tmp_path, capsys):
    # a directory and a file that is not UTF-8 each ended in a traceback
    path, latin1, folder = tmp_path / "cfg.json", tmp_path / "latin1.json", tmp_path / "cfg.d"
    latin1.write_bytes(b'{"stage": "caf\xe9"}')
    folder.mkdir()
    for file, text, message in ((path, "{not json", f"config is not valid JSON: {path}: "),
                                (path, "[1, 2]", f"config root must be an object: {path}"),
                                (latin1, None, f"config is not valid JSON: {latin1}: "),
                                (folder, None, f"config cannot be read: {folder}: ")):
        if text is not None:
            file.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(file)
        code = main(["run", "--config", str(file), "--out", str(tmp_path / "out")])
        assert_one_error(capsys, code, 2, message)
        assert not (tmp_path / "out").exists()


def test_type_errors_name_the_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": "seven"}))
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)


def test_out_of_range_values_name_the_key(tmp_path, capsys):
    # json.loads accepts NaN/Infinity, and a run on a non-positive learning
    # rate or zero trials used to "succeed" or crash instead of being refused
    cases = [
        ({"dhdp": {"critic_lr": float("nan")}}, "dhdp.critic_lr"),
        ({"dhdp": {"alpha1": float("inf")}}, "dhdp.alpha1"),
        ({"dhdp": {"state_cost": [1.0, float("-inf")]}}, "dhdp.state_cost[1]"),
        ({"seed": float("nan")}, "seed"),
        ({"dhdp": {"critic_lr": -1}}, "dhdp.critic_lr"),
        ({"dhdp": {"actor_lr": 0.0}}, "dhdp.actor_lr"),
        ({"trials": 0}, "trials"),
        ({"trials": None}, "trials"),
        ({"trials_per_policy": 0}, "trials_per_policy"),
        ({"seed": -1}, "seed"),
        ({"keep_policies": -1}, "keep_policies"),
        # a zero window pooled an empty RMS into NaN, zero hidden units ran
        # nets of nothing, and the rest crashed mid-run
        ({"rms_window": 0}, "rms_window"),
        ({"dhdp": {"critic_hidden": 0}}, "dhdp.critic_hidden"),
        ({"dhdp": {"actor_hidden": 0}}, "dhdp.actor_hidden"),
        ({"dhdp": {"init_weight_scale": 0.0}}, "dhdp.init_weight_scale"),
        ({"pace": {"training": []}}, "pace.training"),
        ({"pace": {"testing": [1.0, 0.0]}}, "pace.testing[1]"),
        ({"pace": {"testing": [1.0, -0.8]}}, "pace.testing[1]"),
        ({"drift": {"gain": -0.1}}, "drift.gain"),
        ({"feature_map": {"reference_features": [[0.3, 0.3]] * 3}},
         "feature_map.reference_features"),
        ({"feature_map": {"noise_std": [0.005, 0.005, 0.005]}}, "feature_map.noise_std"),
        ({"feature_map": {"noise_std": [0.005]}}, "feature_map.noise_std"),
        ({"ode": {"load_torque": [-2.5, -1.5, -4.0]}}, "ode.load_torque"),
        # a non-positive velocity limit failed the first substep as a plant
        # instability; the rest ran silently to max_cycles
        ({"plant": "ode", "ode": {"velocity_limit": -1.0}}, "ode.velocity_limit"),
        ({"ode": {"velocity_limit": 0.0}}, "ode.velocity_limit"),
        ({"ode": {"max_phase_time": 0}}, "ode.max_phase_time"),
        ({"ode": {"max_phase_time": -1}}, "ode.max_phase_time"),
        ({"ode": {"initial_angle": 3.0}}, "ode.initial_angle"),
        ({"ode": {"initial_angle": -0.5}}, "ode.initial_angle"),
        ({"ode": {"toe_off_angle": -1}}, "ode.toe_off_angle"),
        ({"ode": {"heel_strike_angle": 5.0}}, "ode.heel_strike_angle"),
        ({"ode": {"timestep": 0.0}}, "ode.timestep"),
        # more than MAX_PHASE_STEPS substeps per phase: the run had not ended after 15 s
        ({"plant": "ode", "trials": 1, "ode": {"timestep": 1e-9}}, "ode.timestep"),
        ({"ranges": default_config()["ranges"][:3]}, "ranges"),
        ({"feature_map": {"pace_passthrough": 1.5}}, "feature_map.pace_passthrough"),
    ]
    for cfg, key in cases:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=re.escape(f"{key}:")):
            load_config(path)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{key}:" in capsys.readouterr().err
    assert main(["run", "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    assert "seed:" in capsys.readouterr().err
    # batches run in one process: the former jobs key and --jobs flag are refused
    path.write_text(json.dumps({"jobs": 1}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "jobs")]) == 2
    assert "unknown config key: jobs" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["run", "--jobs", "2", "--out", str(tmp_path / "jobs")])
    assert exc.value.code == 2
    assert not (tmp_path / "jobs").exists()


def feature_map_with(**fields):
    return dataclasses.replace(FeatureMapConfig.default(), **fields)


def reference_profile() -> np.ndarray:
    return profile_to_array(FeatureMapConfig.default().reference_features)


def fresh_policy():
    rng = np.random.default_rng(0)
    return [init_actor(rng) for _ in range(4)], None


# values only the config file refused; at the API they gave a NaN RMS with
# two RuntimeWarnings, nets of nothing or a negative rate run to max-cycles,
# a runaway target, and an IndexError
LIBRARY_REFUSALS = [
    (lambda: TrialConfig(rms_window=0), "rms_window: must be at least 1, got 0"),
    (lambda: DhdpConfig(critic_hidden=0), "critic_hidden: must be at least 1, got 0"),
    (lambda: DhdpConfig(actor_hidden=-1), "actor_hidden: must be at least 1, got -1"),
    (lambda: DhdpConfig(critic_lr=-1.0), "critic_lr: must be positive, got -1.0"),
    (lambda: DhdpConfig(actor_lr=float("nan")), "actor_lr: must be positive, got nan"),
    (lambda: DhdpConfig(init_weight_scale=2e6),
     "init_weight_scale: must be at most 1e+06, got 2000000.0"),
    (lambda: TrialConfig(drift_gain=5.0), "drift_gain: must lie in [0, 1], got 5.0"),
    (lambda: TrialConfig(drift_gain=-0.1), "drift_gain: must lie in [0, 1], got -0.1"),
    (lambda: TrialConfig(scenario=3, pace_training=()),
     "pace_training: needs at least one pace multiplier"),
    (lambda: TrialConfig(pace_testing=(1.0, 0.0)),
     "pace_testing[1]: must be a positive number, got 0.0"),
    # a pool is built in the square of its size: 10^12 members ran past 20 s
    # with no output, and a pace of 1e-320 overflowed the targets into NaN rows
    (lambda: TrialConfig(pool_size=1001), "pool_size: must be at most 1000, got 1001"),
    (lambda: TrialConfig(scenario=3, pace_training=(1.0, 1e-320)),
     "pace_training[1]: must be at least 0.001, got 1e-320"),
    (lambda: TrialConfig(pace_testing=(0.0009,)),
     "pace_testing[0]: must be at least 0.001, got 0.0009"),
    (lambda: feature_map_with(noise_std=(0.005, 3.0)),
     "noise_std[1]: must be at most 2 in magnitude, got 3.0"),
    (lambda: feature_map_with(sensitivity=np.full((4, 2, 3), -12.0)),
     "sensitivity[0][0][0]: must be at most 10 in magnitude, got -12.0"),
    # non-finite values: an infinite critic rate ran into a numeric fault at
    # cycle 2, an infinite pace leg and the rest were taken, and an infinite
    # max_phase_time walked a phase that never timed out
    (lambda: DhdpConfig(critic_lr=math.inf), "critic_lr: must be finite, got inf"),
    (lambda: DhdpConfig(actor_lr=math.inf), "actor_lr: must be finite, got inf"),
    (lambda: TrialConfig(scenario=3, pace_training=(1.0, math.inf)),
     "pace_training[1]: must be finite, got inf"),
    (lambda: OdeKneeConfig(inertia=math.inf), "inertia: must be finite, got inf"),
    (lambda: OdeKneeConfig(timestep=math.inf), "timestep: must be finite, got inf"),
    (lambda: OdeKneeConfig(max_phase_time=math.inf), "max_phase_time: must be finite, got inf"),
    (lambda: OdeKneeConfig(velocity_limit=math.inf), "velocity_limit: must be finite, got inf"),
    (lambda: OdeKneeConfig(initial_velocity=-math.inf),
     "initial_velocity: must be finite, got -inf"),
    (lambda: OdeKneeConfig(load_torque=(-2.5, math.nan, -4.0, -2.5)),
     "load_torque[1]: must be finite, got nan"),
    (lambda: StageCostParams(state_weight=np.diag([math.inf, 1.0]), action_weight=np.eye(3)),
     "state_weight: must be finite"),
    (lambda: ActionScale(np.full((4, 3), math.inf)), "half_ranges[0][0]: must be finite"),
    (lambda: MonitorParams(alpha1=math.inf, alpha2=6.0, alpha3=12.0, discount=0.95),
     "alpha1: must be finite, got inf"),
    (lambda: BoundsTable(safety=(PhaseBound(math.inf, 12.0),) + BoundsTable.default().safety[1:],
                         tolerance=BoundsTable.default().tolerance),
     "safety[0]: must be finite, got [inf, 12.0]"),
    (lambda: ParameterRanges((PhaseRanges(damping=(0.0, math.inf)),) * 4),
     "damping: range (0.0, inf) must be finite"),
    # a phase that never ends walks max_phase_time / timestep substeps: at
    # 1e-9 s a torque-law run had not finished after 15 s
    (lambda: OdeKneeConfig(timestep=1e-9),
     "timestep: must be at least max_phase_time / 1e+06 = 2e-06 s, got 1e-09"),
    # shapes and arguments the config file cannot give, refused at the API
    (lambda: ParameterRanges((PhaseRanges(),) * 3), "phases: needs 4 entries, got 3"),
    (lambda: OdeKneeConfig(load_torque=(-2.5, -1.5, -4.0)),
     "load_torque: needs 4 entries, got 3"),
    (lambda: OdeKneeConfig(load_torque=(-2.5,) * 5), "load_torque: needs 4 entries, got 5"),
    (lambda: feature_map_with(noise_std=(0.005,) * 3), "noise_std: needs 2 entries, got 3"),
    (lambda: feature_map_with(reference_features=FeatureMapConfig.default().reference_features[:3]),
     "reference_features: needs 4 entries, got 3"),
    (lambda: check_features(np.zeros((3, 2))),
     "features must be a (4, 2) array, got shape (3, 2)"),
    (lambda: BoundsTable(safety=BoundsTable.default().safety[:3],
                         tolerance=BoundsTable.default().tolerance),
     "bounds tables need one entry per phase"),
    (lambda: CriticNet(np.zeros(5), np.zeros(())),
     "critic hidden weights must be (h, 5), got (5,)"),
    (lambda: ActorNet(np.zeros(2), np.zeros(())),
     "actor hidden weights must be (h, 2), got (2,)"),
    (lambda: StageCostParams(state_weight=np.eye(3), action_weight=np.eye(3)),
     "state_weight: must be 2x2"),
    (lambda: ActionScale(np.ones((3, 3))), "half_ranges: must be a 4x3 table"),
    # a monitor that checks its ceilings for another discount than the TD rule's
    (lambda: DhdpConfig(discount=0.95, monitor=MonitorParams(alpha1=1.0, alpha2=20.0,
                                                             alpha3=40.0, discount=0.5)),
     "monitor: its discount must be the learning discount 0.95, got 0.5"),
    # a discount whose square underflows raised ZeroDivisionError
    (lambda: MonitorParams(alpha1=1.0, alpha2=6.0, alpha3=12.0, discount=1e-300),
     "alpha2: must exceed 4 / discount^2"),
    (lambda: apply_delta(np.ones((4, 3)), 1, np.zeros(2), ParameterRanges.default()),
     "control delta rows need 3 components, got shape (2,)"),
    (lambda: compute_rms(TrialRecord(scenario=1, stage="training")),
     "cannot compute RMS of an empty record"),
    (lambda: run_testing_batch(TrialConfig(), 0, []),
     "testing requires at least one saved policy"),
    (lambda: feature_map_with(sensitivity=np.zeros((4, 3, 3))),
     "sensitivity: must be a (4, 2, 3) array"),
    (lambda: TargetProgram(base_profile=reference_profile(), switch_period=0),
     "switch period must be positive"),
    (lambda: TargetProgram(base_profile=reference_profile(), pace_sequence=(1.0, 0.0)),
     "pace multipliers must be positive"),
    (lambda: TargetProgram(base_profile=reference_profile(), profile_pool=(reference_profile(),)),
     "a profile pool needs a switch schedule"),
    (lambda: TargetProgram(base_profile=reference_profile(), pace_sequence=(1.0, 1e-4)),
     "pace multipliers must be at least 0.001"),
    (lambda: TargetProgram(base_profile=reference_profile()).target_for(-1),
     "cycle index must be non-negative"),
    (lambda: switch_schedule(0, 3, np.random.default_rng(0)), "pool must not be empty"),
    # run values: at the API a negative one stopped with an IndexError, a numpy
    # ValueError or an OverflowError, and no trials gave an empty batch
    (lambda: run_training_batch(TrialConfig(), 3, trials=-1), "trials: must be at least 1, got -1"),
    (lambda: run_training_batch(TrialConfig(), 3, trials=0), "trials: must be at least 1, got 0"),
    (lambda: run_training_batch(TrialConfig(), 3, keep_policies=-1),
     "keep_policies: must be at least 0, got -1"),
    (lambda: run_training_batch(TrialConfig(), -2), "seed: must be at least 0, got -2"),
    (lambda: run_testing_batch(TrialConfig(), 3, [fresh_policy()], trials_per_policy=-1),
     "trials_per_policy: must be at least 1, got -1"),
    (lambda: run_testing_batch(TrialConfig(), 3, [fresh_policy()], trials_per_policy=0),
     "trials_per_policy: must be at least 1, got 0"),
    (lambda: run_testing_batch(TrialConfig(), -3, [fresh_policy()]),
     "seed: must be at least 0, got -3"),
    (lambda: run_trial(TrialConfig(), -1), "seed: must be at least 0, got -1"),
    (lambda: Trial(TrialConfig(), -4), "seed: must be at least 0, got -4"),
]


@pytest.mark.parametrize("build, message", LIBRARY_REFUSALS,
                         ids=[message for _, message in LIBRARY_REFUSALS])
def test_the_library_refuses_what_the_config_file_refuses(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_values_outside_the_physical_domain_exit_2(tmp_path, capsys):
    # values that would let an impedance leave its legal domain, and a
    # discount outside (0, 1), are refused before any trial runs
    ranges = default_config()["ranges"]
    ranges[1][0] = [-50.0, 100.0]
    # each message opens with the dotted key, also where the trial
    # config's own checks refuse the value under its field name
    cases = [
        ({"ranges": ranges}, "ranges[1][0]:"),
        ({"init_spread": 1.5}, "init_spread:"),
        ({"terrain": {"pool_spread": 1.5}}, "terrain.pool_spread:"),
        ({"dhdp": {"discount": 1.0}}, "dhdp.discount:"),
        # too small for the default monitor, or squaring to 0 beside set alphas:
        # each ended in a ValueError or ZeroDivisionError traceback, exit 1
        ({"dhdp": {"discount": 1e-8}}, "dhdp.discount:"),
        ({"dhdp": {"discount": 1e-300}}, "dhdp.discount:"),
        ({"dhdp": {"discount": 1e-300, "alpha1": 1.0, "alpha2": 2.0, "alpha3": 3.0}},
         "dhdp.alpha2:"),
        ({"scenario": 2, "terrain": {"pool_size": 0}}, "terrain.pool_size:"),
        ({"scenario": 2, "terrain": {"switch_period": 0}}, "terrain.switch_period:"),
        ({"quota": 11}, "quota:"),
        ({"max_cycles": 10}, "max_cycles:"),
        ({"scenario": 4}, "scenario:"),
        ({"stage": "tuning"}, "stage:"),
        ({"plant": "spring"}, "plant:"),
        # policy_dir is a path or null in every stage; a testing run needs one
        ({"policy_dir": 5}, "policy_dir:"),
        ({"stage": "testing", "policy_dir": 5}, "policy_dir:"),
        ({"stage": "testing", "policy_dir": True}, "policy_dir:"),
        ({"stage": "testing"}, "policy_dir:"),
        # a drift low-pass outside (0, 1] ran with exit 0; at 5 it multiplied
        # the drift by -4 every cycle
        ({"drift": {"smoothing": -1}}, "drift.smoothing:"),
        ({"drift": {"smoothing": 0}}, "drift.smoothing:"),
        ({"drift": {"smoothing": 1.5}}, "drift.smoothing:"),
        ({"drift": {"gain": 0.1, "smoothing": 5}}, "drift.smoothing:"),
        ({"scenario": 2, "terrain": {"consecutive_tracks": 0}}, "terrain.consecutive_tracks:"),
        ({"terrain": {"consecutive_tracks": -1}}, "terrain.consecutive_tracks:"),
        # these overflowed in a RuntimeWarning, or ran with exit 0
        ({"feature_map": {"noise_std": [1e308, 0.005]}}, "feature_map.noise_std[0]:"),
        ({"feature_map": {"noise_std": [0.005, 2.5]}}, "feature_map.noise_std[1]:"),
        ({"feature_map": {"sensitivity": [[[1e308, 0, 0], [0, 0, 0.85]]] * 4}},
         "feature_map.sensitivity[0][0][0]:"),
        ({"feature_map": {"sensitivity": [[[-0.0015, 0.045, 0], [0, -1e308, 0.85]]] * 4}},
         "feature_map.sensitivity[0][1][1]:"),
        ({"drift": {"gain": 1e308}}, "drift.gain:"),
        ({"drift": {"gain": 1.5}}, "drift.gain:"),
    ]
    for cfg, key in cases:
        code, out = run_cli(tmp_path, small_run_config(trials=1, **cfg))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} "), err
        assert not out.exists()


def test_nested_refusals_name_the_dotted_key(tmp_path, capsys):
    # the nested sections' own checks name the key that was set, not the
    # section alone, a field of the dataclass behind it, or another key
    tolerance = default_config()["bounds"]["tolerance"]
    tolerance[0] = [0.5, 2.0]
    action_scale = default_config()["dhdp"]["action_scale"]
    action_scale[1][0] = -10.0
    impedance = default_config()["feature_map"]["reference_impedance"]
    impedance[2][1] = -1.0
    features = default_config()["feature_map"]["reference_features"]
    features[0][1] = 2.0
    cases = [
        ({"feature_map": {"smoothing": 2}}, "feature_map.smoothing: must lie in (0, 1], got 2.0"),
        ({"dhdp": {"state_cost": [[1, 0], [0, -1]]}},
         "dhdp.state_cost: must be positive definite"),
        ({"dhdp": {"action_cost": [[1, 0, 0], [0, 1, 0], [1, 0, 1]]}},
         "dhdp.action_cost: must be symmetric"),
        ({"dhdp": {"action_scale": action_scale}},
         "dhdp.action_scale[1][0]: must be strictly positive"),
        ({"bounds": {"tolerance": tolerance}},
         "bounds.tolerance[0]: must be tighter than safety in both components"),
        # each of these named the section alone, or the whole list
        ({"feature_map": {"reference_impedance": impedance}},
         "feature_map.reference_impedance[2][1]: damping must be >= 0, got -1.0"),
        ({"feature_map": {"reference_features": features}},
         "feature_map.reference_features[0][1]: must lie in [0, 1.6] rad, got 2.0"),
        ({"feature_map": {"noise_std": [0.005, -0.1]}},
         "feature_map.noise_std[1]: must be non-negative, got -0.1"),
        ({"dhdp": {"alpha1": 2.0, "alpha2": 6.0, "alpha3": 5.0}},
         "dhdp.alpha3: must exceed alpha2"),
        ({"window": 0}, "window: must be at least 1, got 0"),
    ]
    for cfg, message in cases:
        code, out = run_cli(tmp_path, small_run_config(trials=1, **cfg))
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_a_pool_too_large_to_build_and_a_pace_too_small_to_divide_by_exit_2(tmp_path, capsys):
    # a pool is built in the square of its size: 10^12 members kept the run
    # in build_profile_pool past 20 s with no output; a pace of 1e-320 ran
    # with exit 0, three RuntimeWarnings and NaN duration errors in the CSVs
    cases = [
        ({"scenario": 2, "terrain": {"pool_size": 1000000000000}},
         "terrain.pool_size: must be at most 1000, got 1000000000000"),
        ({"scenario": 3, "pace": {"training": [1.0, 1e-320]}},
         "pace.training[1]: must be at least 0.001, got 1e-320"),
        ({"pace": {"testing": [1.0, -0.5]}},
         "pace.testing[1]: must be a positive number, got -0.5"),
    ]
    for cfg, message in cases:
        code, out = run_cli(tmp_path, small_run_config(trials=1, **cfg))
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    # the largest pool and the least pace are taken
    for cfg in ({"scenario": 2, "terrain": {"pool_size": 1000}},
                {"scenario": 3, "pace": {"training": [1.0, 1e-3]}}):
        assert load_config(overrides=cfg)


def test_bound_refusals_name_the_table_and_phase(tmp_path, capsys):
    # both were refused as "bounds: bounds must be positive"
    safety = default_config()["bounds"]["safety"]
    safety[0][0] = -0.1
    tolerance = default_config()["bounds"]["tolerance"]
    tolerance[2][1] = 0.0
    for bounds, message in (({"safety": safety}, "safety[0]: must be positive, got [-0.1, 12.0]"),
                            ({"tolerance": tolerance},
                             "tolerance[2]: must be positive, got [0.0263, 0.0]")):
        code, out = run_cli(tmp_path, small_run_config(trials=1, bounds=bounds))
        assert code == 2
        assert capsys.readouterr().err == f"error: bounds.{message}\n"
        assert not out.exists()


def test_integer_keys_refuse_fractions_and_booleans(tmp_path, capsys):
    # 2.5 trials used to run 2 while config.json recorded 2.5
    cases = [
        ({"trials": 2.5}, "trials"),
        ({"max_cycles": 40.7}, "max_cycles"),
        ({"seed": 3.9}, "seed"),
        ({"seed": 3.0}, "seed"),
        ({"window": True}, "window"),
        ({"dhdp": {"critic_hidden": 8.0}}, "dhdp.critic_hidden"),
        ({"terrain": {"pool_size": 2.5}}, "terrain.pool_size"),
    ]
    for cfg, key in cases:
        code, out = run_cli(tmp_path, small_run_config(**cfg))
        assert code == 2
        assert f"error: {key}: expected an integer" in capsys.readouterr().err
        assert not out.exists()


def assert_refused(tmp_path, capsys, cfg, key):
    """``cfg`` exits 2 naming ``key``, with no traceback, no warning and no output."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(tmp_path, small_run_config(trials=1, max_cycles=20, **cfg))
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {key}:"), err
    assert "Traceback" not in err
    assert caught == []
    assert not out.exists()


def test_range_interval_must_be_two_numbers(tmp_path, capsys):
    # an empty interval raised IndexError and an object KeyError, as tracebacks;
    # a third number was silently dropped
    for interval, j in (([], 0), ({}, 1), ([1.0], 2), ([0.0, 1.0, 1.6], 2)):
        ranges = default_config()["ranges"]
        ranges[2][j] = interval
        assert_refused(tmp_path, capsys, {"ranges": ranges}, f"ranges[2][{j}]")
    ranges = default_config()["ranges"]
    del ranges[1][2]
    assert_refused(tmp_path, capsys, {"ranges": ranges}, "ranges[1]")


def test_wrong_shape_rows_name_their_key(tmp_path, capsys):
    # each of these failed inside a dataclass, with a TypeError or a shape
    # message that did not name the dotted key
    fm = default_config()["feature_map"]
    for row, key in (([0.1], "bounds.safety[3]"), ([0.1, 12.0, 1.0], "bounds.safety[3]")):
        safety = default_config()["bounds"]["safety"]
        safety[3] = row
        assert_refused(tmp_path, capsys, {"bounds": {"safety": safety}}, key)
    features = copy.deepcopy(fm["reference_features"])
    features[0] = [0.3, 0.33, 0.1]
    assert_refused(tmp_path, capsys, {"feature_map": {"reference_features": features}},
                   "feature_map.reference_features[0]")
    impedance = copy.deepcopy(fm["reference_impedance"])
    impedance[0] = [55.0, 1.4]
    assert_refused(tmp_path, capsys, {"feature_map": {"reference_impedance": impedance}},
                   "feature_map.reference_impedance[0]")
    assert_refused(tmp_path, capsys, {"dhdp": {"state_cost": np.eye(3).tolist()}},
                   "dhdp.state_cost")
    assert_refused(tmp_path, capsys,
                   {"dhdp": {"action_scale": default_config()["dhdp"]["action_scale"][:3]}},
                   "dhdp.action_scale")
    assert_refused(tmp_path, capsys, {"feature_map": {"sensitivity": fm["sensitivity"][:3]}},
                   "feature_map.sensitivity")


def test_numeric_lists_refuse_null(tmp_path, capsys):
    # a null sensitivity made NaN features and a plant ValueError traceback
    sensitivity = default_config()["feature_map"]["sensitivity"]
    sensitivity[1][0][2] = None
    assert_refused(tmp_path, capsys, {"feature_map": {"sensitivity": sensitivity}},
                   "feature_map.sensitivity[1][0][2]")
    assert_refused(tmp_path, capsys, {"pace": {"testing": [1.0, "fast"]}}, "pace.testing[1]")


def test_numeric_lists_refuse_booleans(tmp_path, capsys):
    # a true safety bound ran as 1.0, with exit 0
    safety = default_config()["bounds"]["safety"]
    safety[3][0] = True
    assert_refused(tmp_path, capsys, {"bounds": {"safety": safety}}, "bounds.safety[3][0]")


def test_init_weight_scale_has_a_finite_ceiling(tmp_path, capsys):
    # 1e308 overflowed the uniform draw's width in an OverflowError traceback
    for scale in (1e308, 2e6):
        assert_refused(tmp_path, capsys, {"dhdp": {"init_weight_scale": scale}},
                       "dhdp.init_weight_scale")


# the input scan's bad values, each set in turn at every leaf of the tree
# (an integer past the largest double overflowed where it was converted)
BAD_VALUES = [None, True, "fast", [], {}, -1, 0, 0.0, 1e308, -1e308, [1], [[1, 2]], 1.5,
              10**400, -10**400]


def leaf_paths(node, path=()):
    """The path of every value in a config tree that is not an object, lists included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    else:
        yield path
        for i, value in enumerate(node if isinstance(node, list) else ()):
            yield from leaf_paths(value, path + (i,))


def names_a_key(head: str) -> bool:
    """Whether ``head`` is the dotted key of a leaf of the default tree, or of
    an entry of a list there: anything but a section."""
    if not re.fullmatch(r"\w+(\.\w+)*(\[\d+\])*", head):
        return False
    node = default_config()
    for name, index in re.findall(r"(\w+)|\[(\d+)\]", head):
        if isinstance(node, dict) and name in node:
            node = node[name]
        elif isinstance(node, list) and index and int(index) < len(node):
            node = node[int(index)]
        else:
            return False
    return not isinstance(node, dict)


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(list(leaf_paths(default_config()))),
       bad=st.sampled_from(BAD_VALUES))
@example(path=("drift", "smoothing"), bad=1.5)
@example(path=("terrain", "consecutive_tracks"), bad=0)
@example(path=("feature_map", "noise_std", 0), bad=1e308)
@example(path=("feature_map", "sensitivity", 1, 0, 2), bad=-1e308)
@example(path=("drift", "gain"), bad=1e308)
@example(path=("bounds", "safety", 3), bad=[1])
@example(path=("dhdp", "state_cost"), bad=[[1, 2]])
@example(path=("ranges", 2, 1), bad={})
@example(path=("dhdp", "init_weight_scale"), bad=1e308)
@example(path=("init_spread",), bad=0)  # no initial draw is feasible: exit 1
@example(path=("init_spread",), bad=10**400)
@example(path=("pace", "training", 0), bad=-10**400)
# a refusal at each of these entries named only its section or whole list
@example(path=("feature_map", "reference_impedance", 0, 0), bad=1.5)
@example(path=("ranges", 0, 1, 0), bad=1.5)
@example(path=("dhdp", "action_scale", 0, 0), bad=1.5)
@example(path=("bounds", "safety", 0, 1), bad=1.5)
@example(path=("feature_map", "reference_impedance", 0, 0), bad=-1)
@example(path=("ranges", 0, 1, 0), bad=-1)
@example(path=("dhdp", "action_scale", 0, 0), bad=-1)
def test_a_bad_leaf_exits_cleanly(path, bad):
    # no traceback and no warning: a run ends in 0, or in 1 or a one-line
    # refusal (2), either of which leaves no output directory; a refusal
    # names a key of the tree, a leaf or an entry, never a section
    tree = default_config()
    tree.update(trials=1, max_cycles=20)
    node = tree
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = copy.deepcopy(bad)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(tree))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code in (0, 1, 2)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not out.exists()
        if code == 2:
            assert names_a_key(lines[0].removeprefix("error: ").partition(":")[0]), lines


def test_monitor_alphas_are_numbers_set_together(tmp_path, capsys):
    # alpha2 and alpha3 were read only when alpha1 was set, so any value passed
    assert_refused(tmp_path, capsys, {"dhdp": {"alpha1": None, "alpha2": "x"}}, "dhdp.alpha2")
    assert_refused(tmp_path, capsys, {"dhdp": {"alpha1": 2.0}}, "dhdp.alpha2")
    assert_refused(tmp_path, capsys, {"dhdp": {"alpha3": 20.0}}, "dhdp.alpha1")
    assert_refused(tmp_path, capsys, {"dhdp": {"alpha1": True, "alpha2": 6.0, "alpha3": 12.0}},
                   "dhdp.alpha1")
    # all three set, and the monitor's own rule refuses them
    assert_refused(tmp_path, capsys, {"dhdp": {"alpha1": 0.5, "alpha2": 6.0, "alpha3": 12.0}},
                   "dhdp.alpha1")
    code, _ = run_cli(tmp_path, small_run_config(
        trials=1, max_cycles=20, dhdp={"alpha1": 2.0, "alpha2": 6.0, "alpha3": 12.0}))
    assert code == 0


def test_overrides_beat_file_values(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": 2, "seed": 5}))
    resolved = load_config(path, {"scenario": 3, "seed": None})
    assert resolved["scenario"] == 3    # flag wins
    assert resolved["seed"] == 5        # file value kept when flag absent


def test_overrides_pass_the_file_checks(tmp_path):
    # a section override merges into its section, over the file's values
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dhdp": {"actor_lr": 0.02}}))
    resolved = load_config(path, {"dhdp": {"critic_lr": 1e3}})
    assert resolved["dhdp"]["critic_lr"] == 1e3
    assert resolved["dhdp"]["actor_lr"] == 0.02
    assert resolved["dhdp"]["critic_hidden"] == default_config()["dhdp"]["critic_hidden"]
    # a bad override names its dotted key, as the same value in the file does
    for overrides, message in (
        ({"bounds": 3}, "bounds: expected an object"),
        ({"dhdp": {"critic_lr": "fast"}}, "dhdp.critic_lr: expected a number"),
        ({"dhdp": {"critic_lr": -1.0}}, "dhdp.critic_lr: must be positive"),
        ({"dhdp": {"nope": 1}}, "unknown config key: dhdp.nope"),
        ({"nope": 1}, "unknown config key: nope"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(None, overrides)
    # an override is checked against the defaults, not against the file: a
    # float the file writes as an integer still takes a fraction, and an
    # empty pace list in the file still takes a pace override
    path.write_text(json.dumps({"dhdp": {"critic_lr": 1}}))
    assert load_config(path, {"dhdp": {"critic_lr": 0.5}})["dhdp"]["critic_lr"] == 0.5
    path.write_text(json.dumps({"pace": {"training": []}}))
    assert load_config(path, {"pace": {"training": [1.0, 1.2]}})["pace"]["training"] == [1.0, 1.2]
    with pytest.raises(ConfigError, match=re.escape("pace.training: needs at least one")):
        load_config(path)


def test_default_config_round_trips_through_json():
    blob = json.dumps(default_config())
    assert json.loads(blob) == default_config()


def _fingerprint(value):
    """Each leaf's type and exact value: ``float.hex`` for floats, dtype and bytes for arrays."""
    if dataclasses.is_dataclass(value):
        return {f.name: _fingerprint(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return [str(value.dtype), list(value.shape), value.tobytes().hex()]
    if isinstance(value, (tuple, list)):
        return [type(value).__name__, [_fingerprint(v) for v in value]]
    if isinstance(value, float):
        return [type(value).__name__, value.hex()]
    return [type(value).__name__, value]


# valid trees, several with integer-valued floats, whose typed build is pinned
GOLDEN_TREES = {
    "defaults": {},
    "scenario2": {"scenario": 2, "terrain": {"pool_size": 3, "pool_spread": 0.1,
                                             "switch_period": 15, "consecutive_tracks": 2}},
    "scenario3": {"scenario": 3, "stage": "testing"},
    "ode_integer_floats": {"plant": "ode", "ode": {
        "inertia": 1, "timestep": 0.005, "initial_angle": 0, "initial_velocity": 1,
        "load_torque": [-2, -1.5, -4, -3], "max_phase_time": 3, "velocity_limit": 40}},
    "alphas": {"dhdp": {"alpha1": 2, "alpha2": 6.0, "alpha3": 12}},
    "dhdp": {"strict_monitor": True, "load_critic": True, "dhdp": {
        "critic_hidden": 5, "actor_hidden": 4, "discount": 0.9, "critic_lr": 1,
        "actor_lr": 20, "init_weight_scale": 1, "state_cost": [[2, 0], [0, 1]],
        "action_cost": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "action_scale": [[5, 1, 0.1], [5, 1, 0.1], [4, 1, 0.2], [4, 1, 0.2]]}},
    "bounds": {"bounds": {"safety": [[0.2, 10], [0.15, 11.5], [0.2, 12], [0.1, 9]],
                          "tolerance": [[0.03, 2], [0.02, 1], [0.05, 3.5], [0.01, 1]]}},
    "ranges": {"init_spread": 0, "ranges": [[[10, 90], [0, 4], [0.1, 1.5]]] * 4},
    "noise": {"feature_map": {"noise_std": [0, 0.01], "smoothing": 1,
                              "pace_passthrough": 0}},
    "feature_map": {"feature_map": {
        "reference_impedance": [[50, 1, 0.3], [40, 1, 0.1], [20, 1, 1], [15, 1, 0.2]],
        "reference_features": [[0.3, 0.3], [0.3, 0], [0.35, 1], [0.25, 0.3]],
        "sensitivity": [[[-0.001, 0.04, 0], [0, 0, 1]]] * 4}},
    "integer_arrays": {"feature_map": {"sensitivity": [[[0, 0, 0], [0, 0, 1]]] * 4},
                       "dhdp": {"action_scale": [[10, 1, 1]] * 4}},
    "paces": {"scenario": 3, "max_cycles": 300, "window": 12, "quota": 9, "rms_window": 5,
              "pace": {"training": [1, 1.1], "testing": [0.9]},
              "drift": {"gain": 0.1, "smoothing": 1}},
}


def test_config_schema_matches_the_golden_digests():
    # recorded before the config schema was derived from the dataclass defaults
    want = json.loads((GOLDEN / "config_sha256.json").read_text())
    got = {"default_config": hashlib.sha256(
        json.dumps(default_config(), sort_keys=True).encode()).hexdigest()}
    for name, tree in GOLDEN_TREES.items():
        cfg = trial_config_from(load_config(None, tree))
        got[name] = hashlib.sha256(
            json.dumps(_fingerprint(cfg), sort_keys=True).encode()).hexdigest()
    assert got == want


# A tree handed to trial_config_from skips the file's length checks.  These
# tables ran into an IndexError (3 ranges) or a ValueError mid-run (3 loads,
# 3 noise levels, 3 reference features), or ignored a fifth load.  A bounds
# table's refusal opens with no field name, so the key of its section names it.
WRONG_LENGTHS = [
    (("ranges",), 3, "ranges: needs 4 entries, got 3"),
    (("ode", "load_torque"), 3, "ode.load_torque: needs 4 entries, got 3"),
    (("ode", "load_torque"), 5, "ode.load_torque: needs 4 entries, got 5"),
    (("feature_map", "noise_std"), 3, "feature_map.noise_std: needs 2 entries, got 3"),
    (("feature_map", "reference_features"), 3,
     "feature_map.reference_features: needs 4 entries, got 3"),
    (("bounds", "safety"), 3, "bounds: bounds tables need one entry per phase"),
]


@pytest.mark.parametrize("path, size, message", WRONG_LENGTHS,
                         ids=[f"{size}-{'.'.join(path)}" for path, size, _ in WRONG_LENGTHS])
def test_trial_config_from_names_the_key_of_a_table_of_the_wrong_length(path, size, message):
    tree = default_config()
    *sections, name = path
    node = tree
    for section in sections:
        node = node[section]
    node[name] = (node[name] * 2)[:size]
    with pytest.raises(ConfigError) as exc:
        trial_config_from(tree)
    assert str(exc.value) == message


def test_bad_section_value_reports_section(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dhdp": {"discount": 1.5}}))
    with pytest.raises(ConfigError, match="dhdp"):
        trial_config_from(load_config(path))


# ---------------------------------------------------------------------------
# run subcommand


def run_cli(tmp_path, cfg_dict, *flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict))
    out = tmp_path / "out"
    return main(["run", "--config", str(cfg_path), "--out", str(out), *flags]), out


def test_run_training_writes_all_outputs(tmp_path, capsys):
    code, out = run_cli(tmp_path, small_run_config())
    assert code == 0
    assert (out / "config.json").exists()
    assert (out / "summary.json").exists()
    assert sorted(p.name for p in (out / "trials").glob("trial_*.csv")) == [
        "trial_000.csv", "trial_001.csv", "trial_002.csv"]
    assert (out / "plots" / "rms_summary.csv").exists()
    assert (out / "plots" / "tracking_error_phase1.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema"] == "kneetrack-batch"
    assert summary["trials"] == 3
    assert "success_rate" in summary and "tuning_steps_mean" in summary
    assert (out / "policies" / "policy_01.json").exists()
    assert "succeeded" in capsys.readouterr().out
    # a log that cannot be written ended in a traceback
    blocked = tmp_path / "blocked"
    log = blocked / "trials" / "trial_001.csv"
    log.mkdir(parents=True)
    code = main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(blocked)])
    assert_one_error(capsys, code, 1, f"[Errno 21] Is a directory: '{log}'")


def test_run_missing_config_nonzero_exit(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.json")])
    assert code != 0
    assert "config not found" in capsys.readouterr().err


def test_run_testing_needs_policy_dir(tmp_path, capsys):
    code, out = run_cli(tmp_path, small_run_config(stage="testing"))
    assert code == 2
    assert "policy_dir" in capsys.readouterr().err
    assert not out.exists()


def test_run_testing_on_a_directory_without_policies_exits_1(tmp_path, capsys):
    policies = tmp_path / "policies"
    policies.mkdir()
    (policies / "notes.json").write_text("{}")
    code, out = run_cli(tmp_path, small_run_config(stage="testing", policy_dir=str(policies)))
    assert_one_error(capsys, code, 1, f"no policy snapshots found in {policies}")
    assert not out.exists()


def test_a_nan_knee_velocity_exits_1(tmp_path, capsys):
    # the spring and damper of phase 1 pull against each other into a NaN
    # torque; the NaN velocity passed the velocity limit and ended in a
    # ValueError traceback from GaitFeatures
    impedance = default_config()["feature_map"]["reference_impedance"]
    impedance[0] = [1.7e308, 1.7e308, 1.6]
    cfg = {"ode": {"initial_velocity": 10.0}, "init_spread": 0.0,
           "feature_map": {"reference_impedance": impedance}, "trials": 2}
    code, out = run_cli(tmp_path, cfg, "--plant", "ode")
    assert_one_error(capsys, code, 1, "knee velocity nan rad/s exceeds")
    assert not out.exists()


def test_a_diverged_reference_walk_exits_1(tmp_path, capsys):
    # at 8 rad/s the target's own reference walk diverges, so no trial can
    # start; a diverged draw candidate alone no longer refuses a batch
    cfg = {"trials": 6, "max_cycles": 30, "ode": {"velocity_limit": 8.0}}
    code, out = run_cli(tmp_path, cfg, "--plant", "ode", "--seed", "0")
    assert_one_error(capsys, code, 1, "knee velocity -8.5 rad/s exceeds 8.0 rad/s in phase SWE")
    assert not out.exists()
    assert_no_child_left()


def test_run_testing_loads_policies(tmp_path):
    code, out = run_cli(tmp_path, small_run_config())
    assert code == 0
    test_cfg = small_run_config(stage="testing", trials_per_policy=2,
                                policy_dir=str(out / "policies"))
    cfg_path = tmp_path / "cfg2.json"
    cfg_path.write_text(json.dumps(test_cfg))
    out2 = tmp_path / "out2"
    code = main(["run", "--config", str(cfg_path), "--out", str(out2)])
    assert code == 0
    summary = json.loads((out2 / "summary.json").read_text())
    assert summary["stage"] == "testing"
    assert summary["trials"] == 2 * len(list((out / "policies").glob("policy_*.json")))


def test_run_strict_monitor_halts_on_forced_violation(tmp_path):
    cfg = small_run_config(trials=1)
    cfg["dhdp"] = {"critic_lr": 1e9, "actor_lr": 1e9}
    code, out = run_cli(tmp_path, cfg, "--strict-monitor")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    trial = summary["trial_summaries"][0]
    assert trial["outcome"] == "failure"
    assert trial["failure_reason"] == "monitor-violation"
    assert summary["monitor_violations"] >= 1


def test_run_with_diverging_weights_emits_no_warning(tmp_path):
    # rates far above the monitor ceilings overflow the weights; the trial
    # ends in a numeric fault, and numpy's overflow warnings stay inside
    cfg = {"dhdp": {"critic_lr": 1000.0, "actor_lr": 1000000.0}, "trials": 1, "seed": 7}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(tmp_path, cfg)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trial_summaries"][0]["failure_reason"].startswith("numeric-fault")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def zero_policy_dir(tmp_path):
    """A policy directory holding one actor+critic snapshot of all-zero weights."""
    dhdp = TrialConfig().dhdp
    policies = tmp_path / "policies"
    policies.mkdir()
    save_policy(policies / "policy_01.json",
                [ActorNet(np.zeros((dhdp.actor_hidden, 2)), np.zeros((3, dhdp.actor_hidden)))] * 4,
                [CriticNet(np.zeros((dhdp.critic_hidden, 5)), np.zeros(dhdp.critic_hidden))] * 4)
    return policies


@pytest.mark.parametrize("cfg, ratios", [
    # the weights of trial 2 grow past the largest double times their start:
    # the ratio overflowed to Infinity
    ({"trials": 5, "dhdp": {"critic_lr": 1000.0, "actor_lr": 1000000.0},
      "drift": {"gain": 0.3}}, {2: 1.7976931348623157e308}),
    # zero weights stay zero, and 0 / 0 was NaN
    ({"stage": "testing", "load_critic": True, "trials_per_policy": 2, "max_cycles": 40},
     {0: 1.0, 1: 1.0}),
], ids=["overflow", "all-zero"])
def test_max_weight_ratio_is_always_a_json_number(tmp_path, cfg, ratios):
    if cfg.get("stage") == "testing":
        cfg = cfg | {"policy_dir": str(zero_policy_dir(tmp_path))}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(tmp_path, cfg)
    assert code == 0
    assert caught == []
    docs = {path: json.loads(path.read_text(), parse_constant=refuse_constant)
            for path in out.rglob("*.json")}
    summary = docs[out / "summary.json"]
    for trial, ratio in ratios.items():
        assert summary["trial_summaries"][trial]["max_weight_ratio"] == ratio
        assert docs[out / "trials" / f"trial_{trial:03d}.json"]["max_weight_ratio"] == ratio


def test_load_critic_refuses_a_policy_without_critics():
    # an actor-only policy quietly tuned fresh critics under load_critic
    actors = [init_actor(np.random.default_rng(19)) for _ in range(4)]
    with pytest.raises(ConfigError, match="^load_critic: the policy has no critic weights$"):
        Trial(TrialConfig(load_critic=True, max_cycles=40), 3, policy=(actors, None))


def test_load_critic_on_actor_only_snapshots_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(19)
    policies = tmp_path / "policies"
    policies.mkdir()
    save_policy(policies / "policy_01.json", [init_actor(rng) for _ in range(4)])
    code, out = run_cli(tmp_path, small_run_config(stage="testing", load_critic=True,
                                                   policy_dir=str(policies)))
    assert_one_error(capsys, code, 2, "load_critic: the policy has no critic weights")
    assert not out.exists()


def test_run_deterministic_outputs(tmp_path):
    cfg = small_run_config(trials=2)
    _, out_a = run_cli(tmp_path, cfg)
    cfg_path = tmp_path / "cfg_b.json"
    cfg_path.write_text(json.dumps(cfg))
    out_b = tmp_path / "out_b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    for rel in ["summary.json", "trials/trial_000.csv", "trials/trial_001.csv",
                "plots/rms_summary.csv"]:
        a = (out_a / rel).read_bytes()
        b = (out_b / rel).read_bytes()
        if rel == "summary.json":
            # output paths differ inside the config echo only, not here
            assert a == b
        else:
            assert a == b


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_writer_and_several_write_the_same_tree(tmp_path, monkeypatch):
    # trial i's files are written by writer i % W, W being the CPUs this
    # process may run on; the same relative --out makes config.json match too
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    trees = {}
    for cpus in ({0}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        home = tmp_path / f"cpus{len(cpus)}"
        home.mkdir()
        monkeypatch.chdir(home)
        (home / "cfg.json").write_text(json.dumps({"trials": 5, "max_cycles": 40}))
        forks.clear()
        assert main(["run", "--config", "cfg.json", "--out", "out"]) == 0
        assert_no_child_left()
        assert len(forks) == len(cpus) - 1
        trees[len(cpus)] = {path.relative_to(home).as_posix(): path.read_bytes()
                            for path in sorted((home / "out").rglob("*")) if path.is_file()}
    assert len([name for name in trees[3] if name.startswith("out/trials/")]) == 10
    assert trees[1] == trees[3]


@pytest.mark.parametrize("blocked", ["trial_001.csv", "trial_000.csv"])
def test_a_trial_file_refused_in_any_writer_exits_1(tmp_path, monkeypatch, capsys, blocked):
    # with three CPUs there are two forked writers: trial_000 is the first's,
    # trial_001 the second's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    log = tmp_path / "out" / "trials" / blocked
    log.mkdir(parents=True)
    code, _ = run_cli(tmp_path, {"trials": 5, "max_cycles": 40})
    assert_one_error(capsys, code, 1, f"[Errno 21] Is a directory: '{log}'")
    assert_no_child_left()


def test_trial_i_goes_to_writer_i_mod_the_writers(tmp_path, monkeypatch, capsys):
    # two forked writers: trials 0, 2, 4 are the first's and 1, 3 the
    # second's, so with trial_001 and trial_002 refused the first writer
    # refuses trial_002, and the first writer's refusal is the one raised
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    for name in ("trial_001.csv", "trial_002.csv"):
        (tmp_path / "out" / "trials" / name).mkdir(parents=True)
    code, out = run_cli(tmp_path, {"trials": 5, "max_cycles": 40})
    assert_one_error(capsys, code, 1, "[Errno 21] Is a directory: "
                     f"'{out / 'trials' / 'trial_002.csv'}'")
    assert_no_child_left()


def test_a_writer_that_refused_a_file_still_drains_its_pipe(tmp_path, monkeypatch, capsys):
    # one forked writer whose pipe stays at its default size, the enlargement
    # refused: the five logs it is sent outgrow the pipe, and after it cannot
    # write trial_000 it reads the rest to the end, so the run reports that
    # refusal and not a broken pipe
    import fcntl

    def refuse(*args):
        raise PermissionError("pipe size refused")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(fcntl, "fcntl", refuse)
    log = tmp_path / "out" / "trials" / "trial_000.csv"
    log.mkdir(parents=True)
    code, _ = run_cli(tmp_path, {"trials": 5, "max_cycles": 100})
    assert_one_error(capsys, code, 1, f"[Errno 21] Is a directory: '{log}'")
    assert_no_child_left()


def test_a_trial_file_refused_in_the_only_writer_exits_1(tmp_path, monkeypatch, capsys):
    # with one CPU this process writes each trial's files as the trial leaves,
    # and forks no writer
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a writer on one CPU"))
    log = tmp_path / "out" / "trials" / "trial_000.csv"
    log.mkdir(parents=True)
    code, _ = run_cli(tmp_path, {"trials": 5, "max_cycles": 40})
    assert_one_error(capsys, code, 1, f"[Errno 21] Is a directory: '{log}'")


@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}], ids=["one-cpu", "three-cpus"])
def test_a_failure_after_trials_have_left_exits_1(tmp_path, monkeypatch, capsys, cpus):
    # the batch fails once its first trials have left and gone to the writers:
    # one error line, every writer reaped, and the files of the trials that
    # left, but no batch document
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    leave, left = harness._Lockstep._leave, []

    def leave_then_fail(self):
        left.extend(self._index[self._ended].tolist())
        leave(self)
        raise RuntimeError("the lockstep failed")

    monkeypatch.setattr(harness._Lockstep, "_leave", leave_then_fail)
    code, out = run_cli(tmp_path, {"trials": 5, "max_cycles": 40})
    assert_one_error(capsys, code, 1, "the lockstep failed")
    assert_no_child_left()
    assert left
    assert sorted(path.relative_to(out).as_posix() for path in out.rglob("*")) == ["trials"] + [
        f"trials/trial_{i:03d}.{ext}" for i in left for ext in ("csv", "json")]


def test_run_outputs_match_the_golden_digests(tmp_path):
    # every output byte of a small scenario-2 batch, recorded before the
    # dHDP contractions moved to numpy's gufuncs; config.json is compared
    # without its out_dir, the only entry that names the run's location
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 3, "max_cycles": 60}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--scenario", "2", "--stage", "training",
                 "--seed", "5", "--out", str(out)]) == 0
    got = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "config.json":
            doc = json.loads(data)
            doc.pop("out_dir")
            data = json.dumps(doc, sort_keys=True).encode()
        got[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    want = json.loads((GOLDEN / "scenario2_run_sha256.json").read_text())
    assert got == want


# ---------------------------------------------------------------------------
# policy subcommands


def test_save_policy_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(3)
    src = tmp_path / "p.json"
    save_policy(src, [init_actor(rng) for _ in range(4)],
                [init_critic(rng) for _ in range(4)])
    dest = tmp_path / "q.json"
    assert main(["save-policy", str(src), str(dest)]) == 0
    assert src.read_bytes() == dest.read_bytes()
    # into a directory that does not exist: a traceback once
    missing = tmp_path / "missing" / "q.json"
    code = main(["save-policy", str(src), str(missing)])
    assert_one_error(capsys, code, 1, f"[Errno 2] No such file or directory: '{missing}'")


def test_save_policy_refuses_a_bad_source(tmp_path, capsys):
    src, dest = tmp_path / "p.json", tmp_path / "q.json"
    src.write_text("{not json")
    code = main(["save-policy", str(src), str(dest)])
    assert_one_error(capsys, code, 1, f"cannot read policy snapshot {src}")
    assert not dest.exists()


def test_load_policy_refuses_a_refused_config(tmp_path, capsys):
    rng = np.random.default_rng(4)
    snap, cfg_path = tmp_path / "p.json", tmp_path / "cfg.json"
    save_policy(snap, [init_actor(rng) for _ in range(4)])
    cfg_path.write_text(json.dumps({"dhdp": {"critic_hidden": 0}}))
    code = main(["load-policy", str(snap), "--config", str(cfg_path)])
    assert_one_error(capsys, code, 2, "dhdp.critic_hidden: must be at least 1, got 0")


def test_load_policy_validates(tmp_path, capsys):
    rng = np.random.default_rng(4)
    snap = tmp_path / "p.json"
    save_policy(snap, [init_actor(rng) for _ in range(4)])
    assert main(["load-policy", str(snap)]) == 0
    assert "actor-only" in capsys.readouterr().out


def test_load_policy_shape_mismatch(tmp_path, capsys):
    rng = np.random.default_rng(5)
    snap = tmp_path / "p.json"
    save_policy(snap, [init_actor(rng, hidden=3) for _ in range(4)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({}))
    code = main(["load-policy", str(snap), "--config", str(cfg_path)])
    assert code == 1
    assert "expected 6, found 3" in capsys.readouterr().err


def test_load_policy_garbage_file(tmp_path, capsys):
    rng = np.random.default_rng(5)
    snap = tmp_path / "p.json"
    save_policy(snap, [init_actor(rng) for _ in range(4)],
                [init_critic(rng) for _ in range(4)])
    valid = json.loads(snap.read_text())
    missing_key = copy.deepcopy(valid)
    del missing_key["phases"][1]["actor_output"]
    wrong_shape = copy.deepcopy(valid)
    wrong_shape["phases"][0]["actor_output"]["shape"].reverse()
    nan_weight = copy.deepcopy(valid)
    nan_weight["phases"][2]["critic_hidden"]["data"][0] = float("nan")
    number_matrix = copy.deepcopy(valid)
    number_matrix["phases"][1]["actor_hidden"] = 3
    short_data = copy.deepcopy(valid)
    short_data["phases"][3]["critic_hidden"]["data"].pop()
    three_phases = {**valid, "phases": valid["phases"][:3]}

    # text that is not UTF-8 ended in a traceback
    for data in (b"{not json", b'{"format": "caf\xe9"}', *(json.dumps(doc).encode() for doc in (
            [valid], missing_key, wrong_shape, nan_weight, number_matrix, short_data,
            three_phases))):
        snap.write_bytes(data)
        assert main(["load-policy", str(snap)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_load_policy_refuses_non_numbers(tmp_path, capsys):
    # a weight true read as 1.0, "0.5" as 0.5 and a shape entry 6.7 as 6
    rng = np.random.default_rng(5)
    snap = tmp_path / "p.json"
    save_policy(snap, [init_actor(rng) for _ in range(4)],
                [init_critic(rng) for _ in range(4)])
    valid = json.loads(snap.read_text())
    for matrix, key, index, value in [
        ("actor_hidden", "data", 0, True),
        ("critic_output", "data", 1, "0.5"),
        ("actor_output", "shape", 1, 6.7),
        ("critic_hidden", "shape", 0, True),
        ("actor_hidden", "shape", 0, -6),
    ]:
        doc = copy.deepcopy(valid)
        doc["phases"][2][matrix][key][index] = value
        snap.write_text(json.dumps(doc))
        assert main(["load-policy", str(snap)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and matrix in err


def test_load_policy_refuses_critics_in_some_phases_only(tmp_path, capsys):
    # it was reported a valid actor-only snapshot, exit 0
    rng = np.random.default_rng(7)
    snap = tmp_path / "p.json"
    save_policy(snap, [init_actor(rng) for _ in range(4)],
                [init_critic(rng) for _ in range(4)])
    doc = json.loads(snap.read_text())
    for entry in doc["phases"][2:]:
        del entry["critic_hidden"], entry["critic_output"]
    snap.write_text(json.dumps(doc))
    code = main(["load-policy", str(snap)])
    assert_one_error(capsys, code, 1, f"{snap}: phases[2]: lacks critic weights, unlike phases[0]")


def test_load_policy_refuses_other_versions_and_reordered_phases(tmp_path, capsys):
    # both loaded as "valid"; a swapped snapshot ran phase 2's actor in phase 1
    rng = np.random.default_rng(6)
    snap = tmp_path / "p.json"
    save_policy(snap, [init_actor(rng) for _ in range(4)],
                [init_critic(rng) for _ in range(4)])
    valid = json.loads(snap.read_text())
    swapped = copy.deepcopy(valid)
    swapped["phases"][:2] = swapped["phases"][1::-1]
    for doc, message in (({**valid, "version": "banana"}, "version: expected 1, got 'banana'"),
                         ({**valid, "version": True}, "version: expected 1, got True"),
                         (swapped, "phases[0].phase: expected 1, got 2")):
        snap.write_text(json.dumps(doc))
        assert main(["load-policy", str(snap)]) == 1
        assert capsys.readouterr().err == f"error: {snap}: {message}\n"


def policy_snapshot() -> dict:
    """A stored actor+critic policy with the default network sizes."""
    rng = np.random.default_rng(8)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "policy_01.json"
        save_policy(path, [init_actor(rng) for _ in range(4)],
                    [init_critic(rng) for _ in range(4)])
        return json.loads(path.read_text())


# values no snapshot leaf may take, from the shape entries and version to
# the weights; json writes the non-finite ones as NaN and Infinity
BAD_POLICY_VALUES = [None, True, False, "fast", [], {}, [1], [[1, 2]], 2.5, -1,
                     float("nan"), float("inf"), -float("inf"), 10**400, -10**400]
# finite numbers, which are valid weights: only the leaves that are no weight take them
NUMBERS = (2.5, -1)


@settings(max_examples=40, deadline=None)
@given(path=st.sampled_from(list(leaf_paths(policy_snapshot()))),
       bad=st.sampled_from(BAD_POLICY_VALUES))
@example(path=("phases", 1, "phase"), bad=2.5)
@example(path=("phases", 0, "critic_output", "shape", 0), bad=-1)
@example(path=("phases", 3, "actor_hidden", "data", 5), bad=float("nan"))
@example(path=("version",), bad=True)
@example(path=("phases", 2, "critic_hidden", "data", 7), bad=10**400)
def test_a_bad_snapshot_leaf_exits_cleanly(path, bad):
    # load-policy and a testing run on the snapshot each refuse it: exit 1
    # or 2 with one error line, no traceback, no warning, no output directory
    assume(not (bad in NUMBERS and path[-2:-1] == ("data",)))
    doc = policy_snapshot()
    node = doc
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = copy.deepcopy(bad)
    with tempfile.TemporaryDirectory() as tmp:
        policies, out = Path(tmp) / "policies", Path(tmp) / "out"
        policies.mkdir()
        snap = policies / "policy_01.json"
        snap.write_text(json.dumps(doc))
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps({"stage": "testing", "policy_dir": str(policies),
                                        "trials_per_policy": 1, "max_cycles": 20}))
        for argv in (["load-policy", str(snap), "--config", str(cfg_path)],
                     ["run", "--config", str(cfg_path), "--out", str(out)]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
            assert code in (1, 2), (argv[0], code)
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert caught == []
            assert not out.exists()


# 4 PB of convergence windows for the lockstep, and 4 PB of critic weights:
# more than a 64-bit process can map, so each allocation fails at once.  Each
# ended in a numpy MemoryError traceback.
@pytest.mark.parametrize("cfg", [
    {"window": 10**15, "quota": 1, "max_cycles": 10**15 + 1},
    {"max_cycles": 20, "dhdp": {"critic_hidden": 10**14}},
], ids=["window", "critic_hidden"])
def test_a_size_that_cannot_be_allocated_exits_1(tmp_path, capsys, cfg):
    code, out = run_cli(tmp_path, {"trials": 1, **cfg})
    assert_one_error(capsys, code, 1, "Unable to allocate")
    assert not out.exists()


def test_a_pool_no_safety_bound_admits_exits_1(tmp_path, capsys):
    # scenario 2's terrain pool must fit inside the safety bounds; at 1e-4
    # rad and 0.01 % no pool can, and the run stops before any trial
    safety, tolerance = [[1e-4, 0.01]] * 4, [[5e-5, 0.005]] * 4
    cfg = trial_config_from(load_config(None, {"scenario": 2, "bounds": {
        "safety": safety, "tolerance": tolerance}}))
    with pytest.raises(RuntimeError, match="could not build a mutually trackable profile pool"):
        Trial(cfg, 0)
    code, out = run_cli(tmp_path, small_run_config(
        scenario=2, bounds={"safety": safety, "tolerance": tolerance}))
    assert_one_error(capsys, code, 1, "could not build a mutually trackable profile pool")
    assert not out.exists()


# ---------------------------------------------------------------------------
# report subcommand


def test_report_aggregates_directory(tmp_path, capsys):
    code, out = run_cli(tmp_path, small_run_config())
    assert code == 0
    assert main(["report", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == "kneetrack-report"
    row = report["results"][0]
    assert row["scenario"] == 1 and row["stage"] == "training"
    assert 0.0 <= row["success_rate"] <= 1.0
    assert (out / "report_rms.csv").read_text().startswith("scenario,stage,metric")


def test_report_empty_directory_fails(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    assert "no trial summaries" in capsys.readouterr().err
    # each summary is skipped with a warning, and then the report fails
    trials = tmp_path / "trials"
    trials.mkdir()
    (trials / "trial_000.json").write_text("{broken")
    (trials / "trial_001.json").write_text("[1]")
    code = main(["report", str(tmp_path)])
    assert_one_error(capsys, code, 1, f"no readable trial summaries under {tmp_path}")
    assert not (tmp_path / "report.json").exists()


def test_report_skips_malformed_json(tmp_path, capsys):
    code, out = run_cli(tmp_path, small_run_config(trials=2))
    assert code == 0
    (out / "trials" / "trial_998.json").write_text("[1]")
    (out / "trials" / "trial_999.json").write_text("{broken")
    # summaries that parse but hold a field of the wrong type
    good = json.loads((out / "trials" / "trial_000.json").read_text())
    wrong_types = [{"rms_initial": [1, 2]}, {"tuning_steps": "ten"},
                   {"scenario": [1]}, {"scenario": "1"}]
    for n, fields in enumerate(wrong_types, start=994):
        (out / "trials" / f"trial_{n}.json").write_text(json.dumps({**good, **fields}))
    # a document of another schema is passed over: neither read nor counted
    (out / "trials" / "trial_993.json").write_text(json.dumps({**good, "schema": "other"}))
    # a directory by a summary's name ended in a traceback
    (out / "trials" / "trial_992.json").mkdir()
    assert main(["report", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("skipping malformed") == 7
    report = json.loads((out / "report.json").read_text())
    assert report["skipped_files"] == 7
    assert report["results"][0]["trials"] == 2
    # and so did an --out that names a file
    code = main(["report", str(out), "--out", str(out / "config.json")])
    assert_one_error(capsys, code, 1, f"[Errno 17] File exists: '{out / 'config.json'}'")


# a valid trial summary, and the leaves of it that report reads
GOOD_SUMMARY = trial_summary(TrialRecord(
    scenario=2, stage="training", outcome="success", tuning_steps=40,
    rms_initial={"peak_rad": 0.05, "duration_pct": 3.0},
    rms_final={"peak_rad": 0.01, "duration_pct": 0.5}), 0)
REPORT_LEAVES = [path for path in leaf_paths(GOOD_SUMMARY) if path[0] in
                 ("scenario", "stage", "outcome", "tuning_steps", "rms_initial", "rms_final")]
# values no read leaf may take, then those that only some leaves may take;
# json writes the non-finite ones as NaN and Infinity
BAD_SUMMARY_VALUES = [True, False, "", "fast", [], {}, [1], -7, -0.5,
                      float("nan"), float("inf"), -float("inf"), 10**400, -10**400]
BAD_FOR = {"scenario": [None, 0, 4, 42, 1.0], "stage": [None, "train", 1],
           "outcome": [None, "halted", 1, "failure"], "tuning_steps": [2.5, 40.0, "10", None],
           "rms_initial": [None, "0.1"], "rms_final": [None, "0.1"]}
BAD_SUMMARY_LEAVES = [(path, bad) for path in REPORT_LEAVES
                      for bad in BAD_SUMMARY_VALUES + BAD_FOR[path[0]]]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(BAD_SUMMARY_LEAVES))
@example(case=(("rms_initial", "peak_rad"), float("nan")))
@example(case=(("rms_final", "peak_rad"), float("inf")))
@example(case=(("tuning_steps",), -7))
@example(case=(("scenario",), 42))
@example(case=(("stage",), ""))
@example(case=(("tuning_steps",), None))
@example(case=(("outcome",), "failure"))
@example(case=(("tuning_steps",), 10**400))
@example(case=(("rms_final", "duration_pct"), 10**400))
def test_a_bad_summary_leaf_is_skipped(case):
    # report skips the summary with one warning: beside a valid one it exits
    # 0 and writes no non-finite number, alone it exits 1; never a traceback
    path, bad = case
    doc = copy.deepcopy(GOOD_SUMMARY)
    node = doc
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = bad
    with tempfile.TemporaryDirectory() as tmp:
        trials = Path(tmp) / "trials"
        trials.mkdir()
        bad_file = trials / "trial_001.json"
        bad_file.write_text(json.dumps(doc))
        for valid, want in ((True, 0), (False, 1)):
            good_file = trials / "trial_000.json"
            if valid:
                good_file.write_text(json.dumps(GOOD_SUMMARY))
            else:
                good_file.unlink()
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["report", str(trials), "--out", str(Path(tmp) / "out")])
            lines = err.getvalue().splitlines()
            assert code == want, lines
            assert lines[0].startswith(f"warning: skipping malformed {bad_file}: "), lines
            assert lines[1:] == ([] if valid else
                                 [f"error: no readable trial summaries under {trials}"])
        for name in ("report.json", "report_rms.csv"):
            text = (Path(tmp) / "out" / name).read_text().lower()
            assert "nan" not in text and "inf" not in text, text


def test_report_averages_rms_values_past_half_the_largest_double(tmp_path, capsys):
    # two summaries report reads, whose initial peak RMS values sum past the
    # largest double: np.mean overflowed with a warning and wrote inf
    doc = copy.deepcopy(GOOD_SUMMARY)
    doc["rms_initial"]["peak_rad"] = 1e308
    for n in range(2):
        (tmp_path / f"trial_{n:03d}.json").write_text(json.dumps(doc))
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "report_rms.csv").read_text().splitlines()
    assert rows[1:] == ["2,training,peak_angle_rad,1e+308,0.01",
                        "2,training,duration_pct,3.0,0.5"]
