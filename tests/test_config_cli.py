"""Config loading, CLI subcommands and output files."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kneetrack.cli import main
from kneetrack.config import ConfigError, default_config, load_config, trial_config_from
from kneetrack.core import BoundsTable, PhaseBound
from kneetrack.dhdp import (
    ActionScale,
    MonitorParams,
    StageCostParams,
    init_actor,
    init_critic,
    save_policy,
)
from kneetrack.fsm import ParameterRanges, PhaseRanges
from kneetrack.harness import DhdpConfig, TrialConfig, TrialRecord, trial_summary
from kneetrack.plant import FeatureMapConfig, OdeKneeConfig

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
    path = tmp_path / "cfg.json"
    for text, message in (("{not json", f"config is not valid JSON: {path}: "),
                          ("[1, 2]", f"config root must be an object: {path}")):
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
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
BAD_VALUES = [None, True, "fast", [], {}, -1, 0, 0.0, 1e308, -1e308, [1], [[1, 2]], 1.5]


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

    for text in ("{not json", json.dumps([valid]), json.dumps(missing_key),
                 json.dumps(wrong_shape), json.dumps(nan_weight)):
        snap.write_text(text)
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
                     float("nan"), float("inf"), -float("inf")]
# finite numbers, which are valid weights: only the leaves that are no weight take them
NUMBERS = (2.5, -1)


@settings(max_examples=40, deadline=None)
@given(path=st.sampled_from(list(leaf_paths(policy_snapshot()))),
       bad=st.sampled_from(BAD_POLICY_VALUES))
@example(path=("phases", 1, "phase"), bad=2.5)
@example(path=("phases", 0, "critic_output", "shape", 0), bad=-1)
@example(path=("phases", 3, "actor_hidden", "data", 5), bad=float("nan"))
@example(path=("version",), bad=True)
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
    assert main(["report", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("skipping malformed") == 6
    report = json.loads((out / "report.json").read_text())
    assert report["skipped_files"] == 6
    assert report["results"][0]["trials"] == 2


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
                      float("nan"), float("inf"), -float("inf")]
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
