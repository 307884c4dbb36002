"""Config loading, CLI subcommands and output files."""

import copy
import hashlib
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from kneetrack.cli import main
from kneetrack.config import ConfigError, default_config, load_config, trial_config_from
from kneetrack.dhdp import init_actor, init_critic, save_policy

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


def test_values_outside_the_physical_domain_exit_2(tmp_path, capsys):
    # values that would let an impedance leave its legal domain, and a
    # discount outside (0, 1), are refused before any trial runs
    ranges = default_config()["ranges"]
    ranges[1][0] = [-50.0, 100.0]
    cases = [
        ({"ranges": ranges}, "ranges:"),
        ({"init_spread": 1.5}, "init_spread:"),
        ({"terrain": {"pool_spread": 1.5}}, "pool_spread:"),
        ({"dhdp": {"discount": 1.0}}, "dhdp:"),
        ({"scenario": 2, "terrain": {"pool_size": 0}}, "pool_size:"),
        ({"scenario": 2, "terrain": {"switch_period": 0}}, "switch_period:"),
        # policy_dir is a path or null in every stage; a testing run needs one
        ({"policy_dir": 5}, "policy_dir:"),
        ({"stage": "testing", "policy_dir": 5}, "policy_dir:"),
        ({"stage": "testing", "policy_dir": True}, "policy_dir:"),
        ({"stage": "testing"}, "policy_dir"),
    ]
    for cfg, key in cases:
        code, out = run_cli(tmp_path, small_run_config(trials=1, **cfg))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
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


def test_monitor_alphas_are_numbers_set_together(tmp_path, capsys):
    # alpha2 and alpha3 were read only when alpha1 was set, so any value passed
    assert_refused(tmp_path, capsys, {"dhdp": {"alpha1": None, "alpha2": "x"}}, "dhdp.alpha2")
    assert_refused(tmp_path, capsys, {"dhdp": {"alpha1": 2.0}}, "dhdp.alpha2")
    assert_refused(tmp_path, capsys, {"dhdp": {"alpha3": 20.0}}, "dhdp.alpha1")
    assert_refused(tmp_path, capsys, {"dhdp": {"alpha1": True, "alpha2": 6.0, "alpha3": 12.0}},
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


def test_default_config_round_trips_through_json():
    blob = json.dumps(default_config())
    assert json.loads(blob) == default_config()


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
