"""Traced-run recorder: spans around calls into kneetrack, taken from outside.

The recorder replaces functions on the module or class attributes through
which the library calls them (the names ``kneetrack.harness`` and
``kneetrack.cli`` import, plus a few methods) with wrappers that record one
span per call: name, start, end, parent span and trial.  Nothing inside
``src/kneetrack`` is changed.  Spans are kept in flat arrays in memory;
``summary`` derives per-function totals and self time (a span's duration
minus the time its wrapped children cover), and ``write`` saves the spans
of the last traced batch when the run ends.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np


def _targets(m: dict):
    """(owner, attribute, span name) for every wrapped call site."""
    h, cli, config, dhdp, plant = m["harness"], m["cli"], m["config"], m["dhdp"], m["plant"]
    out = [(h, n, f"dhdp.{n}") for n in (
        "actor_eval", "critic_eval", "critic_update", "actor_update",
        "stability_monitor", "stage_cost", "init_actor", "init_critic")]
    out += [
        (h, "apply_delta", "fsm.apply_delta"),
        (h, "within_bound", "core.within_bound"),
        (h, "alignment_errors", "plant.alignment_errors"),
        (plant.FeatureMapPlant, "step", "plant.feature_map_step"),
        (plant.OdeKneePlant, "step", "plant.ode_step"),
        (plant.TargetProgram, "target_for", "plant.target_for"),
        (h.Trial, "__init__", "harness.trial_init"),
        (h.Trial, "step", "harness.step"),
    ]
    out += [(h, n, f"harness.{n}") for n in (
        "safety_check", "compute_rms", "draw_initial_impedance", "steady_profile",
        "build_profile_pool", "make_target_program", "run_trial",
        "run_training_batch", "run_testing_batch", "write_trial_csv")]
    out += [(cli, n, f"harness.{n}") for n in (
        "run_training_batch", "run_testing_batch", "write_trial_csv", "write_json",
        "trial_summary", "batch_summary")]
    out += [(mod, n, f"config.{n}") for mod in (config, cli)
            for n in ("load_config", "trial_config_from")]
    out += [(mod, n, f"dhdp.{n}") for mod in (dhdp, cli)
            for n in ("load_policy", "save_policy")]
    out += [(cli, "_write_plot_data", "cli.write_plot_data"), (cli, "main", "cli.main")]
    return out


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self, mods: dict):
        self.mods = mods
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple] = []
        self.counts = {"step_fsm": 0, "monitor_violations": 0, "clamps": 0, "csv_bytes": 0}
        self.records: list = []
        self.trial = -1
        self._trial_of: dict[int, int] = {}
        self._stack = [-1]
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans, counters and records; keep the wrappers."""
        self.kind = array("q")
        self.parent = array("q")
        self.trial_id = array("q")
        self.start = array("q")
        self.end = array("q")
        del self._stack[1:]
        for key in self.counts:
            self.counts[key] = 0
        self.records = []

    # -- wrapping ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str, after=None, enter_trial=None):
        nid = self._id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved = rec.trial
            if enter_trial is not None:
                rec.trial = enter_trial(args[0])
            idx = len(rec.start)
            rec.kind.append(nid)
            rec.parent.append(stack[-1])
            rec.trial_id.append(rec.trial)
            rec.end.append(0)
            stack.append(idx)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                stack.pop()
                rec.trial = saved
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def install(self) -> None:
        m = self.mods
        after = {
            "dhdp.stability_monitor": self._after_monitor,
            "fsm.apply_delta": self._after_apply_delta,
            "harness.write_trial_csv": self._after_write_csv,
            "plant.ode_step": self._after_ode_step,
            "harness.run_trial": lambda record, args: self.records.append(record),
        }
        enter = {"harness.trial_init": self._new_trial, "harness.step": self._trial_of_step}
        for owner, attr, name in _targets(m):
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._span(original, name, after.get(name), enter.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _new_trial(self, trial) -> int:
        tid = len(self._trial_of)
        self._trial_of[id(trial)] = tid
        return tid

    def _trial_of_step(self, trial) -> int:
        return self._trial_of.get(id(trial), -1)

    def _after_monitor(self, report, args) -> None:
        self.counts["monitor_violations"] += not report.ok

    def _after_apply_delta(self, result, args) -> None:
        self.counts["clamps"] += bool(result[1])

    def _after_ode_step(self, profile, args) -> None:
        # Each Euler step adds one timestep to one phase's duration and makes
        # one step_fsm call, so the calls follow from the returned durations
        # without wrapping a function called ~60 times per gait cycle.
        cycle = sum(f.duration for f in profile)
        self.counts["step_fsm"] += round(cycle / args[0].config.timestep)

    def _after_write_csv(self, result, args) -> None:
        self.counts["csv_bytes"] += os.path.getsize(args[1])

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "trial": np.frombuffer(self.trial_id, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per-function calls, total and self nanoseconds, and parent-linked counts."""
        a = self.arrays()
        n_names = len(self.names)
        dur = (a["end"] - a["start"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        calls = np.bincount(a["kind"], minlength=n_names)
        total = np.bincount(a["kind"], weights=dur, minlength=n_names)
        self_ns = np.bincount(a["kind"], weights=dur - child, minlength=n_names)
        parent_kind = np.where(has_parent, a["kind"][np.maximum(a["parent"], 0)], -1)
        stats = {name: {"calls": int(calls[i]), "total_ns": float(total[i]),
                        "self_ns": float(self_ns[i])}
                 for i, name in enumerate(self.names)}

        def under(child_name: str, parent_name: str) -> tuple[int, float]:
            """Calls of ``child_name`` made directly from ``parent_name``, and their time."""
            if child_name not in self._ids or parent_name not in self._ids:
                return 0, 0.0
            mask = (a["kind"] == self._ids[child_name]) & (parent_kind == self._ids[parent_name])
            return int(np.count_nonzero(mask)), float(dur[mask].sum())

        probe_steps, probe_ns = under("plant.ode_step", "harness.steady_profile")
        _, cycle_ns = under("plant.ode_step", "harness.step")
        linked = {
            "ode_probe_steps": probe_steps,
            "ode_probe_ns": probe_ns,
            "ode_cycle_ns": cycle_ns,
            "initial_draw_profiles": under("harness.steady_profile",
                                           "harness.draw_initial_impedance")[0],
        }
        return {"stats": stats, "linked": linked}

    def write(self, path) -> None:
        """Save the recorded spans (times relative to the first span)."""
        a = self.arrays()
        origin = int(a["start"].min()) if len(a["start"]) else 0
        np.savez(path, names=np.array(self.names), kind=a["kind"], parent=a["parent"],
                 trial=a["trial"], start_ns=a["start"] - origin, end_ns=a["end"] - origin)
