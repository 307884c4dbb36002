"""The demos run to the end against the current API and print the same bytes."""

import contextlib
import hashlib
import io
import json
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# sha256 of each demo's stdout; the demos draw from fixed seeds, so any change
# here is a change in behaviour, not noise
GOLDEN = json.loads((Path(__file__).parent / "golden" / "demo_stdout_sha256.json").read_text())

# 04 is left out: it only calls run_training_batch/run_testing_batch, which
# the acceptance fixtures already run, and it takes several times longer
# than all the others together.
NAMES = [
    "01_level_ground_tracking",
    "02_terrain_switching",
    "03_pace_changes",
    "05_adaptive_target_drift",
    "06_torque_law_knee",
    "07_stability_monitor",
]


@pytest.mark.parametrize("name", NAMES)
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert out.getvalue().strip()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[name]
