"""The benchmark's traced run wraps library attributes that must exist."""

import importlib.util
from pathlib import Path

from kneetrack import cli, config, dhdp, fsm, harness, plant

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_targets_are_attributes_of_their_owners():
    # bench/tracer.py patches each (owner, attribute) in place; a renamed or
    # moved name would otherwise surface only when `bench/run.py --trace 1` runs
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    mods = {"cli": cli, "config": config, "dhdp": dhdp, "fsm": fsm,
            "harness": harness, "plant": plant}
    targets = tracer._targets(mods)
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets
               if attr not in vars(owner)]
    assert missing == []
