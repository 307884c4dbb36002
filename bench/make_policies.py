"""Regenerate the ten policy snapshots the ``s1-test`` workload loads.

They come from the paper's scenario-1 training run with seed 7, through the
CLI, so ``s1-test`` depends on neither training speed nor training
behaviour at the commit being measured.  Run from the repository root:

    python3 bench/make_policies.py
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    mods = workloads.import_kneetrack()
    workloads.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = mods["cli"].main(["run", "--scenario", "1", "--stage", "training",
                                     "--seed", "7", "--out", tmp])
        if code != 0:
            return code
        made = sorted(Path(tmp, "policies").glob("policy_*.json"))
        if len(made) != workloads.POLICY_COUNT:
            print(f"error: training kept {len(made)} policies, "
                  f"expected {workloads.POLICY_COUNT}")
            return 1
        shutil.rmtree(workloads.POLICY_DIR, ignore_errors=True)
        workloads.POLICY_DIR.mkdir(parents=True)
        for path in made:
            shutil.copyfile(path, workloads.POLICY_DIR / path.name)
    print(f"wrote {len(made)} policies to {workloads.POLICY_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
