"""One workload's set-up in a fresh process; ``run.py`` times it from outside.

Usage: python3 bench/setup_probe.py WORKLOAD SEED

Imports the library, resolves the workload's config and, for ``s1-test``,
loads the stored policies: everything a workload does before its first
trial.  The parent measures process start to exit as ``setup_s``.
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.make(sys.argv[1], int(sys.argv[2])).prepare()
