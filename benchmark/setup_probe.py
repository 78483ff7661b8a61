"""Set-up probe: import the program and build one workload's config.

    python3 benchmark/setup_probe.py <workload> <seed>

Prints "ready" when a first cell could run.  run.py times fresh processes of
this script for `setup_s`, so it loads nothing of the harness but the data
in configs.py.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import isocensus.cli  # noqa: E402,F401  the entry point, counted in set-up
from configs import WORKLOADS  # noqa: E402
from isocensus.experiments import ExperimentConfig, Runner  # noqa: E402

Runner(ExperimentConfig(seed=int(sys.argv[2]), **WORKLOADS[sys.argv[1]]["config"]))
print("ready", flush=True)
