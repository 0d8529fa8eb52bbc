"""Print the set-up time of one workload, measured inside a fresh interpreter.

    python3 benchmarks/setup_probe.py <workload> <seed>

Set-up is the import of balisim, balisim.sim and balisim.cli plus the
workload's program-side preparation (its `prepare` method).  The import of
the benchmark's own modules and the making of the workload's inputs from
the seed are not counted.  The time is scaled by the speed
of the host, as every timed sample of the benchmark is (calibration.py).
"""

import os
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
from calibration import calibration_s, scale  # noqa: E402

before = calibration_s()
t0 = perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import balisim  # noqa: E402,F401
import balisim.cli  # noqa: E402,F401
import balisim.sim  # noqa: E402,F401

import_s = perf_counter() - t0

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
t1 = perf_counter()
workload.prepare()
setup_s = import_s + perf_counter() - t1
print(setup_s * scale(before, calibration_s()))
