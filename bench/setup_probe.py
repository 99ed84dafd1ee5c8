"""Time one fresh process's set-up for a workload.

Set-up is `import pathlens` (numpy included) plus building the workload's
inputs, i.e. everything the program does before the first timed call.
Prints the set-up seconds, then the median time of the reference kernel
in the same process, so that run.py can scale set-up to reference speed.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402  (the clock starts before any import)
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pathlens  # noqa: E402
from workloads import WORKLOADS, reference_seconds  # noqa: E402

WORKLOADS[sys.argv[1]]().setup(pathlens, int(sys.argv[2]))
SETUP = time.perf_counter() - T0
REF = statistics.median([reference_seconds() for _ in range(6)][1:])  # 1st warms up
print(repr(SETUP), repr(REF))
