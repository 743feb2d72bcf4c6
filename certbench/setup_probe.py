"""One cold start, as every CLI invocation pays it; run by run.py in a fresh interpreter.

    python3 setup_probe.py <src dir> <workload> <seed>

Imports numpy, then anisohardy and its CLI, builds the CLI parser and
generates the workload's certification set, then prints one JSON line with
the stage times and the CLOCK_MONOTONIC instant at which the first op could
start.  The parent measures set-up time from its own clock reading taken
just before it started this process.
"""

import sys
import time

t0 = time.monotonic()
import numpy  # noqa: E402,F401

t1 = time.monotonic()
sys.path.insert(0, sys.argv[1])
import anisohardy  # noqa: E402,F401
import anisohardy.cli  # noqa: E402

t2 = time.monotonic()
anisohardy.cli.build_parser()
t3 = time.monotonic()
import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[2]]
workload.ops(int(sys.argv[3]), 0, workload.cert_ops)
t4 = time.monotonic()

import json  # noqa: E402

print(json.dumps({"ready": t4, "import_numpy_s": t1 - t0,
                  "import_anisohardy_s": t2 - t1, "build_parser_s": t3 - t2,
                  "generate_inputs_s": t4 - t3}))
