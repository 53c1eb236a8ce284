"""Set-up probe: import binpaths and build one workload's inputs in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints one JSON line with the import and build times it measured and
exits.  The benchmark times the whole probe, from spawning it to reading
that line, as one set-up sample.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import binpaths  # noqa: E402,F401

T1 = time.perf_counter()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
T2 = time.perf_counter()
print(json.dumps({"import_s": T1 - T0, "build_s": T2 - T1}), flush=True)
