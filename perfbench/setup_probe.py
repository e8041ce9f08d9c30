"""Time one fresh process's set-up: importing hitchinflow and preparing
the workload's first point.  It must run in a fresh interpreter, because
``space()`` is ``lru_cache``d and several tables are filled on first use.

Usage: python3 perfbench/setup_probe.py WORKLOAD POINT_JSON
Prints the set-up seconds.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main(argv):
    workload, point = argv[0], json.loads(argv[1])
    workloads.prepare(workload, point)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main(sys.argv[1:])
