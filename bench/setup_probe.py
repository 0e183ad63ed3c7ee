"""One set-up measurement, run in a fresh interpreter by run.py.

Imports numpy, then ``kraus_witness.cli`` (which loads the whole package),
then builds the workload's inputs, and prints one JSON line with the
CLOCK_MONOTONIC instant it was ready plus the two import times.  run.py
reads the instant against the one it took just before starting this
process, so the interpreter's own start-up is inside the measurement.

Usage: python3 bench/setup_probe.py WORKLOAD SEED  (with PYTHONPATH=src)
"""
import time

import json
import sys
from pathlib import Path


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.monotonic()
    import numpy  # noqa: F401

    t1 = time.monotonic()
    import kraus_witness
    import kraus_witness.cli  # noqa: F401

    t2 = time.monotonic()
    import workloads

    src = Path(kraus_witness.__file__).resolve().parent.parent
    workloads.build(workload, seed, kraus_witness, src)
    ready = time.monotonic()
    print(json.dumps({
        "ready": ready,
        "numpy_s": t1 - t0,
        "package_s": t2 - t1,
        "package_path": kraus_witness.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
