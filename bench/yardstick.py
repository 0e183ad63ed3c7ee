"""A fixed piece of work timed next to every measured call, to read how fast
the machine is running at that moment.

On a shared host the same code runs at speeds that drift by up to 1.9x over
minutes, as co-tenants load the cores this process is placed on; a whole
benchmark run can sit in one slow stretch, so no statistic taken within a
run removes it.  The yardstick is timed right before and right after each
measured call, and run.py scales the call's time by NOMINAL over the
yardstick's time, which turns it into the time the call would take when the
yardstick runs at its nominal speed.  The yardstick does not use the
package, so a change to the package moves the scaled times as much as it
moves the raw ones.

Two forms match the two kinds of work the benchmark times:

- in process, ``burst()``: small numpy calls driven from Python, as in the
  package's eigensolver and channel code;
- as a child process, ``python3 bench/yardstick.py``: interpreter start and
  the numpy import, then one ``burst()``, as in a CLI call or a set-up probe.

Usage: python3 bench/yardstick.py  (prints nothing; its run time is the reading)
"""
from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Nominal times in seconds: the fastest readings (lowest 1%) over several
# minutes on the machine the benchmark was built on (2 vCPUs of an Intel
# Xeon shared with other tenants, Python 3.11.7, numpy 2.4.6), so scaled
# times read as that machine's times with its cores to itself.
NOMINAL_BURST_S = 0.0352
NOMINAL_PROCESS_S = 0.186

_BURST_UNITS = 48
_MATRIX = np.array(
    [[2.0, 0.5, 0.0, 0.1], [0.5, 1.0, 0.3, 0.0], [0.0, 0.3, 1.5, 0.2], [0.1, 0.0, 0.2, 0.5]]
)


def burst() -> float:
    """About 35 ms of small eigensolves and Python arithmetic on an uncontended core."""
    total = 0.0
    for _ in range(_BURST_UNITS):
        for _ in range(100):
            total += float(np.linalg.eigvalsh(_MATRIX)[0])
            total += sum(range(40))
    return total


def time_burst() -> float:
    start = time.perf_counter()
    burst()
    return time.perf_counter() - start


def time_process(env: dict[str, str], cwd: Path, timeout: float = 60.0) -> float:
    """Wall time of this file run as a child process."""
    start = time.perf_counter()
    # with pipes, the wait for the child ends when they close; without them,
    # a wait with a timeout polls, in sleeps of up to 50 ms
    subprocess.run(
        [sys.executable, __file__], cwd=cwd, env=env, check=True, timeout=timeout,
        capture_output=True,
    )
    return time.perf_counter() - start


if __name__ == "__main__":
    burst()
