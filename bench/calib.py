"""Host-speed calibration for the benchmark's timings.

The shared host this benchmark runs on changes speed by 20-40% over tens of
seconds (co-tenants, frequency), far more than the changes the benchmark
must resolve.  So every timed stretch is bracketed by runs of a fixed probe,
and its seconds are converted to *nominal* seconds:
``raw * nominal / probe_seconds``.  A reported time is what the measurement
would read on a host where the probe takes its nominal time.

Two probes, because the host's slow-downs do not hit all work alike:

* KERNEL, a fixed pure-Python loop run in-process, tracks interpreter work
  (the selftest and solve ops, in-process CLI calls);
* START, one bare ``python -c pass``, tracks process start-up (the cli ops
  and the import-time probes).

Measured on the reference host: with the matching probe the spread
(IQR/median) of throughput over ten 30 s runs is 0.027 on solve and 0.021
on cli, against 0.16-0.26 and 0.05-0.17 in uncalibrated five- to
eight-run sets; the kernel probe on cli ops made them worse (0.11).
Both probes are part of the benchmark, never of the library, so a change to
the library cannot move them.
"""
from __future__ import annotations

import subprocess
import sys
import time

KERNEL_N = 3000
KERNEL_RUNS = 2  # best of two damps a single interrupted run


class _Vec:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def _kernel(n: int) -> float:
    # small-object construction, attribute access and float arithmetic:
    # the same kind of interpreter work as the library's hot paths
    acc = 0.0
    keep = []
    for i in range(n):
        p = _Vec(i * 0.5, i * 0.25)
        q = _Vec(p.x - p.y, p.x + p.y)
        acc += (q.x * q.x - q.y * q.y) / (1.0 + abs(p.x))
        if i % 64 == 0:
            keep.append((p, q))
    return acc + len(keep)


def kernel_seconds() -> float:
    best = float("inf")
    for _ in range(KERNEL_RUNS):
        t0 = time.perf_counter()
        _kernel(KERNEL_N)
        best = min(best, time.perf_counter() - t0)
    return best


def start_seconds(env: dict | None = None) -> float:
    """Wall seconds of one bare interpreter start and exit."""
    t0 = time.perf_counter()
    # captured pipes let run() return at the child's exit; without them a
    # timeout makes it poll with sleeps of up to 50 ms, which quantizes this
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True,
                   check=True, timeout=60)
    return time.perf_counter() - t0


# (nominal seconds, probe); nominal is the probe's time on the reference
# host in its usual state, so nominal times read close to raw ones there
KERNEL = (3.5e-3, kernel_seconds)
START = (0.065, start_seconds)
