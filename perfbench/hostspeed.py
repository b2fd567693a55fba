"""How fast the host runs Python right now, and rates scaled by it.

The host this benchmark was written on is shared, and its speed for
Python code drifts by tens of percent within minutes.  A throughput
scaled by a calibration pass timed alongside it stays put, while a
slower or faster program moves it exactly as much as the raw figure.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: The reference: ``solves_per_s`` is scaled to a host on which one
#: :func:`calibration_s` pass takes this long.
REFERENCE_S = 3e-3


def calibration_s() -> float:
    """CPU seconds one pass of a fixed pure-Python workload takes now.

    The pass is a depth-first enumeration of 4-subsets of 18 slots with
    incremental gains, the kind of interpreter work the solvers do.  It
    is benchmark code, so no change to the program moves it.  It
    allocates no containers, so the program's heap does not make it
    trigger garbage collection.  It reads the calling thread's CPU time,
    not wall time, so a pass that waits while another process holds the
    CPU (the service, in serve-mixed) is not charged the wait, and the
    process's other threads (BLAS workers, asyncio's resolver) are not
    counted.
    """
    m, k = 18, 4
    weight = [(i * 37 % 11) / 3.0 for i in range(m)]
    covered = bytearray(m)
    best = [0.0]

    def descend(start: int, depth: int, value: float) -> None:
        if depth == k:
            if value > best[0]:
                best[0] = value
            return
        for u in range(start, m - (k - depth) + 1):
            v = (u * 7 + 3) % m
            gain = 0.0
            if not covered[u]:
                gain += weight[u]
            if not covered[v]:
                gain += weight[v]
            covered[u] += 1
            covered[v] += 1
            descend(u + 1, depth + 1, value + gain)
            covered[u] -= 1
            covered[v] -= 1

    started = time.thread_time()
    descend(0, 0, 0.0)
    return time.thread_time() - started


def at_reference_speed(rate: float, calibration: List[float]) -> float:
    """``rate`` scaled to the reference host speed, by the mean of the
    calibration passes taken while it was measured."""
    return rate * statistics.fmean(calibration) / REFERENCE_S
