"""Host provenance recorded with every benchmark result.

Results are only comparable with results from the same host: the record
names the CPU, the interpreter and library versions, and a calibration
score — a fixed pure-Python loop (heap pushes and pops plus float
arithmetic, the kinds of work the simulator does) timed best-of-5 — so
a reader can tell a slower host from a slower commit.
"""

from __future__ import annotations

import heapq
import os
import platform
import sys
import time

CALIBRATION_OPS = 200_000


def _calibration_loop() -> float:
    heap: list = []
    acc = 0.0
    for i in range(CALIBRATION_OPS):
        heapq.heappush(heap, (i * 7919) % 10007)
        if len(heap) > 64:
            acc += heapq.heappop(heap) * 1e-3
    return acc


def calibration_score(repeats: int = 5) -> float:
    """Loop iterations per second, best of *repeats* timings."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return CALIBRATION_OPS / best


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calibration_ops_per_s": round(calibration_score(), 1),
    }
