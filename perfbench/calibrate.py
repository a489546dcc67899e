"""A fixed calibration loop that measures how fast the host runs right now.

The benchmark's host is a shared VM whose speed drifts by up to about 1.6x
over seconds to minutes, so wall times of the same code measured minutes
apart differ by more than the changes worth detecting. The benchmark times
this loop before and after every timed run and set-up, divides each wall
time by the mean of the two loop times around it, and reports the median of
these ratios rescaled by `REFERENCE_S` to seconds on a host where the loop
takes that long. This only tracks the host if the bracketed interval is
short, about a second: around a 4-s run the two loop times miss most of the
drift inside it, which is why every workload's run is kept near a second.

The loop does the same kind of work as every workload: a Python loop over
small (K = 10) NumPy vectors with dict lookups, dot products, scaled adds and
small objects collected in lists, so a slow phase of the host slows it and a
run by about the same factor. It uses NumPy only, never the package under
test, so a change to the package cannot change it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

K = 10
N_STEPS = 20_000
# Seconds the loop takes on the host the bounds were set on (Intel Xeon VM,
# 2 vCPUs, Python 3 with NumPy); it only sets the scale of `run_s`.
REFERENCE_S = 0.1


class _Message:
    __slots__ = ("index", "payload")

    def __init__(self, index: int, payload: np.ndarray):
        self.index = index
        self.payload = payload


_rng = np.random.Generator(np.random.PCG64(0))
_ROWS = [_rng.normal(size=K) for _ in range(300)]
_TABLE = {j: _rng.normal(size=K) for j in range(400)}


def _loop() -> np.ndarray:
    total = np.zeros(K)
    batch: list[_Message] = []
    for n in range(N_STEPS):
        u = _ROWS[n % 300]
        v = _TABLE[(n * 7) % 400]
        batch.append(_Message(n, 2.0 * (float(u @ v) - 0.5) * u + v))
        if len(batch) == 30:
            for message in batch:
                total += message.payload
            batch = []
    return total


def measure() -> float:
    """Wall seconds of one pass of the loop."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def host_scaled(samples) -> float:
    """Median of `wall_s / calibration_s` over `(wall_s, calibration_s)`
    pairs, times `REFERENCE_S`: seconds at the reference host speed."""
    ratios = [wall / calibration for wall, calibration in samples]
    return statistics.median(ratios) * REFERENCE_S if ratios else math.nan
