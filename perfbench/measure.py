"""Latency summaries: medians, tail percentiles and sample counts.

A timing is reported as its median and a tail percentile.  A percentile
``p`` of ``n`` samples is the nearest-rank value (the ``ceil(p/100 * n)``-th
smallest); it is only reported when at least :data:`MIN_BEYOND` samples lie
beyond it, so the tail rests on more than a handful of values.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import Optional, Sequence

import numpy as np

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10
#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
#: The tail percentile the gated metrics use; every workload collects at
#: least :func:`samples_needed` of it per operation family.
GATED_TAIL = 90.0


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def samples_beyond(n: int, p: float) -> int:
    return n - _rank(n, p)


def supports(n: int, p: float) -> bool:
    """Whether ``n`` samples leave :data:`MIN_BEYOND` beyond percentile ``p``."""
    return n > 0 and samples_beyond(n, p) >= MIN_BEYOND


def samples_needed(p: float) -> int:
    """The fewest samples that support percentile ``p``."""
    n = 1
    while not supports(n, p):
        n += 1
    return n


def percentile(samples: Sequence[float], p: float) -> float:
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), p) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile that ``n`` samples support."""
    for p in TAIL_PERCENTILES:
        if supports(n, p):
            return p
    return None


def summarize(samples: Sequence[float]) -> dict:
    """Median, gated tail, highest supported tail and the sample count."""
    n = len(samples)
    out: dict = {"n": n}
    if n == 0:
        return out
    out["p50"] = percentile(samples, 50.0)
    if supports(n, GATED_TAIL):
        out[f"p{GATED_TAIL:g}"] = percentile(samples, GATED_TAIL)
    if supports(n, 95.0):
        out["p95"] = percentile(samples, 95.0)
    tail = tail_percentile(n)
    if tail is not None:
        out["tail_pct"] = tail
        out["tail"] = percentile(samples, tail)
    return out


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Calibration kernel time, in ms, on the host the benchmark was tuned on.
CALIBRATION_REFERENCE_MS = 12.0
#: Seconds between calibrations.
CALIBRATION_INTERVAL_S = 0.25
#: A timing is scaled by the calibrations within this many seconds of it.
CALIBRATION_WINDOW_S = 1.0


class HostClock:
    """Tracks the host's speed with a fixed calibration kernel.

    Shared hosts drift in speed by tens of percent over tens of seconds:
    another tenant's load on the same physical core and caches slows
    every instruction, and memory-bound code most.  The kernel is timed
    every :data:`CALIBRATION_INTERVAL_S` between operations, outside their
    timings.  :meth:`factor` scales a timing taken at time ``t`` to the
    reference host: it is the reference kernel time over the median kernel
    time within :data:`CALIBRATION_WINDOW_S` of ``t``.

    The kernel has two halves of about equal time, chosen because their
    sum slowed in step with all three workloads (a log-log slope of 0.9 to
    1.15 over a ten-minute drift of 1.7x): random rows gathered from a
    10 MB matrix, reduced to distances (cache misses, like verification),
    and sorting and grouping a few thousand Python tuples (interpreter
    work, like plan compilation).  Small cache-resident numpy products,
    the first kernel tried, slowed only half as much as the workloads.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.kernel_ms: list[float] = []
        rng = np.random.default_rng(0)
        self._table = rng.normal(size=(10_000, 128))
        self._picks = rng.integers(0, 10_000, size=3000)

    def calibrate(self) -> None:
        start = time.perf_counter()
        for _ in range(2):
            rows = self._table[self._picks]
            float(np.sqrt(((rows - self._table[0]) ** 2).sum(axis=1)).sum())
        items = sorted((i % 101, str(i), i * 0.5) for i in range(6000))
        groups: dict[int, list[float]] = {}
        for key, _, value in items:
            groups.setdefault(key, []).append(value)
        end = time.perf_counter()
        self.stamps.append(end)
        self.kernel_ms.append((end - start) * 1e3)

    def tick(self) -> None:
        """Calibrate if :data:`CALIBRATION_INTERVAL_S` passed since the last time."""
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= CALIBRATION_INTERVAL_S:
            self.calibrate()

    def factor(self, t: float) -> float:
        lo = bisect.bisect_left(self.stamps, t - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t + CALIBRATION_WINDOW_S)
        if lo == hi:  # no calibration nearby: use the nearest one
            i = min(bisect.bisect_left(self.stamps, t), len(self.stamps) - 1)
            lo, hi = i, i + 1
        return CALIBRATION_REFERENCE_MS / statistics.median(self.kernel_ms[lo:hi])
