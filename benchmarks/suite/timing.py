"""The estimators behind every timing metric of the suite.

A workload is a fixed sequence of steps that is repeated R times in one
process.  Two kinds of host noise were measured on the shared 2-CPU
sandbox this suite was built on (CPU time is as noisy as wall time there,
so it is contention for the core, not descheduling):

* jitter and phases of a few seconds.  Taking the median of *each step*
  across the repeats first, and summing those, lets every step vote for
  its own quiet repeat (:func:`step_medians`);
* phases longer than a whole run, during which everything runs 1.2-1.7x
  slower.  No statistic of a run's own steps can see those, so a fixed
  probe kernel is timed before and after every repeat and the repeat's
  steps are divided by how slow the probe ran around it
  (:func:`host_slowdown`).  Timing metrics are therefore seconds *of a
  host on which the probe takes its nominal time*; the unscaled wall and
  the slowdown are reported next to them.  README.md has the A/A numbers
  with and without the probe.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


#: Probe timings taken in one block between two repeats (30-50 ms).
PROBE_BLOCK = 64

#: What one probe takes on a quiet host of the kind the suite was built on.
#: Only a scale: it makes normalised times read as that host's seconds.
PROBE_NOMINAL_S = 0.00045

_PROBE_MATRIX = np.cov(np.random.default_rng(0).normal(size=(24, 96)))


def probe() -> float:
    """Seconds one fixed kernel takes right now: the mix of small LAPACK
    calls and short array operations the program spends its time in."""
    started = time.perf_counter()
    for _ in range(6):
        np.linalg.eigh(_PROBE_MATRIX)
    vector = np.arange(256.0)
    for _ in range(20):
        vector = vector * 1.0001 + 1.0
    return time.perf_counter() - started


def probe_block() -> List[float]:
    return [probe() for _ in range(PROBE_BLOCK)]


def host_slowdown(before: Sequence[float], after: Sequence[float]) -> float:
    """How slow the host ran between two probe blocks, 1.0 being nominal.

    The anchor is a constant, not the run's own fastest probe: a run that
    falls wholly inside a slow phase never sees a quiet probe, and an
    anchor that moves with the phase cancels the correction.
    """
    return statistics.median(list(before) + list(after)) / PROBE_NOMINAL_S


def step_medians(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Median duration of every step across the repeats of one run."""
    if len({len(steps) for steps in repeats}) != 1:
        raise ValueError("repeats disagree on the number of steps: %s"
                         % sorted({len(steps) for steps in repeats}))
    return [statistics.median(column) for column in zip(*repeats)]


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile by linear interpolation.

    ``None`` unless at least :data:`MIN_BEYOND` samples lie beyond it: a
    p95 read off forty samples is the second-largest value, not a
    percentile.
    """
    n = len(samples)
    if n * (100.0 - q) < MIN_BEYOND * 100.0:
        return None
    ordered = sorted(samples)
    position = (n - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(samples: Sequence[float]) -> Tuple[Optional[int], Optional[float]]:
    """The highest percentile the sample supports, as ``(q, value)``."""
    for q in TAIL_PERCENTILES:
        value = percentile(samples, q)
        if value is not None:
            return q, value
    return None, None


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(median, q1, q3)`` of a set of runs (exclusive method, as the
    benchmark driver computes them); one run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3
