"""Week-over-week change detection — the seasonal-decomposition baseline.

Section 6 cites Chen et al. [10] ("A provider-side view of web search
response time"): to handle strongly seasonal series they detect changes
*week over week*, comparing each sample against the same clock position
in previous weeks instead of against the immediate past.  This is the
classic operations-team heuristic FUNNEL's historical DiD generalises,
so it makes a natural extra baseline for the seasonal ablations:

* it is nearly immune to any pattern that repeats weekly (by
  construction), but
* it needs weeks of history per KPI, and
* its delay is bounded below by the deviation-persistence it demands —
  with far less statistical machinery than DiD it cannot separate "the
  whole service moved" from "the change moved the treated servers".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.robust import MAD_TO_SIGMA, median_and_mad
from ..core.scoring import classify_change, estimate_change_start
from ..exceptions import InsufficientDataError, ParameterError
from ..types import DetectedChange, as_float_array

__all__ = ["WowParams", "WeekOverWeekDetector"]

#: Consecutive anomalous samples required to declare a change.
PERSISTENCE = 7


@dataclass(frozen=True)
class WowParams:
    """Week-over-week tuning knobs.

    Attributes:
        period: samples per seasonal period (10080 for weekly at
            1-minute bins; tests typically use daily periods).
        n_periods: how many past periods form the reference.
        threshold_sigmas: deviation (in robust sigmas of the reference
            spread) that marks a sample anomalous.
    """

    period: int = 7 * 24 * 60
    n_periods: int = 4
    threshold_sigmas: float = 4.0

    def __post_init__(self) -> None:
        if self.period < 2:
            raise ParameterError("period must be >= 2 samples")
        if self.n_periods < 1:
            raise ParameterError("n_periods must be >= 1")
        if self.threshold_sigmas <= 0:
            raise ParameterError("threshold_sigmas must be positive")

    @property
    def history_needed(self) -> int:
        return self.period * self.n_periods


class WeekOverWeekDetector:
    """Detects deviations from the same-clock-position reference.

    For each sample ``x[t]`` with ``t >= period * n_periods``, the
    reference set is ``{x[t - k*period] : k = 1..n_periods}``; the sample
    is anomalous when it leaves the reference median by more than
    ``threshold_sigmas`` robust sigmas (reference MAD pooled with a
    global noise floor).  A run of ``PERSISTENCE`` anomalous samples on
    one side declares a change.
    """

    def __init__(self, params: Optional[WowParams] = None) -> None:
        self.params = params or WowParams()

    def deviations(self, series: Sequence[float]) -> np.ndarray:
        """Per-sample deviation in robust sigmas (0 where no history)."""
        x = as_float_array(series)
        p = self.params
        if x.size <= p.history_needed:
            raise InsufficientDataError(
                "need more than %d samples for %d periods of history, "
                "have %d" % (p.history_needed, p.n_periods, x.size)
            )
        out = np.zeros(x.size, dtype=np.float64)
        # Global noise floor: robust scale of one-period differences.
        diffs = x[p.period:] - x[:-p.period]
        _, floor = median_and_mad(diffs)
        floor = MAD_TO_SIGMA * floor + 1e-9

        start = p.history_needed
        n_ref = p.n_periods
        refs = np.empty((n_ref, x.size - start), dtype=np.float64)
        for k in range(1, n_ref + 1):
            refs[k - 1] = x[start - k * p.period:
                            x.size - k * p.period]
        ref_median = np.median(refs, axis=0)
        ref_mad = np.median(np.abs(refs - ref_median), axis=0)
        scale = np.maximum(MAD_TO_SIGMA * ref_mad, floor)
        out[start:] = (x[start:] - ref_median) / scale
        return out

    def detect(self, series: Sequence[float],
               first_only: bool = False) -> List[DetectedChange]:
        """Declared changes from persistent week-over-week deviations."""
        x = as_float_array(series)
        p = self.params
        z = self.deviations(x)
        changes: List[DetectedChange] = []
        run = 0
        direction = 0
        t = p.history_needed
        while t < x.size:
            value = z[t]
            if abs(value) > p.threshold_sigmas:
                side = 1 if value > 0 else -1
                if run and side != direction:
                    run = 0
                direction = side
                run += 1
                if run >= PERSISTENCE:
                    start = estimate_change_start(
                        x, t, baseline=t - run,
                        threshold_sigmas=p.threshold_sigmas)
                    changes.append(DetectedChange(
                        index=t,
                        start_index=min(start, t),
                        score=float(np.abs(z[t - run + 1:t + 1]).max()),
                        kind=classify_change(x, min(start, t), t),
                        direction=direction,
                    ))
                    if first_only:
                        return changes
                    run = 0
                    t += PERSISTENCE
                    continue
            else:
                run = 0
            t += 1
        return changes
