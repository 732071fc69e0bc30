"""CUSUM behaviour-change detector — the MERCURY baseline ([20], section 6).

MERCURY (Mahimkar et al., SIGCOMM 2010) detects the performance impact of
upgrades with a CUmulative SUM statistic.  For each sliding input window
the first half calibrates the in-control mean and standard deviation; the
two-sided CUSUM recursions then accumulate standardised deviations over
the second half::

    S+_i = max(0, S+_{i-1} + z_i - SLACK)
    S-_i = max(0, S-_{i-1} - z_i - SLACK)

and a change is declared when either statistic exceeds a decision
threshold ``h``.  Significance is assessed the way CUSUM deployments
usually do (Taylor's method): the observed CUSUM range is compared with
the ranges of ``N_BOOTSTRAP`` random shufflings of the window — a genuine
change survives almost no shuffle.

This bootstrap is also what makes CUSUM's per-window cost exceed
FUNNEL's (Table 2): the statistic itself is O(W), but each window pays
``N_BOOTSTRAP`` resampled passes.

The detector's weaknesses reproduced in the paper's Table 1 follow from
the construction: the in-window calibration cannot tell a diurnal climb
from a level shift (poor precision on seasonal KPIs) and the cumulative
sum needs many post-change samples to cross ``h`` (long detection delay,
Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import InsufficientDataError, ParameterError
from ..types import DetectedChange, as_float_array
from ..core.scoring import classify_change, estimate_change_start

__all__ = ["CusumParams", "CusumDetector"]

#: The allowance ``k`` in standardised units; the classic choice 0.5
#: detects ~1-sigma shifts fastest.
SLACK = 0.5
#: Shuffles in the significance test.
N_BOOTSTRAP = 100
#: Fraction of shuffles the observed range must beat.
CONFIDENCE = 0.95


@dataclass(frozen=True)
class CusumParams:
    """CUSUM tuning knobs.

    Attributes:
        window: sliding-window length ``W`` (the paper's best-accuracy
            setting for CUSUM is ``W = 60``).
        threshold: decision interval ``h`` in standardised units.
    """

    window: int = 60
    threshold: float = 8.0

    def __post_init__(self) -> None:
        if self.window < 8:
            raise ParameterError("window must be >= 8, got %d" % self.window)
        if self.threshold <= 0:
            raise ParameterError("threshold must be > 0")

    @property
    def calibration(self) -> int:
        """Leading samples of each window used to fit mean/sigma."""
        return self.window // 2


class CusumDetector:
    """Sliding-window two-sided CUSUM with bootstrap significance.

    The public surface mirrors the FUNNEL detectors: :meth:`scores` gives
    a per-index statistic (the larger of the two CUSUM statistics at the
    window end, in ``h`` units) and :meth:`detect` applies the decision
    threshold plus the bootstrap test and returns declared changes.
    """

    def __init__(self, params: Optional[CusumParams] = None, seed: int = 0) -> None:
        self.params = params or CusumParams()
        self._rng = np.random.default_rng(seed)

    # -- statistic ----------------------------------------------------------

    def statistic_for_window(self, window_values: Sequence[float]) -> float:
        """Peak two-sided CUSUM statistic over one window, in sigma units."""
        x = as_float_array(window_values, name="window")
        p = self.params
        if x.size < p.window:
            raise InsufficientDataError(
                "window has %d samples, need %d" % (x.size, p.window)
            )
        calib = x[:p.calibration]
        mu = float(calib.mean())
        sigma = float(calib.std())
        if sigma <= 0.0:
            sigma = 1e-9
        z = (x[p.calibration:] - mu) / sigma
        pos = neg = peak = 0.0
        for value in z:
            pos = max(0.0, pos + value - SLACK)
            neg = max(0.0, neg - value - SLACK)
            peak = max(peak, pos, neg)
        return peak

    def _bootstrap_significant(self, window_values: np.ndarray) -> bool:
        """Taylor's shuffle test on the CUSUM range of the window."""
        x = window_values - window_values.mean()
        observed = self._cusum_range(x)
        shuffles = np.array([
            self._cusum_range(self._rng.permutation(x))
            for _ in range(N_BOOTSTRAP)
        ])
        beaten = float(np.mean(shuffles < observed))
        return beaten >= CONFIDENCE

    @staticmethod
    def _cusum_range(centred: np.ndarray) -> float:
        cumulative = np.cumsum(centred)
        return float(cumulative.max() - cumulative.min())

    # -- detector interface ---------------------------------------------------

    def scores(self, series: Sequence[float]) -> np.ndarray:
        """Per-index CUSUM statistic, normalised by the threshold ``h``.

        ``scores[t] > 1`` means the window ending at ``t`` crossed the
        decision interval.  Indices before the first full window hold 0.
        """
        x = as_float_array(series)
        p = self.params
        if x.size < p.window:
            raise InsufficientDataError(
                "series of length %d is shorter than the window %d"
                % (x.size, p.window)
            )
        out = np.zeros(x.size, dtype=np.float64)
        for end in range(p.window, x.size + 1):
            stat = self.statistic_for_window(x[end - p.window:end])
            out[end - 1] = stat / p.threshold
        return out

    def detect(self, series: Sequence[float]) -> List[DetectedChange]:
        """Declared changes: threshold crossing + bootstrap significance."""
        x = as_float_array(series)
        p = self.params
        if x.size < p.window:
            raise InsufficientDataError(
                "series of length %d is shorter than the window %d"
                % (x.size, p.window)
            )
        changes: List[DetectedChange] = []
        end = p.window
        while end <= x.size:
            window = x[end - p.window:end]
            stat = self.statistic_for_window(window)
            if stat > p.threshold and self._bootstrap_significant(window):
                detected_at = end - 1
                start = estimate_change_start(x, detected_at,
                                              baseline=end - p.window
                                              + p.calibration)
                kind = classify_change(x, start, detected_at)
                calib_mean = window[:p.calibration].mean()
                direction = 1 if x[detected_at] >= calib_mean else -1
                changes.append(DetectedChange(
                    index=detected_at,
                    start_index=start,
                    score=stat / p.threshold,
                    kind=kind,
                    direction=direction,
                ))
                end += p.window      # skip past the declared window
            else:
                end += 1
        return changes
