"""MRLS — Multiscale Robust Local Subspace (the PRISM baseline, [18]).

PRISM (Mahimkar et al., CoNEXT 2011) detects maintenance-induced
behaviour changes by modelling the *local* normal behaviour of a KPI as a
low-dimensional subspace fitted robustly (l1 criterion) at several time
scales, and scoring how far the most recent samples fall outside that
subspace.  The FUNNEL paper does not restate the algorithm; this
implementation follows the cited construction:

* each sliding window is analysed at ``SCALES`` (1-, 2-, 4-minute
  aggregation) to catch both abrupt and slow changes;
* at each scale the window's trajectory (Hankel) matrix is separated
  into a low-rank local subspace plus sparse deviations with Robust PCA
  (:func:`repro.baselines.rpca.robust_pca` — the iterated-SVD l1 step the
  paper's section 1 identifies as MRLS's cost);
* the change score is the robustly-normalised sparse energy attributed
  to the trailing samples of the window, maximised across scales.

The reproduction preserves the two behaviours the paper reports: low
detection delay with robustness to baseline contamination, but high
sensitivity to spikes in *variable* KPIs (the sparse component cannot
distinguish a persistent shift from a large one-off excursion — Table 1's
57.95% accuracy on variable data) and a per-window cost dominated by
dozens of full SVDs (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.hankel import diagonal_average, hankel_matrix
from ..core.robust import MAD_TO_SIGMA, median_and_mad
from ..core.scoring import classify_change, estimate_change_start
from ..exceptions import InsufficientDataError, ParameterError
from ..types import DetectedChange, as_float_array
from .rpca import robust_pca

__all__ = ["MrlsParams", "MrlsDetector"]

#: Aggregation factors for the multiscale analysis.
SCALES = (1, 2, 4)
#: Trailing (finest-scale) samples whose sparse energy is the score.
RECENT = 4
#: Down-weighting of the sparse (outlier) channel relative to the
#: low-rank (persistent shift) channel.
SPIKE_WEIGHT = 0.4
#: Robust PCA's stopping tolerance and iteration cap.
RPCA_TOLERANCE = 1e-6
RPCA_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class MrlsParams:
    """MRLS tuning knobs.

    Attributes:
        window: sliding-window length ``W`` (paper best: 32); at least
            four of the coarsest scale.
        threshold: declared-change bound on the normalised score.
    """

    window: int = 32
    threshold: float = 4.0
    rpca_sparsity_scale: float = 1.0
    """Multiplier on Robust PCA's default ``1/sqrt(max(m, n))`` sparsity
    weight.  Lower values keep young level shifts in the sparse component
    longer (slower, more conservative detection) — used by the ablation
    benches to trade delay against false positives."""

    def __post_init__(self) -> None:
        if self.window < 4 * max(SCALES):
            raise ParameterError("window must be >= %d, got %d"
                                 % (4 * max(SCALES), self.window))
        if self.threshold <= 0:
            raise ParameterError("threshold must be positive")
        if self.rpca_sparsity_scale <= 0:
            raise ParameterError("rpca_sparsity_scale must be positive")


def _aggregate(window_values: np.ndarray, scale: int) -> np.ndarray:
    """Average ``window_values`` over non-overlapping blocks of ``scale``."""
    if scale == 1:
        return window_values
    usable = (window_values.size // scale) * scale
    return window_values[-usable:].reshape(-1, scale).mean(axis=1)


class MrlsDetector:
    """Sliding-window multiscale robust-local-subspace change detector."""

    def __init__(self, params: Optional[MrlsParams] = None) -> None:
        self.params = params or MrlsParams()

    def statistic_for_window(self, window_values: Sequence[float]) -> float:
        """Normalised multiscale sparse-energy score for one window."""
        x = as_float_array(window_values, name="window")
        p = self.params
        if x.size < p.window:
            raise InsufficientDataError(
                "window has %d samples, need %d" % (x.size, p.window)
            )
        # Normalise by the *leading* half only: the trailing samples are
        # the ones under test and would deflate the scale when a change
        # is present in the window.
        _, scale_est = median_and_mad(x[:x.size // 2])
        sigma = MAD_TO_SIGMA * scale_est + 1e-9

        best = 0.0
        for scale in SCALES:
            agg = _aggregate(x, scale)
            emb = max(3, agg.size // 3)
            count = agg.size - emb + 1
            recent = max(1, -(-RECENT // scale))    # ceil division
            if count <= recent:
                continue
            trajectory = hankel_matrix(agg, emb, count)
            sparsity = (p.rpca_sparsity_scale
                        / np.sqrt(max(trajectory.shape)))
            result = robust_pca(
                trajectory,
                sparsity=sparsity,
                tolerance=RPCA_TOLERANCE,
                max_iterations=RPCA_MAX_ITERATIONS,
            )
            # Map both components back to the time domain.  The l1
            # criterion treats a *young* level shift as sparse outliers:
            # only once the new level occupies enough of the window does
            # the nuclear norm find it cheaper to fold it into the
            # local subspace — at which point the low-rank reconstruction
            # shows the shift.  This absorption lag is what gives MRLS
            # its multi-minute detection delay on genuine changes
            # (Fig. 5) despite its robustness to outliers.
            smooth = diagonal_average(result.low_rank)
            outliers = diagonal_average(result.sparse)

            baseline = np.median(smooth[:count - recent])
            shift_score = abs(
                float(np.median(smooth[-max(recent, 2):])) - baseline
            ) / sigma
            # The sparse channel fires immediately on any excursion, but
            # only *outsized* ones (the benign spikes of variable KPIs)
            # should cross a threshold calibrated for level shifts — hence
            # the down-weighting.
            spike_score = float(np.abs(outliers[-recent:]).max()) / sigma
            best = max(best, shift_score, SPIKE_WEIGHT * spike_score)
        return best

    def scores(self, series: Sequence[float]) -> np.ndarray:
        """Per-index MRLS statistic, normalised by the threshold.

        ``scores[t] > 1`` means the window ending at ``t`` scored above
        the declaration threshold.
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
        """Declared changes at threshold crossings of the MRLS statistic."""
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
            stat = self.statistic_for_window(x[end - p.window:end])
            if stat > p.threshold:
                detected_at = end - 1
                start = estimate_change_start(x, detected_at,
                                              baseline=max(1, end - p.window))
                kind = classify_change(x, start, detected_at)
                window = x[end - p.window:end]
                direction = 1 if x[detected_at] >= np.median(window) else -1
                changes.append(DetectedChange(
                    index=detected_at,
                    start_index=start,
                    score=stat / p.threshold,
                    kind=kind,
                    direction=direction,
                ))
                end += p.window
            else:
                end += 1
        return changes
