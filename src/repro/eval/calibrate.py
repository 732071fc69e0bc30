"""Threshold calibration — the paper's best-accuracy parameter selection.

Section 4.1: "the values of other parameters of CUSUM, MRLS and FUNNEL
(alpha) are also set to the best for the corresponding algorithm's
accuracy."  This module reproduces that protocol: for each method it
computes one *peak post-change statistic* per item (a single scores()
pass), then sweeps the declaration threshold and picks the value that
maximises the synthesized accuracy (clean-half counts scaled by 86, as
in Table 1).

Because the statistic is computed once per item, sweeping hundreds of
candidate thresholds costs nothing extra — important for MRLS, whose
statistic is 100x more expensive than anyone else's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.cusum import CusumDetector, CusumParams
from ..baselines.mrls import MrlsDetector, MrlsParams
from ..exceptions import EvaluationError
from ..synthetic.dataset import EvaluationItem
from .confusion import ConfusionMatrix
from .runner import CLEAN_SCALE_FACTOR

__all__ = ["ItemStatistic", "collect_statistics", "sweep_threshold",
           "pick_threshold", "calibrate_baseline", "CalibrationResult"]

StatisticFn = Callable[[EvaluationItem], float]


@dataclass(frozen=True)
class ItemStatistic:
    """One item's peak post-change statistic plus its synthesis weight."""

    statistic: float
    positive: bool
    weight: float


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a threshold sweep."""

    method: str
    threshold: float
    accuracy: float
    sweep: Tuple[Tuple[float, float], ...]
    """Every (threshold, accuracy) pair evaluated."""


def _peak_post_statistic(detector, item: EvaluationItem) -> float:
    """Largest raw statistic over windows ending after the change."""
    series = item.treated_aggregate
    scores = detector.scores(series)          # normalised by threshold
    raw = scores * detector.params.threshold
    return float(raw[item.change_index:].max())


def collect_statistics(items: Iterable[EvaluationItem],
                       statistic: StatisticFn,
                       stride: int = 1) -> List[ItemStatistic]:
    """Evaluate ``statistic`` once per (strided) item."""
    if stride < 1:
        raise EvaluationError("stride must be >= 1")
    out: List[ItemStatistic] = []
    for counter, item in enumerate(items):
        if counter % stride:
            continue
        weight = stride * (CLEAN_SCALE_FACTOR if item.half == "clean"
                           else 1.0)
        out.append(ItemStatistic(
            statistic=statistic(item),
            positive=item.truth.positive,
            weight=weight,
        ))
    if not out:
        raise EvaluationError("no items were evaluated")
    return out


def sweep_threshold(stats: Sequence[ItemStatistic],
                    thresholds: Sequence[float]
                    ) -> List[Tuple[float, float, float]]:
    """Synthesized ``(threshold, accuracy, recall)`` at every candidate."""
    results = []
    for threshold in thresholds:
        matrix = ConfusionMatrix()
        for stat in stats:
            predicted = stat.statistic > threshold
            if predicted and stat.positive:
                matrix.tp += stat.weight
            elif predicted:
                matrix.fp += stat.weight
            elif stat.positive:
                matrix.fn += stat.weight
            else:
                matrix.tn += stat.weight
        results.append((float(threshold), float(matrix.accuracy),
                        float(matrix.recall)))
    return results


def pick_threshold(sweep: Sequence[Tuple[float, float, float]],
                   recall_floor: float = 0.8) -> Tuple[float, float]:
    """Best-accuracy threshold subject to a recall floor.

    The clean half's x86 weight makes unconstrained accuracy degenerate:
    "never declare" scores ~98% by construction.  The paper's methods all
    operate at recalls of 84-100% (Table 1), so the sweep picks the most
    accurate threshold that keeps recall at or above ``recall_floor``,
    falling back to the unconstrained optimum if nothing qualifies.
    """
    qualifying = [(t, a) for t, a, r in sweep if r >= recall_floor]
    if qualifying:
        threshold, accuracy = max(qualifying, key=lambda pair: pair[1])
        return threshold, accuracy
    threshold, accuracy, _ = max(sweep, key=lambda row: row[1])
    return threshold, accuracy


def calibrate_baseline(method: str, items: Iterable[EvaluationItem],
                       thresholds: Optional[Sequence[float]] = None,
                       stride: int = 1,
                       recall_floor: float = 0.8) -> CalibrationResult:
    """Best-accuracy threshold for ``cusum`` or ``mrls``.

    The detector's statistic is computed with its default parameters
    (the statistic itself does not depend on the threshold); the sweep
    then selects the declaration threshold per :func:`pick_threshold`.
    """
    if method == "cusum":
        detector = CusumDetector(CusumParams())
        if thresholds is None:
            thresholds = np.arange(2.0, 80.0, 1.0)
    elif method == "mrls":
        detector = MrlsDetector(MrlsParams())
        if thresholds is None:
            thresholds = np.arange(2.0, 30.0, 0.5)
    else:
        raise EvaluationError(
            "calibrate_baseline supports 'cusum' and 'mrls', got %r" % method
        )

    stats = collect_statistics(
        items, lambda item: _peak_post_statistic(detector, item),
        stride=stride,
    )
    sweep = sweep_threshold(stats, thresholds)
    best_threshold, best_accuracy = pick_threshold(sweep, recall_floor)
    return CalibrationResult(
        method=method,
        threshold=best_threshold,
        accuracy=best_accuracy,
        sweep=tuple(sweep),
    )
