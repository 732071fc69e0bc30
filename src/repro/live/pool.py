"""Cross-detector pooled scoring — the live service's one scoring path.

Scoring each tracker on its own pays the full fixed cost of one
:meth:`repro.core.ika.IkaSST.scores` call — Hankel views, einsum
dispatch, a LAPACK ``eigh`` — per tracker per tick.  At fleet scale a
tick advances hundreds of trackers by the same bin, so those calls are
the same computation repeated with different data.  The
:class:`DetectorPool` exploits that: it collects every
:class:`~repro.live.detector.IncrementalDetector` with a pending score
segment, groups the segments by length (trackers admitted at the same
tick stay in lock-step, so typically one group dominates), stacks each
group into a ``(n_detectors, segment)`` matrix and scores it with a
single :meth:`~repro.core.ika.IkaSST.scores_batch` call.

Parity: ``scores_batch`` is bitwise the per-series scorer (pinned in
``tests/core/test_ika_batch.py``), each detector's write-back and scan
are the very code a standalone, immediately scoring
:class:`~repro.live.detector.IncrementalDetector` runs (the oracle the
tests compare against), and the scheduler invokes the pool after the
tick's drain and before any deadline close — so a replay declares what
standalone detectors fed the same bins declare, and matches the offline
engine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..types import DetectedChange
from .detector import IncrementalDetector

__all__ = ["DetectorPool", "POOLED_BATCHES_METRIC", "POOLED_SERIES_METRIC"]

POOLED_BATCHES_METRIC = "repro_live_pooled_batches_total"
POOLED_SERIES_METRIC = "repro_live_pooled_series_total"


class DetectorPool:
    """Scores many incremental detectors' pending segments per call."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.batches = 0
        self.series = 0

    def score_pending(
        self, detectors: Sequence[IncrementalDetector],
    ) -> List[Tuple[int, DetectedChange]]:
        """One stacked scoring pass over every pending segment.

        Returns ``(index, declaration)`` pairs — indices into
        ``detectors`` — for every detector whose freshly scored range
        produced a declaration, in input order within each length group.
        """
        pending: List[Tuple[int, int, int]] = []
        for index, detector in enumerate(detectors):
            bounds = detector.pending_bounds()
            if bounds is not None:
                pending.append((index, bounds[0], bounds[1]))
        if not pending:
            return []
        groups: dict = {}
        for index, t_lo, t_hi in pending:
            # Stackable = same scorer parameters AND same segment width;
            # a service normally has one config, so one bucket per width.
            detector = detectors[index]
            key = (detector.config.sst, t_hi - t_lo + 2 * detector.span)
            groups.setdefault(key, []).append((index, t_lo, t_hi))
        declared: List[Tuple[int, DetectedChange]] = []
        for members in groups.values():
            stack = self._stack(detectors, members)
            scorer = detectors[members[0][0]].scorer
            rows = scorer.scores_batch(
                stack, lengths=[stack.shape[1]] * len(members))
            self.batches += 1
            self.series += len(members)
            self.metrics.counter(
                POOLED_BATCHES_METRIC,
                help="Stacked scoring calls issued by the pool.").inc()
            self.metrics.counter(
                POOLED_SERIES_METRIC,
                help="Detector segments scored through the pool.",
            ).inc(len(members))
            for (index, _t_lo, _t_hi), row in zip(members, rows):
                detector = detectors[index]
                detector.apply_scores(row)
                declaration = detector.scan()
                if declaration is not None:
                    declared.append((index, declaration))
        return declared

    @staticmethod
    def _stack(detectors: Sequence[IncrementalDetector],
               members: List[Tuple[int, int, int]]) -> np.ndarray:
        """Materialise one group's ``(n, segment)`` score input.

        Trackers admitted at the same tick share an arena and advance in
        lock-step, so the common case is every member wanting the same
        ``[lo:hi]`` column range of the same arena: one row-gather copies
        the whole stack without a per-detector Python loop.  Mixed
        groups (private arenas, staggered admission) fall back to the
        original per-segment stack — the floats are identical either
        way, the arena path just copies them once.
        """
        first = detectors[members[0][0]]
        arena, span = first.arena, first.span
        lo = members[0][1] - span
        hi = members[0][2] + span
        if all(d.arena is arena and t_lo - d.span == lo
               and t_hi + d.span == hi
               for i, t_lo, t_hi in members
               for d in (detectors[i],)):
            return arena.gather_norm(
                [detectors[i]._row for i, _, _ in members], lo, hi)
        return np.ascontiguousarray(np.stack(
            [detectors[i]._norm[t_lo - detectors[i].span:
                                t_hi + detectors[i].span]
             for i, t_lo, t_hi in members]))
