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
single :meth:`~repro.core.ika.IkaSST.scores_batch` call.  The
declaration scan is pooled the same way: one
:func:`~repro.core.scoring._gating_table` per pass covers every
decidable armed candidate of every detector scored, all groups together.

Parity: ``scores_batch`` is bitwise the per-series scorer (pinned in
``tests/core/test_ika_batch.py``), each detector's write-back and scan
are the very code a standalone, immediately scoring
:class:`~repro.live.detector.IncrementalDetector` runs (the oracle the
tests compare against; its gating table is the one-row case of the
pass's), and the scheduler invokes the pool after the tick's drain and
before any deadline close — so a replay declares what standalone
detectors fed the same bins declare, and matches the offline engine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.scoring import _confirmed_directions
from ..obs.metrics import MetricsRegistry
from ..types import DetectedChange
from .detector import IncrementalDetector

__all__ = ["DetectorPool", "POOLED_BATCHES_METRIC", "POOLED_SERIES_METRIC",
           "GATING_TABLES_METRIC", "GATED_CANDIDATES_METRIC"]

POOLED_BATCHES_METRIC = "repro_live_pooled_batches_total"
POOLED_SERIES_METRIC = "repro_live_pooled_series_total"
GATING_TABLES_METRIC = "repro_live_gating_tables_total"
GATED_CANDIDATES_METRIC = "repro_live_gated_candidates_total"


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
        produced a declaration, group by group (first appearance) and in
        input order within each length group.
        """
        groups: dict = {}
        for index, detector in enumerate(detectors):
            bounds = detector.pending_bounds()
            if bounds is not None:
                # Stackable = same scorer parameters AND same segment
                # width; a service normally has one config, so one
                # bucket per width.
                t_lo, t_hi = bounds
                key = (detector.config.sst, t_hi - t_lo + 2 * detector.span)
                groups.setdefault(key, []).append((index, t_lo, t_hi))
        plans: List[Tuple[int, IncrementalDetector, np.ndarray, int]] = []
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
            for (index, t_lo, t_hi), row in zip(members, rows):
                detector = detectors[index]
                detector.apply_scores(row, t_lo, t_hi)
                plans.append((index, detector) + detector.armed())
        # Every group is written back: one gating table for the pass.
        # A detector left out (nothing decidable, or another declaration
        # policy than the pass — a service has one) or refused by the
        # table (non-finite samples) scans by the reference rule.
        policy = plans[0][1].config.policy if plans else None
        tabled = [plan for plan in plans
                  if plan[3] and plan[1].config.policy == policy]
        directions: dict = {}
        if tabled:
            candidates = [armed[:n] for _, _, armed, n in tabled]
            slices = _confirmed_directions(
                [plan[1]._norm[:len(plan[1])] for plan in tabled],
                candidates, policy)
            directions = {plan[0]: slice_
                          for plan, slice_ in zip(tabled, slices)}
            self.metrics.counter(
                GATING_TABLES_METRIC,
                help="Gating tables built by the pool (one per pass).").inc()
            self.metrics.counter(
                GATED_CANDIDATES_METRIC,
                help="Armed candidates a pool gating table covered.",
            ).inc(sum(row.size for row in candidates))
        # Scan group by group, input order inside a group.
        declared: List[Tuple[int, DetectedChange]] = []
        for index, detector, armed, n_decidable in plans:
            declaration = detector.scan(armed, n_decidable,
                                        directions.get(index))
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
