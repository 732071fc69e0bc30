"""Cross-detector pooled scoring — the live service's one scoring path.

One window is cheap; what a tracker scoring on its own pays per tick is
the fixed cost of the :meth:`repro.core.ika.IkaSST.scores` call (strided
views, einsum dispatch, two LAPACK ``eigh``).  The :class:`DetectorPool`
therefore makes **one** :meth:`~repro.core.ika.IkaSST.scores_batch` call
per pass: the pending segment of every
:class:`~repro.live.detector.IncrementalDetector` — all sessions, all
widths — goes into one zero-padded stack with explicit row lengths.  The
declaration scan is pooled the same way: one threshold cut
(:func:`~repro.live.detector.armed_candidates`) and one
:func:`~repro.core.scoring._gating_table` per pass.  ``flush=True`` is
the deadline form of the same pass.

Parity: ``scores_batch`` is bitwise the per-series scorer whatever else
rides in the stack (pinned in ``tests/core/test_ika_batch.py``), each
detector's write-back and scan are the very code a standalone,
immediately scoring :class:`~repro.live.detector.IncrementalDetector`
runs (the oracle the tests compare against; its cut and gating table
are the one-row case of the pass's), and the scheduler invokes the pool
after the tick's drain and before any deadline close — so a replay
declares what standalone detectors fed the same bins declare, and
matches the offline engine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.scoring import _confirmed_directions
from ..obs.metrics import MetricsRegistry
from ..types import DetectedChange
from .detector import IncrementalDetector, armed_candidates

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
        self, detectors: Sequence[IncrementalDetector], flush: bool = False,
    ) -> List[Tuple[int, DetectedChange]]:
        """One scoring call and one gating table over every pending segment.

        ``flush`` is the deadline form: the chunk threshold is waived
        and every undeclared detector is scanned whether or not it had
        anything left to score (:meth:`IncrementalDetector.flush`).

        Returns ``(index, declaration)`` pairs — indices into
        ``detectors`` — for every declaration found, by segment width
        (first appearance) and in input order within a width.
        """
        # One pass, one configuration (a service has one): a detector
        # configured otherwise is a stray and flushes on its own.
        pending, strays, config = [], [], None
        groups: dict = {}    # segment width -> order of first appearance
        for index, detector in enumerate(detectors):
            bounds = detector.pending_bounds(flush)
            if bounds is None:
                continue
            if config is None:
                config, span = detector.config, detector.span
            same = detector.config is config or (
                detector.config.sst == config.sst
                and detector.config.policy == config.policy)
            (pending if same else strays).append((index, detector) + bounds)
            groups.setdefault(bounds[1] - bounds[0], len(groups))
        if not pending:
            return []
        scored = [entry for entry in pending if entry[3] >= entry[2]]
        if scored:
            widths = [t_hi - t_lo + 2 * span for _, _, t_lo, t_hi in scored]
            stack = np.zeros((len(scored), max(widths)), dtype=np.float64)
            for row, width, (_, detector, t_lo, _) in zip(stack, widths,
                                                          scored):
                row[:width] = detector._norm[t_lo - span:t_lo - span + width]
            rows = pending[0][1].scorer.scores_batch(stack, lengths=widths)
            self.batches += 1
            self.series += len(scored)
            self.metrics.counter(
                POOLED_BATCHES_METRIC,
                help="Stacked scoring calls issued by the pool.").inc()
            self.metrics.counter(
                POOLED_SERIES_METRIC,
                help="Detector segments scored through the pool.",
            ).inc(len(scored))
            for (_, detector, t_lo, t_hi), row in zip(scored, rows):
                detector.apply_scores(row, t_lo, t_hi)
        # Every score is written back: one threshold cut and one gating
        # table for the pass.  A detector the table refuses (non-finite
        # samples) scans by the reference rule.
        hits = armed_candidates([detector for _, detector, _, _ in pending])
        tabled = [hit for hit in hits if hit[2]]
        directions: dict = {}
        if tabled:
            candidates = [armed[:n] for _, armed, n in tabled]
            series = [pending[k][1] for k, _, _ in tabled]
            slices = _confirmed_directions(
                [d._norm[:len(d)] for d in series], candidates, config.policy)
            directions = dict(zip((k for k, _, _ in tabled), slices))
            self.metrics.counter(
                GATING_TABLES_METRIC,
                help="Gating tables built by the pool (one per pass).").inc()
            self.metrics.counter(
                GATED_CANDIDATES_METRIC,
                help="Armed candidates a pool gating table covered.",
            ).inc(sum(row.size for row in candidates))
        declared = []
        for k, armed, n_decidable in hits:
            index, detector, t_lo, t_hi = pending[k]
            declared.append((groups[t_hi - t_lo], index, detector.scan(
                armed, n_decidable, directions.get(k))))
        declared += [(groups[t_hi - t_lo], index, detector.flush())
                     for index, detector, t_lo, t_hi in strays]
        # Width group by width group, input order inside each.
        return [(index, declaration)
                for _, index, declaration in sorted(declared)
                if declaration is not None]
