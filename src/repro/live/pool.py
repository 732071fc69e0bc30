"""Cross-detector pooled scoring — the live service's one scoring path.

One window is cheap; what a tracker deciding on its own pays per tick is
the fixed cost of its own gating table and kernel call.  The
:class:`DetectorPool` therefore runs **one**
:func:`~repro.live.detector.score_pass` per tick over the pending
:class:`~repro.live.detector.IncrementalDetector` of every session,
whatever their lengths: one gating table over the positions they can now
decide, one :meth:`~repro.core.ika.IkaSST.scores_batch` call for the
positions whose persistence window confirms — none on most ticks, the
cheap half of the declaration rule having rejected them.  ``flush=True``
is the deadline form of the same pass.

Parity: the table is bitwise the per-candidate rule and ``scores_batch``
bitwise the per-series scorer, whatever else rides in the stack (pinned
in ``tests/core``); a standalone detector runs this very pass on itself;
and the scheduler invokes the pool after the tick's drain and before any
deadline close — so a replay declares what the eager reference in
``tests/live/oracle.py`` (score everything, confirm each armed candidate)
declares on the same bins, and matches the offline engine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry
from ..types import DetectedChange
from .detector import IncrementalDetector, score_pass

__all__ = ["DetectorPool", "POOLED_BATCHES_METRIC", "POOLED_SERIES_METRIC",
           "GATING_TABLES_METRIC", "GATED_CANDIDATES_METRIC",
           "SCORED_WINDOWS_METRIC"]

POOLED_BATCHES_METRIC = "repro_live_pooled_batches_total"
POOLED_SERIES_METRIC = "repro_live_pooled_series_total"
GATING_TABLES_METRIC = "repro_live_gating_tables_total"
GATED_CANDIDATES_METRIC = "repro_live_gated_candidates_total"
SCORED_WINDOWS_METRIC = "repro_live_scored_windows_total"


class DetectorPool:
    """Decides many incremental detectors' pending positions per pass."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.batches = 0
        self.series = 0

    def score_pending(
        self, detectors: Sequence[IncrementalDetector], flush: bool = False,
    ) -> List[Tuple[int, DetectedChange]]:
        """One table, kernel, scan pass over every pending detector.

        ``flush`` is the deadline form: the chunk threshold is waived
        and every undeclared detector is scanned whether or not it had
        anything new to score (:meth:`IncrementalDetector.flush`).

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
                config = detector.config
            same = detector.config is config or (
                detector.config.sst == config.sst
                and detector.config.policy == config.policy)
            (pending if same else strays).append(
                (groups.setdefault(bounds[1] - bounds[0], len(groups)),
                 index, detector))
        if not pending:
            return []
        decided, masks = score_pass([detector for _, _, detector in pending])
        rows = sum(int(mask.any(axis=1).sum()) for mask in masks)
        self.batches += len(masks)
        self.series += rows
        for name, help_text, amount in (
                (GATING_TABLES_METRIC,
                 "Gating tables built by the pool (one per pass).",
                 min(decided, 1)),
                (GATED_CANDIDATES_METRIC,
                 "Positions decided from a pool gating table.", decided),
                (POOLED_BATCHES_METRIC,
                 "Stacked scoring calls issued by the pool.", len(masks)),
                (POOLED_SERIES_METRIC,
                 "Detector rows scored through the pool.", rows),
                (SCORED_WINDOWS_METRIC,
                 "Window pairs the pool handed to the kernel.",
                 sum(int(mask.sum()) for mask in masks))):
            if amount:
                self.metrics.counter(name, help=help_text).inc(amount)
        for _, _, detector in strays:
            detector.flush()
        # Width group by width group, input order inside each.
        return [(index, detector.declared)
                for _, index, detector in sorted(
                    pending + strays, key=lambda entry: entry[:2])
                if detector.declared is not None]
