"""Cross-detector pooled scoring — the live service's one scoring path.

One window is cheap; what a tracker deciding on its own pays per tick is
the fixed cost of its own gating table and kernel call.  The
:class:`DetectorPool` therefore runs **one**
:func:`~repro.live.detector.score_pass` per tick over the pending rows
of every session's :class:`~repro.live.detector.IncrementalDetector`
(one row per tracked KPI), whatever their lengths: one gating table over
the positions they can now decide, one :meth:`~repro.core.ika.IkaSST.scores_batch` call for the
positions whose persistence window confirms — none on most ticks, the
cheap half of the declaration rule having rejected them.  ``flush=True``
is the deadline form of the same pass.

Parity: the table is bitwise the per-candidate rule and ``scores_batch``
bitwise the per-series scorer, whatever else rides in the stack (pinned
in ``tests/core``); :meth:`IncrementalDetector.flush` is this very pass
over one detector; and the scheduler invokes the pool after the tick's
drain and before any deadline close — so a replay declares what the
eager reference in ``tests/live/oracle.py`` (score everything, confirm
each armed candidate) declares on the same bins, and matches the
offline engine.
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
    """Decides many incremental detectors' pending rows per pass."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics or MetricsRegistry()

    def score_pending(
        self, detectors: Sequence[IncrementalDetector], flush: bool = False,
    ) -> List[Tuple[int, int, DetectedChange]]:
        """One table, kernel, scan pass over every pending row.

        ``flush`` is the deadline form: the chunk threshold is waived
        and every undeclared open row is scanned whether or not it had
        anything new to score (:meth:`IncrementalDetector.flush`).  One
        pass scores one configuration (a service has one): detectors
        configured otherwise raise :class:`ValueError`.

        Returns ``(index, row, declaration)`` — ``index`` into
        ``detectors`` — for every declaration found, in input order
        (detector, then row).
        """
        work, config = [], None
        for index, detector in enumerate(detectors):
            rows = detector.pending_rows(flush)
            if not rows.size:
                continue
            if config is None:
                config = detector.config
            elif not (detector.config is config or (
                    detector.config.sst == config.sst
                    and detector.config.policy == config.policy)):
                raise ValueError("one pass scores one configuration: %r "
                                 "differs from %r" % (detector.config, config))
            work.append((index, detector, rows))
        if not work:
            return []
        decided, masks, found = score_pass(
            [(detector, rows) for _, detector, rows in work])
        rows = sum(int(mask.any(axis=1).sum()) for mask in masks)
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
        return [(work[slot][0], row, declaration) for slot, row, declaration
                in sorted(found, key=lambda entry: entry[:2])]
