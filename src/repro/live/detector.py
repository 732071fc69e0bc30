"""Push-driven FUNNEL detection, bit-identical to the offline path.

:class:`IncrementalDetector` re-implements
:meth:`repro.core.funnel.Funnel.detect` as a streaming computation over
a growing prefix, exploiting two structural facts:

* persistence at position ``t`` is a pure function of the normalised
  prefix ``x[:t + persistence]`` and the score at ``t`` of
  ``x[t - span : t + span]`` (``span = 2*omega - 1``), so each arriving
  bin makes exactly one more position decidable, from the **bitwise**
  table row and score of the offline full-array calls;
* :func:`repro.core.scoring.declare_changes` is prefix-stable: scanning
  a prefix finds exactly the full-scan declarations visible in it, so
  deciding the positions as they become decidable — the same rule in
  the same order, *table, kernel, scan* (:func:`score_pass`) — yields
  the first reportable declaration the offline engine attributes.

A pass tables the positions from each detector's scan cursor on, asks
the kernel — once — only for those whose persistence window confirms,
and moves the cursor past every position it decided.  No score outlives
the pass that computed it; a declaration's ``score`` is the declaring
position's, bitwise the offline value whatever ``score_chunk_bins``.

The declared change's ``kind`` is the exception to the parity: offline
classifies with samples *after* the declaration bin, which a live
detector does not have yet.  It is reported from the data available at
declaration time and excluded from the contract (see ``docs/live.md``).

``score_chunk_bins`` batches passes: with chunk ``c`` a detector takes
part once every ``c`` bins, amortising the fixed per-pass cost.
Declarations are still found at the same indices — at most ``c - 1``
bins later in arrival time — and :meth:`IncrementalDetector.flush` (the
change deadline) decides any remainder, so chunking loses none.

Storage is two private growable arrays (raw and normalised values) that
double when full.  :meth:`~IncrementalDetector.extend` only buffers raw
bins; :meth:`~IncrementalDetector.scan`, a pass's first reader, and
:meth:`~IncrementalDetector.load_state` normalise what arrived.  A
checkpoint carries only the raw live prefix, and neither how the arrays
are held nor the scoring mode (``deferred_scoring``) is part of it.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.funnel import FunnelConfig
from ..core.ika import IkaSST
from ..core.robust import MAD_TO_SIGMA, median_and_mad
from ..core.scoring import (_confirmed_directions, _declared_change,
                            _reportable, _score_and_scan, candidate_mask,
                            confirm_candidate)
from ..types import DetectedChange

__all__ = ["IncrementalDetector"]


class IncrementalDetector:
    """Streaming change detection for one KPI around one software change.

    Feed bins with :meth:`extend`; the first reportable declaration
    (one starting at/after the change — the offline rule's own
    predicate) is returned once and stored as :attr:`declared`.
    """

    def __init__(self, change_index: int,
                 config: Optional[FunnelConfig] = None,
                 score_chunk_bins: int = 1,
                 deferred_scoring: bool = False) -> None:
        self.config = config or FunnelConfig()
        self.scorer = IkaSST(self.config.sst)
        self.change_index = change_index
        self.score_chunk_bins = max(1, score_chunk_bins)
        #: When True (every live-service tracker), :meth:`extend` only
        #: buffers — a :class:`~repro.live.pool.DetectorPool` runs one
        #: :func:`score_pass` over every detector :meth:`pending_bounds`
        #: names, deadline flush included.  False is the standalone
        #: mode: :meth:`extend` and :meth:`flush` run that very pass on
        #: this detector alone.
        self.deferred = bool(deferred_scoring)
        #: Samples each score consumes on either side of its position.
        self.span = self.config.sst.lead
        #: The wall-clock lag declare_changes charges the score with.
        self.lookahead = self.config.sst.lookahead - 1
        #: Bins from a declaring position to its declaration index.
        self.horizon = max(self.config.policy.persistence - 1, self.lookahead)
        self._values = np.empty(128, dtype=np.float64)
        self._norm = np.empty(128, dtype=np.float64)
        self._n = 0
        #: ``_norm[:_normed]`` is up to date (:meth:`_normalise`).
        self._normed = 0
        self._stats: Optional[tuple] = None
        self._denominator = 0.0
        #: One past the last position a pass could score (chunk gate).
        self._next_score_t = self.span
        #: The scan cursor: every position before it is decided.
        self._scan_t = 0
        self.declared: Optional[DetectedChange] = None

    # -- state ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def series(self) -> np.ndarray:
        """The raw samples received so far (view; do not mutate)."""
        return self._values[:self._n]

    def _grow(self, needed: int) -> None:
        """Make room for ``needed`` bins, at least doubling."""
        if needed <= self._values.size:
            return
        extra = np.empty(max(self._values.size, needed - self._values.size))
        self._values = np.concatenate([self._values, extra])
        self._norm = np.concatenate([self._norm, extra])

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the full streaming state, ``values`` an ndarray
        copy; :meth:`load_state` rebuilds the normalised prefix, so a
        restored detector continues bit-identically."""
        n = self._n
        return {
            "n": n,
            "values": self._values[:n].copy(),
            "stats": (list(self._stats) if self._stats is not None
                      else None),
            "denominator": self._denominator,
            "next_score_t": self._next_score_t,
            "scan_t": self._scan_t,
            "declared": (None if self.declared is None
                         else dataclasses.asdict(self.declared)),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (inverse operation).

        ``values``: an array, list or base64 column of ``n`` bins (else
        :class:`~repro.exceptions.CheckpointError`).  A format-1 ``norm``
        is ignored (rebuilt bitwise by :meth:`_normalise`), as are
        older ``scores`` (the first pass re-decides their positions).
        """
        from .checkpoint import decode_floats  # cyclic at import time
        n = int(state["n"])
        self._grow(n)
        self._values[:n] = decode_floats(state["values"], "values", n)
        self._n = n
        stats = state["stats"]
        self._stats = None if stats is None else tuple(stats)
        self._denominator = float(state["denominator"])
        self._normed = 0
        self._normalise()
        self._next_score_t = int(state["next_score_t"])
        self._scan_t = int(state["scan_t"])
        declared = state["declared"]
        self.declared = (None if declared is None
                         else DetectedChange(**declared))

    # -- ingest ---------------------------------------------------------------

    def extend(self, values: np.ndarray) -> Optional[DetectedChange]:
        """Buffer bins (a 1-D ndarray as is); returns the declaration."""
        if type(values) is not np.ndarray or values.ndim != 1:
            values = np.asarray(values, dtype=np.float64).ravel()
        n = self._n + values.size
        self._grow(n)
        self._values[self._n:n] = values
        self._n = n
        baseline = max(self.change_index, 1)
        if self._stats is None and n >= baseline:
            self._stats = median_and_mad(self._values[:baseline])
            # Same expression as robust_normalise, so the normalised
            # prefix is bitwise identical to the offline transform.
            self._denominator = MAD_TO_SIGMA * self._stats[1] + 1e-9
        return None if self.deferred else self._pass(flush=False)

    def _normalise(self) -> None:
        """Normalise new bins elementwise: bitwise the offline transform."""
        lo, n = self._normed, self._n
        if self._stats is not None and lo < n:
            self._norm[lo:n] = (
                self._values[lo:n] - self._stats[0]) / self._denominator
            self._normed = n

    def flush(self) -> Optional[DetectedChange]:
        """Decide everything decidable (deadline close)."""
        return self._pass(flush=True)

    def _pass(self, flush: bool) -> Optional[DetectedChange]:
        if self.pending_bounds(flush) is None:
            return None
        score_pass([self])
        return self.declared

    # -- the scoring pass ------------------------------------------------------

    def pending_bounds(self, flush: bool = False) -> Optional[tuple]:
        """The ``(t_lo, t_hi)`` score range a pass would newly cover,
        ``None`` when the detector sits this pass out.

        A detector takes part once ``score_chunk_bins`` new positions
        are scoreable — ``flush`` waives the threshold, and a flushing
        pass scans even with nothing new to cover: the range is then
        empty (``t_hi < t_lo``), not ``None``.
        """
        if self._stats is None or self.declared is not None:
            return None
        t_hi = self._n - self.span
        t_lo = self._next_score_t
        if not flush and (t_hi < t_lo
                          or t_hi - t_lo + 1 < self.score_chunk_bins):
            return None
        return t_lo, t_hi

    def scan(self) -> np.ndarray:
        """The positions this pass decides: from the scan cursor to the
        last one whose persistence window and declaration index fit the
        bins received.  Moves the cursor (and the chunk gate) past them,
        and brings the normalised prefix the pass reads up to date.
        """
        self._normalise()
        self._next_score_t = max(self._next_score_t, self._n - self.span + 1)
        positions = np.arange(max(self._scan_t, self.span),
                              self._n - self.horizon)
        if positions.size:
            self._scan_t = int(positions[-1]) + 1
        return positions

    def apply_scores(self, scores: np.ndarray, chain: Sequence[int],
                     directions: Optional[np.ndarray] = None
                     ) -> Optional[DetectedChange]:
        """Declare from this pass's score row (indexed like the series;
        it is gone after the pass): ``chain`` holds the positions that
        declare, oldest first, ``directions[t]`` their sign.  The first
        reportable change is the one kept.

        Without ``directions`` — the table refuses a row with non-finite
        samples — ``chain`` is every armed position and
        :func:`confirm_candidate`, the rule as written, decides each.
        """
        x, policy, resume = self._norm[:self._n], self.config.policy, 0
        for t in chain:
            if t < resume:
                continue                 # inside an earlier stretch
            declared = (
                confirm_candidate(x, scores, t, policy, self.lookahead)
                if directions is None else _declared_change(
                    x, scores, t, int(directions[t]), policy, self.lookahead))
            if declared is not None:
                resume = declared.index + 1
                self._scan_t = max(self._scan_t, resume)
                if _reportable(declared, self.change_index):
                    self.declared = declared
                    return declared
        return None


def score_pass(detectors: Sequence[IncrementalDetector]
               ) -> Tuple[int, List[np.ndarray]]:
    """One *table, kernel, scan* pass over detectors of one configuration
    whose :meth:`~IncrementalDetector.pending_bounds` named them.

    Builds one gating table over the positions each detector can now
    decide, makes one kernel call for the positions that confirm — none,
    on most ticks — and leaves each declaration in its detector's
    ``declared``.

    Returns the number of positions decided and the ``where`` mask of
    the kernel call, if one was made (one row per detector in it).
    """
    first = detectors[0]
    policy, span, scorer = first.config.policy, first.span, first.scorer
    tabled = [(detector, positions) for detector, positions in
              ((detector, detector.scan()) for detector in detectors)
              if positions.size]
    decided = sum(positions.size for _, positions in tabled)
    found = _confirmed_directions([d._norm[:d._n] for d, _ in tabled],
                                  [p for _, p in tabled], policy)
    rows = []
    for (detector, positions), directions in zip(tabled, found):
        if directions is None:       # score all that is left, then ask
            start, n = int(positions[0]) - span, detector._n
            scores = np.zeros(n, dtype=np.float64)
            scores[start:] = scorer.scores(detector._norm[start:n])
            detector.apply_scores(scores, positions[candidate_mask(
                scores[positions], policy)].tolist())
        elif directions.any():
            rows.append((detector, positions, directions))
    if not rows:
        return decided, []
    lengths = np.array([detector._n for detector, _, _ in rows])
    stack = np.zeros((len(rows), lengths.max()), dtype=np.float64)
    signs = np.zeros(stack.shape, dtype=np.intp)
    for row, (detector, positions, directions) in enumerate(rows):
        stack[row, :lengths[row]] = detector._norm[:lengths[row]]
        signs[row, positions] = directions
    where = signs != 0             # decidable, hence scoreable by now
    chains, scores = _score_and_scan(
        where, lambda mask: scorer.scores_batch(stack, lengths, where=mask),
        policy, first.horizon)
    for (detector, _, _), chain, row, sign in zip(rows, chains, scores, signs):
        if chain:
            detector.apply_scores(row, chain, sign)
    return decided, [where]
