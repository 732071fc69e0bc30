"""Push-driven FUNNEL detection, bit-identical to the offline path.

:class:`IncrementalDetector` re-implements
:meth:`repro.core.funnel.Funnel.detect` as a streaming computation over
a growing prefix, exploiting two structural facts:

* the score at position ``t`` is a pure function of the normalised
  samples ``x[t - span : t + span]`` (``span = 2*omega - 1``), so each
  arriving bin makes exactly one more score computable and a batched
  call over the newly eligible range returns values **bitwise equal**
  to the offline full-array call;
* :func:`repro.core.scoring.declare_changes` is prefix-stable: scanning
  a prefix finds exactly the full-scan declarations visible in it, so
  deciding the armed candidates as their scores appear — the same rule,
  read off the same gating table (:meth:`IncrementalDetector.scan`) —
  yields the same first reportable declaration (same ``index``,
  ``start_index`` and ``direction``) the offline engine attributes.

The declared change's ``score`` and ``kind`` fields are the exception:
offline computes them with samples *after* the declaration bin (the
zero-filled score tail and the classifier's forward context), which a
live detector by definition does not have yet.  Both are reported from
the data available at declaration time and are excluded from the
live-vs-offline parity contract (see ``docs/live.md``).

``score_chunk_bins`` batches scoring calls: with chunk ``c`` the
detector scores once every ``c`` bins, amortising the fixed per-call
cost.  Declarations are still found at the same indices — at most
``c - 1`` bins later in arrival time — and :meth:`flush` (called at the
change deadline) scores any remainder, so no declaration is ever lost
to chunking.

Storage is three private growable arrays (raw values, normalised
values, scores) that double when full; :meth:`state_dict` carries only
the live prefix, so a checkpoint does not depend on how they are held.
The scoring mode (``deferred_scoring``) belongs to the constructor and
is not part of the snapshot either.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.funnel import FunnelConfig
from ..core.ika import IkaSST
from ..core.robust import MAD_TO_SIGMA, median_and_mad
from ..core.scoring import (_confirmed_directions, _declared_change,
                            confirm_candidate)
from ..exceptions import CheckpointError
from ..types import DetectedChange

__all__ = ["IncrementalDetector", "armed_candidates"]


class IncrementalDetector:
    """Streaming change detection for one KPI around one software change.

    Feed bins with :meth:`extend`; the first reportable declaration
    (``start_index >= change_index - 1``, mirroring the offline filter)
    is returned once and stored as :attr:`declared`.
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
        #: buffers — a :class:`~repro.live.pool.DetectorPool` scores the
        #: pending segment in a stacked batch via :meth:`pending_bounds`
        #: / :meth:`apply_scores` and gates it from the pass's one table
        #: via :func:`armed_candidates` / :meth:`scan`, deadline flush
        #: included.  False is the standalone mode: :meth:`extend` and
        #: :meth:`flush` score at once, which is also the oracle the
        #: pooled path is tested against.
        self.deferred = bool(deferred_scoring)
        #: Samples each score consumes on either side of its position.
        self.span = self.config.sst.lead
        #: The wall-clock lag declare_changes charges the score with.
        self.lookahead = self.config.sst.lookahead - 1
        self._values = np.empty(128, dtype=np.float64)
        self._norm = np.empty(128, dtype=np.float64)
        #: Zero wherever no score was computed yet (see :meth:`_grow`).
        self._scores = np.zeros(128, dtype=np.float64)
        self._n = 0
        self._stats: Optional[tuple] = None
        self._denominator = 0.0
        self._next_score_t = self.span
        self._scan_t = 0
        self.declared: Optional[DetectedChange] = None

    # -- state ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def series(self) -> np.ndarray:
        """The raw samples received so far (view; do not mutate)."""
        return self._values[:self._n]

    @property
    def scores(self) -> np.ndarray:
        """Scores computed so far (zeros where not yet computable)."""
        return self._scores[:self._n]

    def _grow(self, needed: int) -> None:
        """Make room for ``needed`` bins, at least doubling; new score
        columns are zero-filled, which ``scores`` and the scan rely on."""
        if needed <= self._values.size:
            return
        extra = np.zeros(max(self._values.size, needed - self._values.size))
        self._values = np.concatenate([self._values, extra])
        self._norm = np.concatenate([self._norm, extra])
        self._scores = np.concatenate([self._scores, extra])

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot of the full streaming state.

        Every float survives the JSON round-trip exactly (``repr`` of a
        finite double is lossless), so a detector restored from this
        snapshot continues **bit-identically** to one that never
        stopped — the property the kill-and-resume test pins.
        """
        n = self._n
        return {
            "n": n,
            "values": self._values[:n].tolist(),
            "norm": self._norm[:n].tolist(),
            "scores": self._scores[:n].tolist(),
            "stats": (list(self._stats) if self._stats is not None
                      else None),
            "denominator": self._denominator,
            "next_score_t": self._next_score_t,
            "scan_t": self._scan_t,
            "declared": (None if self.declared is None else {
                "index": self.declared.index,
                "start_index": self.declared.start_index,
                "score": self.declared.score,
                "kind": self.declared.kind,
                "direction": self.declared.direction,
            }),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (inverse operation).

        The snapshot comes from a file: each array must hold exactly
        ``n`` bins, or :class:`~repro.exceptions.CheckpointError` names
        the field that does not.
        """
        n = int(state["n"])
        self._grow(n)
        for field, column in (("values", self._values), ("norm", self._norm),
                              ("scores", self._scores)):
            loaded = np.asarray(state[field], dtype=np.float64)
            if loaded.shape != (n,):
                raise CheckpointError(
                    "detector state field %r has shape %s, expected %d bins"
                    % (field, loaded.shape, n))
            column[:n] = loaded
        self._scores[n:] = 0.0
        self._n = n
        stats = state["stats"]
        self._stats = None if stats is None else tuple(stats)
        self._denominator = float(state["denominator"])
        self._next_score_t = int(state["next_score_t"])
        self._scan_t = int(state["scan_t"])
        declared = state["declared"]
        self.declared = (None if declared is None
                         else DetectedChange(**declared))

    # -- ingest ---------------------------------------------------------------

    def extend(self, values: np.ndarray) -> Optional[DetectedChange]:
        """Append bins; returns the declaration the moment it fires."""
        values = np.asarray(values, dtype=np.float64).ravel()
        old_n = self._n
        self._grow(old_n + values.size)
        self._values[old_n:old_n + values.size] = values
        self._n = old_n + values.size

        baseline = max(self.change_index, 1)
        if self._stats is None and self._n >= baseline:
            med, scale = median_and_mad(self._values[:baseline])
            self._stats = (med, scale)
            # Same expression as robust_normalise, so the normalised
            # prefix is bitwise identical to the offline transform.
            self._denominator = MAD_TO_SIGMA * scale + 1e-9
            self._norm[:self._n] = (
                self._values[:self._n] - med) / self._denominator
        elif self._stats is not None:
            med = self._stats[0]
            self._norm[old_n:self._n] = (
                self._values[old_n:self._n] - med) / self._denominator

        if self._stats is None or self.deferred:
            return None
        self._score(flush=False)
        return self.scan()

    def flush(self) -> Optional[DetectedChange]:
        """Score and scan everything computable (deadline close)."""
        if self._stats is None or self.declared is not None:
            return None
        self._score(flush=True)
        return self.scan()

    # -- scoring --------------------------------------------------------------

    def _score(self, flush: bool) -> None:
        t_hi = self._n - self.span
        t_lo = self._next_score_t
        if t_hi < t_lo:
            return
        if not flush and t_hi - t_lo + 1 < self.score_chunk_bins:
            return
        segment = self._norm[t_lo - self.span:t_hi + self.span]
        self.apply_scores(self.scorer.scores(segment), t_lo, t_hi)

    # -- pooled scoring --------------------------------------------------------

    def pending_bounds(self, flush: bool = False) -> Optional[tuple]:
        """The ``(t_lo, t_hi)`` score range a pooled pass would fill.

        Exactly the gating of ``_score`` — same chunk threshold, waived
        by ``flush`` — so a pooled detector scores the same ranges on
        the same ticks a standalone one would, just in a shared batch.
        Like :meth:`flush`, a flushing pass scans even with nothing left
        to score: the range is then empty (``t_hi < t_lo``), not ``None``.
        """
        if self._stats is None or self.declared is not None:
            return None
        t_hi = self._n - self.span
        t_lo = self._next_score_t
        if not flush and (t_hi < t_lo
                          or t_hi - t_lo + 1 < self.score_chunk_bins):
            return None
        return t_lo, t_hi

    def apply_scores(self, segment_scores: np.ndarray, t_lo: int,
                     t_hi: int) -> None:
        """Write back the scores of ``_norm[t_lo - span:t_hi + span]``
        (one pooled pass over :meth:`pending_bounds`, or ``_score``)."""
        self._scores[t_lo:t_hi + 1] = \
            segment_scores[self.span:self.span + (t_hi - t_lo + 1)]
        self._next_score_t = t_hi + 1

    # -- declaration scan ------------------------------------------------------

    def scan(self, armed: Optional[np.ndarray] = None, n_decidable: int = 0,
             directions: Optional[List[int]] = None
             ) -> Optional[DetectedChange]:
        """Decide the armed candidates, oldest first.

        The pool passes this detector's row of :func:`armed_candidates`
        and of the pass's gating table (``directions[j]`` for
        ``armed[j]``); called bare, the detector makes the one-row cut
        and table itself.  Without ``directions`` (the table refuses
        non-finite samples) ``confirm_candidate`` decides each candidate.
        """
        policy = self.config.policy
        x = self._norm[:self._n]
        s = self._scores[:self._n]
        if armed is None:
            hits = armed_candidates([self]) if self.declared is None else ()
            if not hits:
                return None
            _, armed, n_decidable = hits[0]
            if n_decidable:
                directions = _confirmed_directions(
                    [x], [armed[:n_decidable]], policy)[0]
        for j, candidate in enumerate(armed.tolist()):
            if candidate < self._scan_t:
                continue  # skipped by an earlier confirmed window
            if j >= n_decidable:
                # Not decidable yet — retry from here on the next push.
                self._scan_t = candidate
                return None
            if directions is None:
                declared = confirm_candidate(
                    x, s, candidate, policy, lookahead=self.lookahead)
            elif directions[j]:
                declared = _declared_change(
                    x, s, candidate, directions[j], policy, self.lookahead)
            else:
                declared = None
            if declared is None:
                self._scan_t = candidate + 1
                continue
            self._scan_t = declared.index + 1
            if declared.start_index >= self.change_index - 1:
                self.declared = declared
                return declared
        return None


def armed_candidates(detectors: Sequence[IncrementalDetector]
                     ) -> List[Tuple[int, np.ndarray, int]]:
    """``(position, armed, n_decidable)`` for every detector of the list
    (undeclared, one shared config) that holds an armed candidate.

    ``armed`` are the indices from the scan cursor on whose score
    exceeds the threshold — one comparison over all the detectors — and
    the first ``n_decidable`` of them are decidable with the bins
    received so far.  A candidate is *attemptable* once its score
    exists, decidable once its persistence window ends (candidate +
    persistence <= n) and its declaration index fits (candidate +
    max(persistence-1, lookahead) < n) — monotone, hence a prefix.
    """
    first = detectors[0]
    policy, span = first.config.policy, first.span
    pad = max(policy.persistence,
              max(policy.persistence - 1, first.lookahead) + 1)
    # Scan cursor to one past the last attemptable index, per detector.
    stretches = [(d._scan_t, max(d._scan_t, min(d._next_score_t,
                                                d._n - span + 1)))
                 for d in detectors]
    hot = np.flatnonzero(np.concatenate(
        [d._scores[lo:hi] for d, (lo, hi) in zip(detectors, stretches)]
    ) > policy.score_threshold)
    if not hot.size:
        return []
    ends = np.cumsum([hi - lo for lo, hi in stretches])
    owner = np.searchsorted(ends, hot, side="right")
    runs = np.flatnonzero(np.diff(owner, prepend=-1)).tolist() + [hot.size]
    hits = []
    for i, position in enumerate(owner[runs[:-1]].tolist()):
        # Offset in the concatenation -> index in the detector's series.
        armed = hot[runs[i]:runs[i + 1]] + (
            stretches[position][1] - int(ends[position]))
        hits.append((position, armed, int(np.searchsorted(
            armed, detectors[position]._n - pad, side="right"))))
    return hits
