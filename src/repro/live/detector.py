"""Push-driven FUNNEL detection, bit-identical to the offline path.

:class:`IncrementalDetector` re-implements
:meth:`repro.core.funnel.Funnel.detect` as a streaming computation over
a growing prefix, one row per KPI, exploiting two structural facts:

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

A pass tables the positions from each row's scan cursor on, asks the
kernel — once — only for those whose persistence window confirms, and
moves the cursors past every position it decided.  No score outlives
the pass that computed it; a declaration's ``score`` is the declaring
position's, bitwise the offline value whatever ``score_chunk_bins``.

The declared change's ``kind`` is the exception to the parity: offline
classifies with samples *after* the declaration bin, which a live
detector does not have yet.  It is reported from the data available at
declaration time and excluded from the contract (see ``docs/live.md``).

``score_chunk_bins`` batches passes: with chunk ``c`` a row takes part
once every ``c`` bins, amortising the fixed per-pass cost.  Declarations
are still found at the same indices — at most ``c - 1`` bins later in
arrival time — and :meth:`IncrementalDetector.flush` (the change
deadline) decides any remainder, so chunking loses none.

Storage is one :class:`RowMatrix` with a raw and a normalised plane whose
capacity doubles when full; every per-row quantity (length, robust
stats, chunk gate, scan cursor) is an array over rows, so a live
session's block of bins is one column write.  Rows are independent: a
row of a ``k``-row detector ends bitwise where a one-row detector fed
the same bins ends.  :meth:`~IncrementalDetector.extend` only buffers
raw bins; :meth:`~IncrementalDetector.scan`, a pass's first reader, and
:meth:`~IncrementalDetector.load_state` normalise what arrived.  Every
pass is a :func:`score_pass` — a :class:`~repro.live.pool.DetectorPool`
tick over many detectors, or :meth:`~IncrementalDetector.flush` over one
— and it refuses a row with a non-finite sample, which no caller feeds:
the store and :class:`~repro.telemetry.timeseries.TimeSeries` refuse
them, and so does a checkpoint's decoder.  A checkpoint carries one
row's raw live prefix; how the rows are held is not part of it.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.funnel import FunnelConfig
from ..core.ika import IkaSST
from ..core.robust import MAD_TO_SIGMA, median_and_mad
from ..core.scoring import (_confirmed_directions, _declared_changes,
                            _score_and_scan)
from ..exceptions import ParameterError
from ..types import DetectedChange

__all__ = ["IncrementalDetector", "RowMatrix"]

#: The chunk gate of a row that sits every pass out.
NEVER = np.iinfo(np.int64).max

#: ``(detector, rows)`` — the rows of one detector a pass decides.
Work = Tuple["IncrementalDetector", np.ndarray]


class RowMatrix:
    """Float rows, each with its own length, in ``planes`` matrices of one
    shape whose row and bin capacities double when full.

    ``planes[0]`` holds the samples :meth:`append` writes; further planes
    are the owner's to fill (the detector's normalised values).  A
    frozen row takes no more bins and keeps its length.
    """

    __slots__ = ("planes", "length", "frozen", "any_frozen")

    def __init__(self, planes: int = 1) -> None:
        self.planes = [np.empty((4, 128), dtype=np.float64)
                       for _ in range(planes)]
        self.length = np.zeros(0, dtype=np.int64)
        self.frozen = np.zeros(0, dtype=bool)
        self.any_frozen = False

    def add_rows(self, count: int) -> range:
        first = self.length.size
        self._reserve(first + count, 0)
        self.length = np.concatenate(
            (self.length, np.zeros(count, dtype=np.int64)))
        self.frozen = np.concatenate(
            (self.frozen, np.zeros(count, dtype=bool)))
        return range(first, first + count)

    def row(self, row: int) -> np.ndarray:
        """The samples of ``row`` (a view; do not mutate)."""
        return self.planes[0][row, :self.length[row]]

    def freeze(self, row: int) -> None:
        self.frozen[row] = self.any_frozen = True

    def _reserve(self, rows: int, bins: int) -> None:
        held, width = self.planes[0].shape
        if rows <= held and bins <= width:
            return
        shape = (max(rows, 2 * held) if rows > held else held,
                 max(bins, 2 * width) if bins > width else width)
        used, filled = self.length.size, int(self.length.max(initial=0))
        for index, plane in enumerate(self.planes):
            grown = np.empty(shape, dtype=np.float64)
            grown[:used, :filled] = plane[:used, :filled]
            self.planes[index] = grown

    def append(self, rows: np.ndarray, block: np.ndarray) -> np.ndarray:
        """Write ``block[i]`` after the samples of ``rows[i]``, frozen rows
        left out; returns the rows written."""
        if self.any_frozen:
            open_ = ~self.frozen[rows]
            rows, block = rows[open_], block[open_]
        if not rows.size:
            return rows
        # Scalar checks on a list: a few rows' numpy reductions cost more.
        lengths, bins = self.length[rows].tolist(), block.shape[1]
        lo = lengths[0]
        if lengths.count(lo) == len(lengths):   # a session's rows move
            self._reserve(self.length.size, lo + bins)          # together
            self.planes[0][rows, lo:lo + bins] = block
            self.length[rows] = lo + bins
        else:
            self._reserve(self.length.size, max(lengths) + bins)
            lengths = np.array(lengths)
            self.planes[0][rows[:, None],
                           lengths[:, None] + np.arange(bins)] = block
            self.length[rows] = lengths + bins
        return rows


class IncrementalDetector:
    """Streaming change detection for ``k`` KPIs around software changes.

    One row per entry of ``change_index`` (an int is one row; more rows
    join with :meth:`add_rows`).  Feed bins with :meth:`extend`; each
    row's first reportable declaration (one starting at/after its change
    — the offline rule's own predicate) is kept in :attr:`declarations`.
    """

    def __init__(self, change_index=(),
                 config: Optional[FunnelConfig] = None,
                 score_chunk_bins: int = 1) -> None:
        self.config = config or FunnelConfig()
        self.scorer = IkaSST(self.config.sst)
        self.score_chunk_bins = max(1, score_chunk_bins)
        #: Samples each score consumes on either side of its position.
        self.span = self.config.sst.lead
        #: The wall-clock lag declare_changes charges the score with.
        self.lookahead = self.config.sst.lookahead - 1
        #: Bins from a declaring position to its declaration index.
        self.horizon = max(self.config.policy.persistence - 1, self.lookahead)
        self._rows = RowMatrix(planes=2)        # raw, normalised
        self.change_index = np.zeros(0, dtype=np.int64)
        #: ``planes[1][r, :_normed[r]]`` is up to date (:meth:`_normalise`).
        self._normed = np.zeros(0, dtype=np.int64)
        self._has_stats = np.zeros(0, dtype=bool)
        self._median = np.zeros(0, dtype=np.float64)
        self._mad = np.zeros(0, dtype=np.float64)
        self._denominator = np.zeros(0, dtype=np.float64)
        #: One past the last position a pass could score (chunk gate).
        self._next_score_t = np.zeros(0, dtype=np.int64)
        #: The scan cursor: every position before it is decided.
        self._scan_t = np.zeros(0, dtype=np.int64)
        #: The length at which a row takes part in a pass (the chunk gate
        #: in bins); :data:`NEVER` for a row without robust stats, a
        #: declared row and a frozen one.
        self._ready_at = np.zeros(0, dtype=np.int64)
        #: How many rows still wait for their robust stats.
        self._waiting = 0
        self.declarations: List[Optional[DetectedChange]] = []
        self.add_rows(change_index)

    def add_rows(self, change_index) -> range:
        """New empty rows, one per KPI whose change is at an entry of
        ``change_index`` (an int is one)."""
        change_index = np.atleast_1d(np.asarray(change_index, dtype=np.int64))
        count = change_index.size
        rows = self._rows.add_rows(count)
        self.change_index = np.concatenate((self.change_index, change_index))
        for name, value in (("_normed", 0), ("_has_stats", False),
                            ("_median", 0.0), ("_mad", 0.0),
                            ("_denominator", 0.0),
                            ("_next_score_t", self.span), ("_scan_t", 0),
                            ("_ready_at", NEVER)):
            held = getattr(self, name)
            setattr(self, name, np.concatenate(
                (held, np.full(count, value, dtype=held.dtype))))
        self.declarations.extend([None] * count)
        self._waiting += count
        return rows

    def _gate(self, row: int) -> None:
        """Recompute the chunk gate of ``row`` from its state."""
        self._ready_at[row] = (
            int(self._next_score_t[row]) + self.span
            + self.score_chunk_bins - 1
            if self._has_stats[row] and self.declarations[row] is None
            and not self._rows.frozen[row] else NEVER)

    # -- state ----------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.change_index.size

    def length(self, row: int = 0) -> int:
        """Bins received on ``row``."""
        return int(self._rows.length[row])

    def series(self, row: int = 0) -> np.ndarray:
        """The raw samples ``row`` received so far (view; do not mutate)."""
        return self._rows.row(row)

    def freeze(self, row: int) -> None:
        """``row`` takes no more bins (its KPI is done or degraded)."""
        self._rows.freeze(row)
        self._ready_at[row] = NEVER

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self, row: int = 0) -> dict:
        """Snapshot of one row's full streaming state, ``values`` an
        ndarray copy; :meth:`load_state` rebuilds the normalised prefix,
        so a restored row continues bit-identically."""
        declared = self.declarations[row]
        return {
            "n": self.length(row),
            "values": self.series(row).copy(),
            "stats": ([float(self._median[row]), float(self._mad[row])]
                      if self._has_stats[row] else None),
            "denominator": float(self._denominator[row]),
            "next_score_t": int(self._next_score_t[row]),
            "scan_t": int(self._scan_t[row]),
            "declared": (None if declared is None
                         else dataclasses.asdict(declared)),
        }

    def load_state(self, state: dict, row: int = 0) -> None:
        """Restore a :meth:`state_dict` snapshot into ``row``.

        ``values``: an array, list or base64 column of ``n`` bins (else
        :class:`~repro.exceptions.CheckpointError`).  A format-1 ``norm``
        is ignored (rebuilt bitwise by :meth:`_normalise`), as are
        older ``scores`` (the first pass re-decides their positions).
        """
        from .checkpoint import decode_floats  # cyclic at import time
        n = int(state["n"])
        values = decode_floats(state["values"], "values", n)
        self._rows._reserve(self.rows, n)
        self._rows.planes[0][row, :n] = values
        self._rows.length[row] = n
        stats = state["stats"]
        self._waiting += int(self._has_stats[row]) - int(stats is not None)
        self._has_stats[row] = stats is not None
        if stats is not None:
            self._median[row], self._mad[row] = stats
        self._denominator[row] = float(state["denominator"])
        self._normed[row] = 0
        if stats is not None:
            rows = np.array([row])
            self._normalise(rows, self._rows.length[rows])
        self._next_score_t[row] = int(state["next_score_t"])
        self._scan_t[row] = int(state["scan_t"])
        declared = state["declared"]
        self.declarations[row] = (None if declared is None
                                  else DetectedChange(**declared))
        self._gate(row)

    # -- ingest ---------------------------------------------------------------

    def extend(self, values, rows=None) -> None:
        """Buffer bins: ``values[i]`` after the samples of ``rows[i]``
        (all rows by default; a 1-D ``values`` is one row's bins).
        Frozen rows keep their length.  Nothing is decided here: a
        :class:`~repro.live.pool.DetectorPool` pass or :meth:`flush`
        does that.
        """
        if type(values) is not np.ndarray:
            values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            values = values.reshape(1, -1)
        rows = (np.arange(self.rows) if rows is None
                else np.asarray(rows, dtype=np.intp).reshape(-1))
        rows = self._rows.append(rows, values)
        if self._waiting and rows.size:
            self._baseline_stats(rows)

    def _baseline_stats(self, rows: np.ndarray) -> None:
        """Robust stats for the ``rows`` whose baseline just completed."""
        for row in rows.tolist():
            baseline = max(int(self.change_index[row]), 1)
            if self._has_stats[row] or self._rows.length[row] < baseline:
                continue
            mad = median_and_mad(self._rows.planes[0][row, :baseline])
            self._has_stats[row] = True
            self._waiting -= 1
            self._median[row], self._mad[row] = mad
            # Same expression as robust_normalise, so the normalised
            # prefix is bitwise identical to the offline transform.
            self._denominator[row] = MAD_TO_SIGMA * mad[1] + 1e-9
            self._gate(row)

    def _normalise(self, rows: np.ndarray, n: np.ndarray) -> None:
        """Normalise the new bins of ``rows`` (which have robust stats;
        ``n`` their lengths) elementwise: bitwise the offline transform."""
        lo, hi = self._normed[rows].tolist(), n.tolist()
        a, b = lo[0], hi[0]
        raw, norm = self._rows.planes
        median, scale = self._median, self._denominator
        if lo.count(a) == len(lo) and hi.count(b) == len(hi):
            if a < b:                   # rows in lockstep: one block
                norm[rows, a:b] = ((raw[rows, a:b] - median[rows][:, None])
                                   / scale[rows][:, None])
        else:
            for row, a, b in zip(rows.tolist(), lo, hi):
                norm[row, a:b] = (raw[row, a:b] - median[row]) / scale[row]
        self._normed[rows] = n

    def flush(self) -> Optional[DetectedChange]:
        """Decide everything decidable now: one :func:`score_pass` over
        this detector's open rows, the chunk threshold waived.  A one-row
        detector gets the declaration this pass made, if any."""
        rows = self.pending_rows(flush=True)
        if not rows.size:
            return None
        found = score_pass([(self, rows)])[2]
        return found[0][2] if found else None

    # -- the scoring pass ------------------------------------------------------

    def pending_rows(self, flush: bool = False) -> np.ndarray:
        """The rows a pass would take.

        A row takes part once ``score_chunk_bins`` new positions are
        scoreable — ``flush`` waives the threshold, and a flushing pass
        scans a row even with nothing new to cover.  Rows without robust
        stats, declared or frozen sit every pass out.
        """
        return np.flatnonzero(self._ready_at != NEVER if flush
                              else self._rows.length >= self._ready_at)

    def scan(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The positions this pass decides on each of ``rows``: ``[lo,
        hi)``, from the scan cursor to the last one whose persistence
        window and declaration index fit the bins received.  Brings the
        normalised prefixes the pass reads up to date and moves nothing
        else: :meth:`advance` does, once the pass has accepted its rows.
        """
        n = self._rows.length[rows]
        self._normalise(rows, n)
        return np.maximum(self._scan_t[rows], self.span), n - self.horizon

    def advance(self, rows: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> None:
        """Move the cursors of ``rows`` past the positions :meth:`scan`
        gave them, and their chunk gates past the bins received."""
        gate = np.maximum(self._next_score_t[rows],
                          self._rows.length[rows] - (self.span - 1))
        self._next_score_t[rows] = gate
        self._ready_at[rows] = gate + (self.span + self.score_chunk_bins - 1)
        self._scan_t[rows] = np.where(hi > lo, hi, self._scan_t[rows])

    def apply_scores(self, row: int, walked: int,
                     declared: Optional[DetectedChange]) -> None:
        """Record what a pass's scores declared on ``row``: its scan
        resumes after ``walked`` (the index of the last declaration its
        chain walked), and a reportable ``declared`` is kept — the row
        sits every later pass out."""
        self._scan_t[row] = max(int(self._scan_t[row]), walked + 1)
        if declared is not None:
            self.declarations[row] = declared
            self._ready_at[row] = NEVER


def _advance(scans) -> None:
    for detector, rows, lo, hi in scans:
        detector.advance(rows, lo, hi)


def score_pass(work: Sequence[Work]) -> Tuple[
        int, List[np.ndarray], List[Tuple[int, int, DetectedChange]]]:
    """One *table, kernel, scan* pass over the rows of detectors of one
    configuration that :meth:`~IncrementalDetector.pending_rows` named.

    Builds one gating table over the positions each row can now decide —
    its NaN-padded stack read from each detector's matrix, one copy per
    detector — makes one kernel call for the positions that confirm —
    none, on most ticks — and one batched declaration
    (:func:`~repro.core.scoring._declared_changes`) for every row whose
    scan arms one, and leaves each row's first reportable declaration
    in its detector's :attr:`~IncrementalDetector.declarations`
    (:meth:`~IncrementalDetector.apply_scores`).

    Returns the number of positions decided, the ``where`` mask of the
    kernel call if one was made (one row per scored row), and the
    ``(work index, row, declaration)`` of every row that declared.  A
    pass that raises has moved no detector: the same pass raises again.
    """
    first = work[0][0]
    policy, scorer = first.config.policy, first.scorer
    scans = [(detector, rows) + detector.scan(rows)
             for detector, rows in work]
    tabled = []          # (work index, detector, rows, lengths, positions)
    for index, (detector, rows, lo, hi) in enumerate(scans):
        spans = [(row, a, b) for row, a, b in
                 zip(rows.tolist(), lo.tolist(), hi.tolist()) if a < b]
        if spans:
            if len(spans) < rows.size:
                rows = np.array([row for row, _, _ in spans])
            tabled.append((index, detector, rows,
                           detector._rows.length[rows].tolist(),
                           [np.arange(a, b) for _, a, b in spans]))
    if not tabled:
        _advance(scans)
        return 0, [], []
    sizes = [n for entry in tabled for n in entry[3]]
    lengths = np.array(sizes)
    candidates = [c for entry in tabled for c in entry[4]]
    decided = sum(c.size for c in candidates)
    stack = np.full((lengths.size, max(sizes)), np.nan)
    at = 0
    for _, detector, rows, n, _ in tabled:
        width = max(n)
        block = detector._rows.planes[1][rows, :width]
        if n.count(width) < len(n):     # NaN past each row's length
            block[np.arange(width) >= np.array(n)[:, None]] = np.nan
        stack[at:at + len(n), :width] = block
        at += len(n)
    # The NaN padding cannot encode a NaN sample: every sample in a
    # row's length must count as finite.
    if np.count_nonzero(np.isfinite(stack)) != sum(sizes):
        raise ParameterError("series or scores contain NaN or infinite values")
    _advance(scans)
    gated = _confirmed_directions((stack, lengths), candidates, policy)
    confirmed = gated[0] != 0
    if not confirmed.any():
        return decided, [], []      # nothing confirms: most passes
    counts = [c.size for c in candidates]
    owners = np.repeat(np.arange(len(candidates)), counts)[confirmed]
    scored = np.flatnonzero(np.bincount(owners))   # where one confirms
    kernel_lengths = lengths[scored]
    kernel_stack = stack[scored, :int(kernel_lengths.max())]
    kernel_stack[np.isnan(kernel_stack)] = 0.0     # zero-padded, as ever
    where = np.zeros(kernel_stack.shape, dtype=bool)
    where[np.searchsorted(scored, owners),
          np.concatenate(candidates)[confirmed]] = True
    chains, scores = _score_and_scan(
        where, lambda mask: scorer.scores_batch(kernel_stack, kernel_lengths,
                                                where=mask),
        policy, first.horizon)
    if not any(chains):             # nothing armed: most kernel passes
        return decided, [where], []
    flat = [(index, detector, row) for index, detector, rows, _, _ in tabled
            for row in rows.tolist()]
    offsets = np.cumsum(counts) - counts
    declaring = [(i, chain, int(offsets[i] - candidates[i][0]), row_scores,
                  int(flat[i][1].change_index[flat[i][2]]))
                 for i, chain, row_scores in zip(scored.tolist(), chains,
                                                 scores) if chain]
    declared = []
    for (i, *_), (kept, walked) in zip(declaring, _declared_changes(
            (stack, lengths), declaring, gated, policy, first.lookahead,
            True)):
        index, detector, row = flat[i]
        detector.apply_scores(row, walked, kept[0] if kept else None)
        if kept:
            declared.append((index, row, kept[0]))
    return decided, [where], declared
