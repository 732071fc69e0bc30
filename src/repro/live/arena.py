"""Shared detector state blocks: the fleet-tensor side of the live path.

At fleet scale a tick advances hundreds of
:class:`~repro.live.detector.IncrementalDetector` instances by the same
bin.  When each detector owns private ``values``/``norm``/``scores``
arrays, the per-tick append and normalisation cross one Python frame
*per detector*.

:class:`DetectorArena` removes that cost: it owns one shared
``(n_rows, capacity)`` float64 block per plane (values, norm, scores)
and hands each detector a *row*.  The detector's array attributes become
row views, so all of its arithmetic is unchanged — same floats, same
operations, different backing storage — while the fused tick path can
scatter-write one tick's samples for every tracker in a single fancy
assignment (:meth:`extend_batch`), and normalise them with one
broadcast ``(x - med[:, None]) / denom[:, None]`` that is elementwise
the scalar transform each detector would have applied.

Rows are recycled: :meth:`release` returns a row to the free list and a
detector leaving a shared arena first *detaches* (copies its prefix into
a private single-row arena) so its state stays readable after the
session closes.  Score rows are zeroed on acquisition — the detectors'
invariant is that ``scores[:n]`` is zero wherever no score was computed.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["DetectorArena"]

#: Initial column capacity, in bins (matches the old per-detector floor).
_MIN_CAPACITY = 128

#: Initial row count of a shared arena.
_MIN_ROWS = 8


class DetectorArena:
    """One shared ``(rows, capacity)`` float64 block per detector plane."""

    def __init__(self, capacity: int = _MIN_CAPACITY,
                 rows: int = 1) -> None:
        capacity = max(1, int(capacity))
        rows = max(1, int(rows))
        self.values = np.empty((rows, capacity), dtype=np.float64)
        self.norm = np.empty((rows, capacity), dtype=np.float64)
        self.scores = np.zeros((rows, capacity), dtype=np.float64)
        self._free: List[int] = list(range(rows - 1, -1, -1))
        self._in_use = 0

    # -- geometry --------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Columns available per row."""
        return self.values.shape[1]

    @property
    def rows(self) -> int:
        """Rows allocated (in use + free)."""
        return self.values.shape[0]

    @property
    def active_rows(self) -> int:
        """Rows currently owned by a detector."""
        return self._in_use

    # -- row lifecycle ---------------------------------------------------------

    def acquire(self) -> int:
        """Claim a row; its scores plane is zeroed, the rest is garbage."""
        if not self._free:
            self._grow_rows(max(2 * self.rows, _MIN_ROWS))
        row = self._free.pop()
        self.scores[row, :] = 0.0
        self._in_use += 1
        return row

    def release(self, row: int) -> None:
        """Return ``row`` to the free list for reuse."""
        self._free.append(row)
        self._in_use -= 1

    def _grow_rows(self, rows: int) -> None:
        old = self.rows
        for name in ("values", "norm", "scores"):
            block = getattr(self, name)
            grown = (np.zeros if name == "scores" else np.empty)(
                (rows, self.capacity), dtype=np.float64)
            grown[:old] = block
            setattr(self, name, grown)
        self._free.extend(range(rows - 1, old - 1, -1))

    def ensure_capacity(self, needed: int) -> None:
        """Grow every plane to at least ``needed`` columns (geometric).

        New score columns are zero-filled, preserving the detectors'
        zeros-where-unscored invariant, exactly as the old per-detector
        ``_grow`` did.
        """
        if needed <= self.capacity:
            return
        capacity = max(2 * self.capacity, needed)
        for name in ("values", "norm", "scores"):
            block = getattr(self, name)
            grown = (np.zeros if name == "scores" else np.empty)(
                (self.rows, capacity), dtype=np.float64)
            grown[:, :block.shape[1]] = block
            setattr(self, name, grown)

    # -- fused tick operations -------------------------------------------------

    def extend_batch(self, items: Sequence[Tuple[object, np.ndarray]]) -> int:
        """Append one tick's samples to many detectors at once.

        ``items`` is ``[(detector, values), ...]`` in delivery order.
        Detectors that live in this arena with their robust statistics
        already fixed take the tensor path: one fancy scatter-write into
        the values plane per distinct chunk width, then one broadcast
        normalise — ``(x - med[:, None]) / (denom[:, None])`` computes
        elementwise exactly the scalar ``(x - med) / denom`` each
        detector applies, so the norm plane is bitwise what sequential
        :meth:`~repro.live.detector.IncrementalDetector.extend` calls
        would have written.  Everything else (foreign arena, statistics
        still warming up across the baseline boundary) falls back to the
        detector's own ``extend``.

        Returns the number of rows that took the tensor path.
        """
        groups: dict = {}
        for detector, values in items:
            values = np.asarray(values, dtype=np.float64).ravel()
            if values.size == 0:
                continue
            if detector.arena is not self or detector._stats is None:
                detector.extend(values)
                continue
            groups.setdefault(values.size, []).append((detector, values))
        scattered = 0
        for width, members in groups.items():
            rows = np.array([d._row for d, _ in members], dtype=np.intp)
            lengths = np.array([d._n for d, _ in members], dtype=np.intp)
            self.ensure_capacity(int(lengths.max()) + width)
            matrix = np.stack([values for _, values in members])
            cols = lengths[:, None] + np.arange(width, dtype=np.intp)[None, :]
            self.values[rows[:, None], cols] = matrix
            meds = np.array([d._stats[0] for d, _ in members],
                            dtype=np.float64)
            denoms = np.array([d._denominator for d, _ in members],
                              dtype=np.float64)
            self.norm[rows[:, None], cols] = (
                (matrix - meds[:, None]) / denoms[:, None])
            for detector, _ in members:
                detector._n += width
            scattered += len(members)
        return scattered
