"""The centralised metric store and its subscription tool.

Paper section 2.2: agents deliver KPI measurements to "a centralized
Hadoop-based database, which also stores the service KPIs aggregated
based on the KPIs of the instances.  The database also provides a
subscription tool for other systems, such as FUNNEL, to periodically
receive the subscribed measurements."

:class:`MetricStore` is the in-memory stand-in.  Storage is **one
table**: a ``(rows, capacity)`` float64 array with one row per
:class:`~repro.telemetry.kpi.KpiKey`, a ``key -> row`` index and per-row
``start`` / ``length``; both dimensions grow geometrically, and reads
slice (or, for :meth:`MetricStore.window_matrix`, gather) rows directly.
:meth:`MetricStore.append` writes one key's fragment and pushes it to
each subscriber; :meth:`MetricStore.append_batch` validates a whole
tick's block before writing any row, then hands each subscription
**one** :class:`Block` — the keys it matched and their rows, gathered
with one ``take``; nothing is built per key, nor for unsubscribed keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from ..exceptions import ParameterError, TelemetryError
from .kpi import KpiKey
from .timeseries import MINUTE, TimeSeries

__all__ = ["Block", "MetricStore", "Subscription"]

Callback = Callable[[KpiKey, TimeSeries], None]
BatchCallback = Callable[["Block"], None]

#: Smallest table allocation: rows (keys) x capacity (bins).
_MIN_ROWS = 16
_MIN_CAPACITY = 64


class Block:
    """One append's rows for one subscriber: ``rows[i]`` holds the bins
    of ``keys[i]`` from ``start`` on, validated whole by the store.
    ``len()`` is the row count; iterating yields ``(key, fragment)``
    pairs (unvalidated :class:`TimeSeries` rows) in ``order`` if a
    consumer set one (the ingest queue's drain rotation), else row order.
    """

    __slots__ = ("start", "bin_seconds", "keys", "rows", "order")

    def __init__(self, start: int, bin_seconds: int, keys: tuple,
                 rows: np.ndarray) -> None:
        self.start = start
        self.bin_seconds = bin_seconds
        self.keys = keys
        self.rows = rows
        self.order: Optional[Sequence[int]] = None

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def end(self) -> int:
        """One past the last covered timestamp of every row."""
        return self.start + self.rows.shape[1] * self.bin_seconds

    def __iter__(self) -> Iterator[Tuple[KpiKey, TimeSeries]]:
        of_row = TimeSeries._of_row
        for i in range(len(self.keys)) if self.order is None else self.order:
            yield self.keys[i], of_row(self.start, self.bin_seconds,
                                       self.rows[i])


@dataclass(eq=False)
class Subscription:
    """A standing request for pushes of appended measurements.

    Identity semantics (``eq=False``): cancelling one registration never
    prunes an equal one.  ``batch_callback``, when set, receives one
    :class:`Block` per batched append instead of one ``callback`` call
    per row; per-fragment appends always use ``callback``.
    """

    keys: frozenset
    callback: Callback
    active: bool = True
    batch_callback: Optional[BatchCallback] = None
    _store: Optional["MetricStore"] = field(default=None, repr=False)
    #: the last block key tuple seen and ``(matched keys, indices)``
    _block_keys: Optional[tuple] = field(default=None, repr=False)
    _matched: Tuple[tuple, np.ndarray] = field(default=((), None),
                                               repr=False)

    def cancel(self) -> None:
        """Deactivate and prune from the push list at once, so a
        cancelled subscription costs later appends nothing."""
        self.active = False
        if self._store is not None:
            self._store._drop(self)
            self._store = None

    def match(self, keys: tuple) -> Tuple[tuple, np.ndarray]:
        """The keys of ``keys`` this subscription watches, in order, and
        their indices; the same tuple object while ``keys`` repeats."""
        if keys is not self._block_keys:
            index = [i for i, key in enumerate(keys) if key in self.keys]
            self._matched = (tuple(keys[i] for i in index),
                             np.array(index, dtype=np.intp))
            self._block_keys = keys
        return self._matched


class MetricStore:
    """In-memory, append-only KPI database with push subscriptions.

    Example:
        >>> store = MetricStore()
        >>> key = KpiKey("server", "web-1", "memory_utilization")
        >>> store.append(key, TimeSeries(0, 60, [10.0, 11.0]))
        >>> store.append(key, TimeSeries(120, 60, [12.0]))
        >>> store.series(key).values.tolist()
        [10.0, 11.0, 12.0]
    """

    def __init__(self, bin_seconds: int = MINUTE) -> None:
        if bin_seconds <= 0:
            raise ParameterError("bin_seconds must be > 0, got %d" % bin_seconds)
        self.bin_seconds = bin_seconds
        #: key -> row of the table; rows are never moved or freed.
        self._rows: Dict[KpiKey, int] = {}
        #: ``_table[row, :_length[row]]`` holds the bins of the series
        #: that starts at ``_start[row]``; the rest is unwritten slack.
        self._table = np.empty((0, 0), dtype=np.float64)
        self._start = np.zeros(0, dtype=np.int64)
        self._length = np.zeros(0, dtype=np.int64)
        #: frozen copies handed out by :meth:`series`, dropped by the
        #: next append.
        self._views: Dict[KpiKey, TimeSeries] = {}
        #: the last block key tuple, its rows, and their row slice if
        #: they are one run with one start.
        self._block_keys: Optional[tuple] = None
        self._block_rows = np.zeros(0, dtype=np.int64)
        self._block_run: Optional[slice] = None
        self._subscriptions: List[Subscription] = []
        #: lifetime ingested fragments (health telemetry reads the deltas)
        self.appended_fragments = 0

    # -- writes ---------------------------------------------------------------

    def append(self, key: KpiKey, fragment: TimeSeries) -> None:
        """Append ``fragment`` to the series stored under ``key``.

        The fragment must use the store's bin width and continue the
        stored series exactly (same start for a new key, ``end`` of the
        stored data otherwise) — agents emit contiguous measurements.
        """
        if fragment.bin_seconds != self.bin_seconds:
            raise TelemetryError(
                "fragment bin width %d != store bin width %d"
                % (fragment.bin_seconds, self.bin_seconds)
            )
        row = self._rows.get(key)
        if row is None:
            row = self._add_row(key, fragment.start)
        length = int(self._length[row])
        end = int(self._start[row]) + length * self.bin_seconds
        if fragment.start != end:
            raise TelemetryError(
                "fragment for %s starts at %d, expected %d"
                % (key, fragment.start, end)
            )
        needed = length + len(fragment)
        self._reserve(len(self._rows), needed)
        self._table[row, length:needed] = fragment.values
        self._length[row] = needed
        self.appended_fragments += 1
        self._views.pop(key, None)
        # Snapshot: a callback may subscribe or cancel (mutating the
        # list) while this append is being delivered.
        for sub in tuple(self._subscriptions):
            if sub.active and key in sub.keys:
                sub.callback(key, fragment)

    def append_batch(self, keys: Sequence[KpiKey], start_time: int,
                     block: np.ndarray) -> None:
        """Append one tick: ``block[i]`` holds the bins of ``keys[i]``
        from ``start_time`` on, one store-width bin per column.

        Storage-wise this is :meth:`append` per row (same contiguity and
        finiteness rules, one fragment counted per key), but the block
        is checked **whole** first: a rejected call changes nothing.  A
        key may appear only once.  Once every row is durable, each
        subscription gets one :class:`Block` of its matched rows in key
        order — whole for a ``batch_callback``, row by row through
        ``callback``.  Pass the same tuple object every tick and the
        key -> row, layout and key -> subscriber resolutions are done once.
        """
        keys, rows = self._resolve(keys)
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != len(keys):
            raise ParameterError(
                "block must be (%d keys, bins), got shape %s"
                % (len(keys), block.shape))
        if not np.isfinite(block).all():
            raise ParameterError("block contains NaN or infinite values")
        if not keys:
            return
        bins = block.shape[1]
        run = self._block_run if keys is self._block_keys else None
        if run is not None:     # one run with one start: check row lo
            length = int(self._length[run.start])
            if (int(self._start[run.start]) + length * self.bin_seconds
                    != start_time or (self._length[run] != length).any()):
                run = None      # a row is off: the per-row check names it
        if run is not None:
            self._reserve(len(self._rows), length + bins)
            self._table[run, length:length + bins] = block
            self._length[run] += bins
        else:
            known = np.flatnonzero(rows >= 0)
            ends = self._start[rows[known]] \
                + self._length[rows[known]] * self.bin_seconds
            gaps = np.flatnonzero(ends != start_time)
            if gaps.size:
                raise TelemetryError(
                    "fragment for %s starts at %d, expected %d"
                    % (keys[known[gaps[0]]], start_time, ends[gaps[0]]))
            for i in np.flatnonzero(rows < 0):
                rows[i] = self._add_row(keys[i], start_time)
            if keys is not self._block_keys:
                lo, hi = int(rows[0]), int(rows[0]) + rows.size
                self._block_keys, self._block_rows = keys, rows
                self._block_run = slice(lo, hi) if (
                    (rows == np.arange(lo, hi)).all()
                    and (self._start[rows] == self._start[lo]).all()) else None
            lengths = self._length[rows]
            self._reserve(len(self._rows), int(lengths.max()) + bins)
            # One scatter, whether or not the rows sit at the same length.
            self._table[rows[:, None], lengths[:, None] + np.arange(bins)] \
                = block
            self._length[rows] = lengths + bins
        self.appended_fragments += len(keys)
        self._views.clear()

        for sub in tuple(self._subscriptions):
            if not sub.active:
                continue
            matched, index = sub.match(keys)
            if not matched:
                continue
            pushed = Block(start_time, self.bin_seconds, matched,
                           block.take(index, axis=0))
            if sub.batch_callback is not None:
                sub.batch_callback(pushed)
            else:
                for key, fragment in pushed:
                    sub.callback(key, fragment)

    def _resolve(self, keys: Sequence[KpiKey]) -> Tuple[tuple, np.ndarray]:
        """``keys`` as a tuple plus each key's row (-1: not stored yet)."""
        if keys is self._block_keys:
            return keys, self._block_rows
        if type(keys) is not tuple:
            keys = tuple(keys)
        if len(set(keys)) != len(keys):
            raise TelemetryError("a block may name each KPI only once")
        lookup = self._rows.get
        return keys, np.fromiter((lookup(key, -1) for key in keys),
                                 dtype=np.int64, count=len(keys))

    def _add_row(self, key: KpiKey, start: int) -> int:
        row = len(self._rows)
        self._reserve(row + 1, 0)
        self._rows[key] = row
        self._start[row] = start
        return row

    def _reserve(self, rows: int, bins: int) -> None:
        """Grow the table geometrically to hold ``rows`` x ``bins``."""
        row_cap, bin_cap = self._table.shape
        if rows <= row_cap and bins <= bin_cap:
            return
        used = len(self._rows)
        filled = int(self._length[:used].max()) if used else 0
        if rows > row_cap:
            # ``_start`` / ``_length`` are as long as the table is tall;
            # a new row's length starts at the zero padded in here.
            pad = np.zeros(max(_MIN_ROWS, 2 * row_cap, rows) - row_cap,
                           dtype=np.int64)
            self._start = np.concatenate((self._start, pad))
            self._length = np.concatenate((self._length, pad))
            row_cap += pad.size
        if bins > bin_cap:
            bin_cap = max(_MIN_CAPACITY, 2 * bin_cap, bins)
        grown = np.empty((row_cap, bin_cap), dtype=np.float64)
        grown[:used, :filled] = self._table[:used, :filled]
        self._table = grown

    # -- reads ---------------------------------------------------------------

    def __contains__(self, key: KpiKey) -> bool:
        return key in self._rows

    def keys(self) -> List[KpiKey]:
        return sorted(self._rows, key=str)

    def _row_of(self, key: KpiKey) -> int:
        row = self._rows.get(key)
        if row is None:
            raise TelemetryError("no measurements stored for %s" % (key,))
        return row

    def series(self, key: KpiKey) -> TimeSeries:
        view = self._views.get(key)
        if view is not None:
            return view
        row = self._row_of(key)
        # An owning copy: handing out a slice of the live table would let
        # any caller mutation corrupt the store (``as_float_array`` is a
        # no-op on a contiguous float64 view).  The copy is additionally
        # frozen because it is cached and shared between callers until
        # the next append.
        view = TimeSeries(
            start=int(self._start[row]), bin_seconds=self.bin_seconds,
            values=self._table[row, :int(self._length[row])].copy())
        view.values.flags.writeable = False
        self._views[key] = view
        return view

    def maybe_series(self, key: KpiKey) -> Optional[TimeSeries]:
        if key not in self._rows:
            return None
        return self.series(key)

    def _clamp(self, key: KpiKey, from_time: int,
               to_time: int) -> Tuple[int, int, int]:
        """``(row, lo, hi)``: the stored bins of ``key`` inside
        ``[from_time, to_time)``, bounds clamped to the row's extent."""
        row = self._row_of(key)
        start = int(self._start[row])
        for bound in (from_time, to_time):
            if (bound - start) % self.bin_seconds:
                raise TelemetryError(
                    "bound %d is not aligned to %d-second bins starting "
                    "at %d" % (bound, self.bin_seconds, start)
                )
        lo = max(0, (from_time - start) // self.bin_seconds)
        hi = min(int(self._length[row]),
                 (to_time - start) // self.bin_seconds)
        return row, lo, max(lo, hi)

    def range(self, key: KpiKey, from_time: int, to_time: int) -> TimeSeries:
        """Measurements of ``key`` over ``[from_time, to_time)``."""
        row, lo, hi = self._clamp(key, from_time, to_time)
        return TimeSeries(
            start=int(self._start[row]) + lo * self.bin_seconds,
            bin_seconds=self.bin_seconds,
            values=self._table[row, lo:hi].copy())

    def window_matrix(self, keys: Iterable[KpiKey], from_time: int,
                      to_time: int) -> np.ndarray:
        """Stack aligned range queries into a ``(len(keys), bins)`` matrix.

        This is the shape the DiD panels consume: one row per
        server/instance, one column per time-bin.
        """
        expected = (to_time - from_time) // self.bin_seconds
        rows, los = [], []
        for key in keys:
            row, lo, hi = self._clamp(key, from_time, to_time)
            if hi - lo != expected:
                raise TelemetryError(
                    "%s covers only %d of %d requested bins"
                    % (key, hi - lo, expected)
                )
            rows.append(row)
            los.append(lo)
        if not rows:
            raise TelemetryError("window_matrix needs at least one key")
        columns = np.asarray(los)[:, None] + np.arange(expected)
        return self._table[np.asarray(rows)[:, None], columns]

    # -- subscriptions -----------------------------------------------------------

    def subscribe(self, keys: Iterable[KpiKey], callback: Callback,
                  batch_callback: Optional[BatchCallback] = None
                  ) -> Subscription:
        """Register ``callback`` for every future append to ``keys``
        (``batch_callback``, if given, for every :meth:`append_batch`)."""
        sub = Subscription(keys=frozenset(keys), callback=callback,
                           batch_callback=batch_callback, _store=self)
        if not sub.keys:
            raise TelemetryError("subscription must name at least one KPI")
        self._subscriptions.append(sub)
        return sub

    def _drop(self, sub: Subscription) -> None:
        try:
            self._subscriptions.remove(sub)
        except ValueError:
            pass

    def subscription_count(self) -> int:
        return sum(1 for s in self._subscriptions if s.active)
