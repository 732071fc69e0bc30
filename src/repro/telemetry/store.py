"""The centralised metric store and its subscription tool.

Paper section 2.2: agents deliver KPI measurements to "a centralized
Hadoop-based database, which also stores the service KPIs aggregated
based on the KPIs of the instances.  The database also provides a
subscription tool for other systems, such as FUNNEL, to periodically
receive the subscribed measurements."

:class:`MetricStore` is the in-memory stand-in.  Storage is **one
table**: a ``(rows, capacity)`` float64 array with one row per
:class:`~repro.telemetry.kpi.KpiKey`, a ``key -> row`` index and per-row
``start`` / ``length`` (rows may start at different times and sit at
different lengths).  Both dimensions over-allocate geometrically, so a
KPI receiving one bin per minute for a day costs one reallocation every
doubling instead of a full-history copy per push, and reads slice (or,
for :meth:`MetricStore.window_matrix`, gather) the rows directly.

There are two write calls and they share every check:

* :meth:`MetricStore.append` takes one key's
  :class:`~repro.telemetry.timeseries.TimeSeries` fragment (agents, the
  simulation, the fault injector's release path);
* :meth:`MetricStore.append_batch` takes a whole tick as one
  ``(len(keys), bins)`` block.  The block is validated **whole** before
  any row is written (a rejected call changes nothing), written with one
  scatter, and only then delivered: ingest-all-then-deliver.

The subscription tool pushes appended data to subscribers (FUNNEL's
online pipeline registers one subscription per impact set).  On the
block path a ``TimeSeries`` fragment is built only for the keys some
active subscription matched — the store pushes the subscribed
measurements, it does not materialise the rest — and each subscription
resolves its matching positions once per key tuple, not per tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ParameterError, TelemetryError
from .kpi import KpiKey
from .timeseries import MINUTE, TimeSeries

__all__ = ["MetricStore", "Subscription"]

Callback = Callable[[KpiKey, TimeSeries], None]
BatchCallback = Callable[[List], None]

#: Smallest table allocation: rows (keys) x capacity (bins).
_MIN_ROWS = 16
_MIN_CAPACITY = 64


@dataclass(eq=False)
class Subscription:
    """A standing request for pushes of appended measurements.

    Identity semantics (``eq=False``): two subscriptions with the same
    keys and callback are still distinct registrations, so cancelling
    one can never prune the other from the store's push list.

    ``batch_callback``, when set, receives one call with the matched
    ``[(key, fragment), ...]`` sublist of a batched append instead of
    one ``callback`` call per fragment — how a tick's block reaches a
    live session's queues.  Per-fragment appends always use ``callback``.
    """

    keys: frozenset
    callback: Callback
    active: bool = True
    batch_callback: Optional[BatchCallback] = None
    _store: Optional["MetricStore"] = field(default=None, repr=False,
                                            compare=False)
    #: the last block key tuple seen and this subscription's matching
    #: positions in it — a replay streams the same tuple every tick.
    _block_keys: Optional[tuple] = field(default=None, repr=False,
                                         compare=False)
    _block_positions: Tuple[int, ...] = field(default=(), repr=False,
                                              compare=False)

    def cancel(self) -> None:
        """Deactivate and unregister: a cancelled subscription costs the
        store nothing — it is pruned from the push list immediately, not
        merely skipped on every future append."""
        self.active = False
        if self._store is not None:
            self._store._drop(self)
            self._store = None

    def positions_in(self, keys: tuple) -> Tuple[int, ...]:
        """Indices of ``keys`` this subscription watches, in order."""
        if keys is not self._block_keys:
            self._block_positions = tuple(
                i for i, key in enumerate(keys) if key in self.keys)
            self._block_keys = keys
        return self._block_positions


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
        #: the last block key tuple and its row indices.
        self._block_keys: Optional[tuple] = None
        self._block_rows = np.zeros(0, dtype=np.int64)
        self._subscriptions: List[Subscription] = []
        #: lifetime ingest totals (health telemetry reads the deltas)
        self.appended_fragments = 0
        self.appended_bins = 0

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
        self.appended_bins += len(fragment)
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

        Storage-wise this is :meth:`append` per row — same contiguity
        rule, same finiteness rule as a ``TimeSeries``, same counters
        (one fragment per key) — except that the block is checked
        **whole** first: a rejected call leaves the series, the counters
        and every subscriber untouched.  A key may appear only once.

        The push fan-out follows once every row is durable: each
        subscription is visited **once** with its matched
        ``[(key, fragment), ...]`` sublist in key order, whole for a
        ``batch_callback``, item by item through ``callback`` otherwise.
        Fragments are built for matched keys only.  Pass the same tuple
        object every tick and the key -> row and key -> subscriber
        resolutions are done once, not per tick.
        """
        keys, rows = self._resolve(keys)
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != len(keys):
            raise ParameterError(
                "block must be (%d keys, bins), got shape %s"
                % (len(keys), block.shape))
        if not np.isfinite(block).all():
            raise ParameterError("block contains NaN or infinite values")
        known = np.flatnonzero(rows >= 0)
        ends = self._start[rows[known]] \
            + self._length[rows[known]] * self.bin_seconds
        gaps = np.flatnonzero(ends != start_time)
        if gaps.size:
            raise TelemetryError(
                "fragment for %s starts at %d, expected %d"
                % (keys[known[gaps[0]]], start_time, ends[gaps[0]]))
        if not keys:
            return

        if known.size < len(keys):
            for i in np.flatnonzero(rows < 0):
                rows[i] = self._add_row(keys[i], start_time)
        self._block_keys, self._block_rows = keys, rows
        bins = block.shape[1]
        lengths = self._length[rows]
        self._reserve(len(self._rows), int(lengths.max()) + bins)
        # One scatter, whether or not the rows sit at the same length.
        self._table[rows[:, None], lengths[:, None] + np.arange(bins)] = block
        self._length[rows] = lengths + bins
        self.appended_fragments += len(keys)
        self.appended_bins += len(keys) * bins
        self._views.clear()

        fragments: Dict[int, TimeSeries] = {}
        for sub in tuple(self._subscriptions):
            if not sub.active:
                continue
            matched = []
            for i in sub.positions_in(keys):
                fragment = fragments.get(i)
                if fragment is None:
                    fragment = fragments[i] = TimeSeries(
                        start_time, self.bin_seconds, block[i])
                matched.append((keys[i], fragment))
            if not matched:
                continue
            if sub.batch_callback is not None:
                sub.batch_callback(matched)
            else:
                for key, fragment in matched:
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
            raise TelemetryError("no measurements stored for %s" % key)
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
        """Register ``callback`` for every future append to ``keys``.

        ``batch_callback`` opts the subscription into whole-sublist
        delivery on :meth:`append_batch` (per-fragment appends still go
        through ``callback``).
        """
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
