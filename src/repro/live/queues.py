"""Bounded per-KPI ingest queues with explicit load shedding.

The metric store pushes fragments synchronously; the live service never
processes them inline.  Each admitted change owns one
:class:`IngestQueues` bounding each subscribed KPI to ``capacity``
fragments: the subscription *offers* them — a tick's
:class:`~repro.telemetry.store.Block` through
:meth:`IngestQueues.offer_batch`, a single-key append through
:meth:`IngestQueues.offer` — and the event-time scheduler *drains* them
under its per-tick budget.  A full KPI queue sheds its oldest fragment
and a counter records every shed, so overload degrades the answers
(gaps, late emissions) instead of growing memory without bound.

While every queued block covers the same keys, blocks queue **whole**:
each key then holds one fragment per block, so all keys fill on the same
offer and shedding one block is exactly the per-KPI shedding.  Anything
irregular — a single-key offer, another key set, a budget ending inside
a block — spills the blocks onto per-KPI deques until they drain empty.
Draining is round-robin over the keys in string order, resuming after
the key served last; a whole block is one round of it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..telemetry.kpi import KpiKey
from ..telemetry.store import Block
from ..telemetry.timeseries import TimeSeries

__all__ = ["IngestQueues"]

FRAGMENTS_METRIC = "repro_live_fragments_total"
SHED_FRAGMENTS_METRIC = "repro_live_shed_fragments_total"


class IngestQueues:
    """Bounded fragment queues for one change's subscribed KPIs."""

    def __init__(self, capacity: int,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.capacity = capacity
        self.metrics = metrics or MetricsRegistry()
        #: whole blocks, oldest first, while every per-KPI deque is empty
        self._blocks: Deque[Block] = deque()
        #: ``(keys, indices in string order, strings)`` of the last tuple
        self._sorted: tuple = ((), [], [])
        #: per-KPI deques, in first-offer order (the checkpoint's).
        self._queues: Dict[KpiKey, Deque[TimeSeries]] = {}
        self._known: Optional[tuple] = None   # last block keys in _queues
        #: The key the previous drain served last.  Fairness rotation
        #: resumes *after* this key; remembering the key (not its index)
        #: keeps the rotation correct when the key set changes between
        #: drains, which would silently re-aim a stored index.
        self._last_served: Optional[KpiKey] = None
        self.depth = 0
        self.shed = 0

    # -- producer side --------------------------------------------------------

    def offer(self, key: KpiKey, fragment: TimeSeries) -> bool:
        """Enqueue ``fragment``; returns True, since an arrival is never
        the fragment shed.

        A full queue evicts the stalest queued fragment to make room (the
        arriving fragment is kept — freshness wins, at the cost of a gap
        the tracker will notice).
        """
        self.metrics.counter(
            FRAGMENTS_METRIC, help="Fragments offered to ingest queues."
        ).inc()
        self._spill()
        self._push(self._queues.setdefault(key, deque()), fragment)
        return True

    def offer_batch(self, items: Iterable[Tuple[KpiKey, TimeSeries]]) -> int:
        """Enqueue a :class:`Block` or ``(key, fragment)`` pairs under one
        counter bump; returns how many fragments were accepted (all)."""
        if not items:
            return 0
        self.metrics.counter(
            FRAGMENTS_METRIC, help="Fragments offered to ingest queues."
        ).inc(len(items))
        if type(items) is Block and (items.keys == self._blocks[0].keys
                                     if self._blocks else not self.depth):
            if items.keys is not self._known:
                for key in items.keys:
                    self._queues.setdefault(key, deque())
                self._known = items.keys
            self._push(self._blocks, items, len(items))
            return len(items)
        self._spill()
        for key, fragment in items:
            self._push(self._queues.setdefault(key, deque()), fragment)
        return len(items)

    def _push(self, queue: deque, item, n: int = 1) -> None:
        """Append ``item`` (``n`` fragments) to ``queue`` under the bound,
        shedding the oldest entry of a full one."""
        if len(queue) >= self.capacity:
            self._count_shed("drop_oldest", n)
            queue.popleft()
            self.depth -= n
        queue.append(item)
        self.depth += n

    def _spill(self) -> None:
        """Move the queued blocks onto the per-KPI deques, row by row."""
        if self._blocks:
            queues = [self._queues[key] for key in self._blocks[0].keys]
            for block in self._blocks:
                for queue, (_, fragment) in zip(queues, block):
                    queue.append(fragment)
            self._blocks.clear()

    def _count_shed(self, policy: str, n: int = 1) -> None:
        self.shed += n
        self.metrics.counter(
            SHED_FRAGMENTS_METRIC,
            help="Fragments shed by queue bounds or change close.",
        ).inc(n, policy=policy)

    # -- consumer side --------------------------------------------------------

    def _rotation(self, keys: tuple) -> List[int]:
        """Indices of ``keys`` in drain order: by string, resuming after
        the last-served key, wherever it sorts (sorted once per tuple)."""
        if self._sorted[0] is not keys:
            by_str = sorted(range(len(keys)), key=lambda i: str(keys[i]))
            self._sorted = (keys, by_str, [str(keys[i]) for i in by_str])
        _, by_str, strs = self._sorted
        last = self._last_served
        start = (bisect_right(strs, str(last)) % len(strs)
                 if last is not None and strs else 0)
        return by_str[start:] + by_str[:start]

    def drain_batches(self, budget: int = 0) -> Iterator[Iterable]:
        """Pop batches of at most ``budget`` fragments in all (0 = all
        queued): whole blocks, in rotation order, while the budget covers
        them, then :meth:`drain`'s ``(key, fragment)`` pairs as one list."""
        remaining = budget if budget > 0 else self.depth
        while self._blocks and len(self._blocks[0]) <= remaining:
            block = self._blocks.popleft()
            self.depth -= len(block)
            remaining -= len(block)
            block.order = self._rotation(block.keys)
            self._last_served = block.keys[block.order[-1]]
            yield block
        if remaining > 0 and self.depth > 0:
            yield list(self.drain(remaining))

    def drain(self, budget: int = 0
              ) -> Iterator[Tuple[KpiKey, TimeSeries]]:
        """Pop fragments round-robin across keys, oldest first.

        Yields at most ``budget`` fragments (0 = everything queued when
        the drain started).  Round-robin keeps one noisy KPI from
        starving the rest under a tight budget, and successive budgeted
        drains resume after the last key served — without that rotation
        a budget below the key count would starve the tail of the sorted
        key order forever.  Order is deterministic for a given history.
        """
        self._spill()
        remaining = budget if budget > 0 else self.depth
        keys = tuple(self._queues)
        order = [keys[i] for i in self._rotation(keys)]
        while remaining > 0 and self.depth > 0:
            progressed = False
            for key in order:
                queue = self._queues.get(key)
                if not queue:
                    continue
                self._last_served = key
                yield key, queue.popleft()
                self.depth -= 1
                progressed = True
                remaining -= 1
                if remaining <= 0:
                    break
            if not progressed:
                break

    def discard(self) -> int:
        """Drop everything still queued (change close); returns count."""
        dropped = self.depth
        if dropped:
            self._count_shed("close", dropped)
        self._blocks.clear()
        self._queues.clear()
        self._known = None
        self.depth = 0
        return dropped

    # -- checkpoint ------------------------------------------------------------

    def snapshot(self) -> dict:
        """The checkpoint's ``queues`` record: shed count, cursor key and
        every queued ``[key, start, values]`` as per-KPI deques list it."""
        row = ({key: i for i, key in enumerate(self._blocks[0].keys)}
               if self._blocks else {})
        last = self._last_served
        return {"shed": self.shed,
                "last_served": None if last is None else list(last),
                "fragments": [[list(key), fragment.start, fragment.values]
                              for key, queue in self._queues.items()
                              for fragment in queue]
                + [[list(key), block.start, block.rows[row[key]]]
                   for key in self._queues if key in row
                   for block in self._blocks]}

    def restore(self, shed: int, last_served: Optional[KpiKey],
                fragments: Iterable[Tuple[KpiKey, TimeSeries]]) -> None:
        """Refill from a checkpoint's queued fragments (per-KPI deques)."""
        for key, fragment in fragments:
            self._queues.setdefault(key, deque()).append(fragment)
            self.depth += 1
        self.shed = shed
        self._last_served = last_served
