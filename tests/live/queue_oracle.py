"""Reference for :class:`repro.live.queues.IngestQueues`: the per-KPI
queue as it stood before the block lane, kept verbatim (imports aside)
so ``test_queue_machine.py`` can hold the block lane to its shedding,
budget and rotation semantics.  Its docstrings describe that version.
It keeps its own policy names: the queue under test always sheds the
oldest fragment, so ``test_queue_machine.py`` samples ``DROP_OLDEST``.

Bounded per-KPI ingest queues with explicit load shedding.

The metric store pushes fragments synchronously; the live service never
processes them inline.  Each admitted change owns one
:class:`IngestQueues` holding a bounded deque per subscribed KPI: the
subscription *offers* fragments here — a tick's block append as one
:meth:`IngestQueues.offer_batch`, a single-key append through
:meth:`IngestQueues.offer` — and the event-time scheduler *drains* them
under its per-tick budget.  When a queue is
full the configured policy sheds a fragment — stale first by default —
and a counter records every shed, so overload degrades the answers
(gaps, late emissions) instead of growing memory without bound.

Draining is round-robin over the sorted key order.  The sort (and the
string projection the rotation cursor bisects) is cached and only
recomputed when the key set changes — at fleet scale the same few
hundred keys are drained every tick, and re-sorting plus re-stringifying
them each drain was a measurable slice of the tick.  The rotated order
is cached as well, and rebuilt only when the key set or the last-served
key changes.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.live.queues import FRAGMENTS_METRIC, SHED_FRAGMENTS_METRIC
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.kpi import KpiKey
from repro.telemetry.timeseries import TimeSeries

__all__ = ["IngestQueues", "DROP_OLDEST", "DROP_NEWEST"]

#: Load-shedding policies for a full per-KPI ingest queue.
DROP_OLDEST = "drop_oldest"
DROP_NEWEST = "drop_newest"


class IngestQueues:
    """Bounded fragment queues for one change's subscribed KPIs."""

    def __init__(self, capacity: int, policy: str = DROP_OLDEST,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.capacity = capacity
        self.policy = policy
        self.metrics = metrics or MetricsRegistry()
        self._queues: Dict[KpiKey, Deque[TimeSeries]] = {}
        #: The key the previous drain served last.  Fairness rotation
        #: resumes *after* this key; remembering the key (not its index)
        #: keeps the rotation correct when the key set changes between
        #: drains, which would silently re-aim a stored index.
        self._last_served: Optional[KpiKey] = None
        #: Cached ``(sorted keys, their str projections)``; rebuilt when
        #: the key count changes (keys are only ever added one at a time
        #: or cleared wholesale, so a size check detects every change).
        self._sorted_keys: List[KpiKey] = []
        self._sorted_strs: List[str] = []
        #: ``(last-served key, rotated order)`` of the previous drain.
        self._rotated: Optional[Tuple[Optional[KpiKey], List[KpiKey]]] = None
        self.depth = 0
        self.shed = 0

    # -- producer side --------------------------------------------------------

    def offer(self, key: KpiKey, fragment: TimeSeries) -> bool:
        """Enqueue ``fragment``; returns False when it was shed.

        A full queue sheds according to the policy: ``drop_oldest``
        evicts the stalest queued fragment to make room (the arriving
        fragment is kept — freshness wins, at the cost of a gap the
        tracker will notice); ``drop_newest`` sheds the arrival.
        """
        self.metrics.counter(
            FRAGMENTS_METRIC, help="Fragments offered to ingest queues."
        ).inc()
        return self._offer(key, fragment)

    def offer_batch(self, items: List[Tuple[KpiKey, TimeSeries]]) -> int:
        """Enqueue one push batch; returns how many were accepted.

        A block append reaches a subscription as one call: one counter
        bump for the whole batch, then the bound and shedding policy of
        :meth:`offer` item by item.
        """
        if items:
            self.metrics.counter(
                FRAGMENTS_METRIC, help="Fragments offered to ingest queues."
            ).inc(len(items))
        return sum(1 for key, fragment in items
                   if self._offer(key, fragment))

    def _offer(self, key: KpiKey, fragment: TimeSeries) -> bool:
        queue = self._queues.get(key)
        if queue is None:
            queue = deque()
            self._queues[key] = queue
        if len(queue) >= self.capacity:
            if self.policy == DROP_NEWEST:
                self._count_shed(self.policy)
                return False
            queue.popleft()
            self.depth -= 1
            self._count_shed(self.policy)
        queue.append(fragment)
        self.depth += 1
        return True

    def _count_shed(self, policy: str, n: int = 1) -> None:
        self.shed += n
        self.metrics.counter(
            SHED_FRAGMENTS_METRIC,
            help="Fragments shed by queue bounds or change close.",
        ).inc(n, policy=policy)

    # -- consumer side --------------------------------------------------------

    def _rotation(self) -> List[KpiKey]:
        """The sorted key order, rotated to resume after the last-served
        key (bisect also lands correctly when that key has since
        disappeared or new keys shifted the order)."""
        if len(self._sorted_keys) != len(self._queues):
            self._sorted_keys = sorted(self._queues, key=str)
            self._sorted_strs = [str(k) for k in self._sorted_keys]
            self._rotated = None
        last, keys = self._last_served, self._sorted_keys
        if self._rotated is None or self._rotated[0] is not last:
            start = (bisect_right(self._sorted_strs, str(last)) % len(keys)
                     if last is not None and keys else 0)
            self._rotated = (last, keys[start:] + keys[:start])
        return self._rotated[1]

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
        remaining = budget if budget > 0 else self.depth
        order = self._rotation()
        if not order:
            return
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
        self._queues.clear()
        self.depth = 0
        return dropped
