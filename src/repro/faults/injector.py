"""Fault injectors wrapping the metric store and the history provider.

Faults live at the layer they would occur in production:

* **ingest faults** (delay, silence) sit between the agent and the
  store: :meth:`FaultyMetricStore.append` holds the fragment in a
  per-key pending queue and releases it when virtual time reaches the
  plan's release instant.  Queues are head-of-line: a fragment never
  overtakes an earlier one for the same key, so the durable store stays
  contiguous — exactly how a stalled agent's backlog flushes.
* **push faults** (drop, duplicate, reorder) sit between the store and
  its subscribers: the store's durable column is already correct, only
  the push delivery is corrupted.  The assessor recovers via dedup,
  overlap trimming and (with ``repair_from_store``) read-repair.
* **history faults** wrap the history provider with leading transient
  :class:`~repro.exceptions.TelemetryError` failures per
  ``(change, KPI)`` item, which the assessor's retry budget rides out.

All decisions come from the stateless :class:`~repro.faults.plan.
FaultPlan`, so a wrapped replay is reproducible from its seed alone.
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Deque, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..exceptions import ParameterError, TelemetryError
from ..obs.metrics import MetricsRegistry
from ..telemetry.kpi import KpiKey
from ..telemetry.store import MetricStore, Subscription
from ..telemetry.timeseries import TimeSeries
from .plan import DROP, DUPLICATE, REORDER, FaultPlan

__all__ = ["FAULTS_INJECTED_METRIC", "FaultyMetricStore",
           "FaultyHistoryProvider"]

FAULTS_INJECTED_METRIC = "repro_faults_injected_total"

Callback = Callable[[KpiKey, TimeSeries], None]


class _PushShim:
    """Wraps one subscriber callback with push-layer fault decisions."""

    def __init__(self, plan: FaultPlan, callback: Callback,
                 count: Callable[[str], None]) -> None:
        self.plan = plan
        self.callback = callback
        self.count = count
        #: reorder holds: at most one swapped-back fragment per key.
        self.held: Dict[KpiKey, TimeSeries] = {}
        self.subscription: Optional[Subscription] = None

    def __call__(self, key: KpiKey, fragment: TimeSeries) -> None:
        action = self.plan.push_action(str(key), fragment.start)
        if action == DROP:
            self.count(DROP)
            return
        if action == REORDER and key not in self.held:
            # Hold this push; it goes out *after* the key's next one.
            self.held[key] = fragment
            self.count(REORDER)
            return
        self.callback(key, fragment)
        if action == DUPLICATE:
            self.count(DUPLICATE)
            self.callback(key, fragment)
        swapped = self.held.pop(key, None)
        if swapped is not None:
            self.callback(key, swapped)

    def flush_held(self) -> None:
        """Deliver every swap-held fragment (pre-shutdown parity flush)."""
        if self.subscription is not None and not self.subscription.active:
            self.held.clear()
            return
        for key in sorted(self.held, key=str):
            self.callback(key, self.held[key])
        self.held.clear()


class FaultyMetricStore:
    """A :class:`~repro.telemetry.store.MetricStore` under a fault plan.

    Reads (``series``, ``range``, ``window_matrix``, …) pass straight
    through to the wrapped store — the database itself is durable.
    Writes and pushes go through the plan; call :meth:`advance` as
    virtual time moves to release matured delayed fragments, and
    :meth:`flush_all` before shutdown to deliver every straggler.
    """

    def __init__(self, inner: MetricStore, plan: FaultPlan,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.inner = inner
        self.plan = plan
        self.metrics = metrics
        #: per-key FIFO of ``(release_at, fragment)`` awaiting ingest.
        self._pending: Dict[KpiKey, Deque[Tuple[int, TimeSeries]]] = {}
        self._shims: List[_PushShim] = []

    # -- bookkeeping -----------------------------------------------------------

    @property
    def bin_seconds(self) -> int:
        return self.inner.bin_seconds

    @property
    def appended_fragments(self) -> int:
        """Durably ingested fragments (held ones count on release)."""
        return self.inner.appended_fragments

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics

    def _count(self, kind: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                FAULTS_INJECTED_METRIC,
                help="Faults injected into the live pipeline, by kind.",
            ).inc(kind=kind)

    # -- writes (ingest faults) ------------------------------------------------

    def append(self, key: KpiKey, fragment: TimeSeries) -> None:
        release = self.plan.ingest_release(str(key), fragment.start,
                                           fragment.end)
        queue = self._pending.get(key)
        if release is None and not queue:
            self.inner.append(key, fragment)
            return
        if release is None:
            # No fault of its own, but it must not overtake the held
            # head — agents flush their backlog in order.
            release = fragment.end
        else:
            self._count("hold")
        if queue is None:
            queue = self._pending[key] = deque()
        queue.append((release, fragment))

    def append_batch(self, keys: Sequence[KpiKey], start_time: int,
                     block: np.ndarray) -> None:
        """Block append, taken apart on purpose: every row is its own
        fragment with its own ingest fault and push decision, exactly
        the fault sequence per-key appends would see."""
        if len(block) != len(keys):
            raise ParameterError("block has %d rows for %d keys"
                                 % (len(block), len(keys)))
        fragments = [TimeSeries(start_time, self.bin_seconds, row)
                     for row in block]
        for key, fragment in zip(keys, fragments):
            self.append(key, fragment)

    def advance(self, now: int) -> None:
        """Release every pending fragment matured by virtual time ``now``."""
        for key in sorted(self._pending, key=str):
            queue = self._pending[key]
            while queue and queue[0][0] <= now:
                self.inner.append(key, queue.popleft()[1])
            if not queue:
                del self._pending[key]

    def flush_all(self) -> None:
        """Deliver everything still in flight (call before shutdown).

        Pending ingest queues drain into the store in arrival order,
        then each shim delivers its swap-held pushes, so a bounded fault
        plan leaves no data behind and live-vs-offline parity can hold.
        """
        for key in sorted(self._pending, key=str):
            for _, fragment in self._pending[key]:
                self.inner.append(key, fragment)
        self._pending.clear()
        for shim in self._shims:
            shim.flush_held()

    # -- reads (pass-through) --------------------------------------------------

    def __contains__(self, key: KpiKey) -> bool:
        return key in self.inner

    def keys(self) -> List[KpiKey]:
        return self.inner.keys()

    def series(self, key: KpiKey) -> TimeSeries:
        return self.inner.series(key)

    def maybe_series(self, key: KpiKey) -> Optional[TimeSeries]:
        return self.inner.maybe_series(key)

    def range(self, key: KpiKey, from_time: int, to_time: int) -> TimeSeries:
        return self.inner.range(key, from_time, to_time)

    def window_matrix(self, keys: Iterable[KpiKey], from_time: int,
                      to_time: int) -> np.ndarray:
        return self.inner.window_matrix(keys, from_time, to_time)

    def subscription_count(self) -> int:
        return self.inner.subscription_count()

    # -- subscriptions (push faults) -------------------------------------------

    def subscribe(self, keys: Iterable[KpiKey], callback: Callback,
                  batch_callback=None) -> Subscription:
        # ``batch_callback`` goes unused on purpose: push faults are
        # rolled per fragment, so pushes stay per fragment (the shim).
        shim = _PushShim(self.plan, callback, self._count)
        sub = self.inner.subscribe(keys, shim)
        shim.subscription = sub
        self._shims.append(shim)
        return sub


class FaultyHistoryProvider:
    """A history provider with injected leading transient failures.

    For each ``(change, KPI)`` item the plan prescribes how many initial
    fetch attempts raise :class:`~repro.exceptions.TelemetryError`
    before the provider heals; fewer failures than the assessor's retry
    budget means the fetch recovers and the verdict is unchanged, more
    means a ``degraded`` annotation.  Attempt counting is per-process
    state, which is safe for resume because an attribution's whole retry
    loop completes within a single scheduler tick.
    """

    def __init__(self, inner, plan: FaultPlan,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.inner = inner
        self.plan = plan
        self.metrics = metrics
        self._attempts: Dict[Tuple[str, str], int] = {}

    def __call__(self, change, entity_type: str, entity: str, metric: str):
        key_str = "%s:%s:%s" % (entity_type, entity, metric)
        failures = self.plan.history_failures(change.change_id, key_str)
        if failures:
            item = (change.change_id, key_str)
            seen = self._attempts.get(item, 0)
            if seen < failures:
                self._attempts[item] = seen + 1
                if self.metrics is not None:
                    self.metrics.counter(
                        FAULTS_INJECTED_METRIC,
                        help="Faults injected into the live pipeline, "
                             "by kind.").inc(kind="history_error")
                raise TelemetryError(
                    "injected transient history failure %d/%d for %s"
                    % (seen + 1, failures, key_str))
        if self.inner is None:
            return None
        return self.inner(change, entity_type, entity, metric)
