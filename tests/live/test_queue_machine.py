"""The ingest queue against its per-KPI reference, step by step.

``queue_oracle.IngestQueues`` is the queue before the block lane: one
deque per KPI, every block offered as its ``(key, fragment)`` pairs.  A
hypothesis state machine drives it and :class:`repro.live.queues.
IngestQueues` with the same steps — blocks over a fixed key tuple and
over changed key sets, single-key offers, budgeted drains, discards —
with drop-oldest shedding and capacities 1-4, and after every step
requires the same drained ``(key, start, values)`` sequence, depth,
peak depth, shed count, counters and checkpoint record.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)
import numpy as np

from repro.live.queues import (FRAGMENTS_METRIC, SHED_FRAGMENTS_METRIC,
                               IngestQueues)
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.kpi import KpiKey
from repro.telemetry.store import Block
from repro.telemetry.timeseries import MINUTE, TimeSeries

from . import queue_oracle

#: not in string order, so a block's rows and its rotation differ
KEYS = tuple(KpiKey("server", "s%d" % i, "cpu") for i in (3, 0, 4, 1, 2))
FIXED = KEYS[:4]


def _drained(items):
    return [(key, f.start, f.values.tolist()) for key, f in items]


def _reference_snapshot(queues):
    """The ``queues`` record the checkpoint wrote from the per-KPI queue."""
    last = queues._last_served
    return {"shed": queues.shed,
            "last_served": None if last is None else list(last),
            "fragments": [[list(key), f.start, f.values.tolist()]
                          for key, queue in queues._queues.items()
                          for f in queue]}


class QueueMachine(RuleBasedStateMachine):
    @initialize(capacity=st.integers(1, 4))
    def build(self, capacity):
        self.metrics = (MetricsRegistry(), MetricsRegistry())
        self.queues = IngestQueues(capacity, self.metrics[0])
        self.oracle = queue_oracle.IngestQueues(
            capacity, queue_oracle.DROP_OLDEST, self.metrics[1])
        self.tick = 0
        self.value = 0.0
        self.closed = False

    def _rows(self, n, bins):
        rows = self.value + np.arange(n * bins, dtype=np.float64)
        self.value += n * bins
        return rows.reshape(n, bins)

    def _offer_block(self, keys, bins):
        start = self.tick * MINUTE
        self.tick += bins
        rows = self._rows(len(keys), bins)
        accepted = self.queues.offer_batch(Block(start, MINUTE, keys, rows))
        assert accepted == self.oracle.offer_batch(
            [(key, TimeSeries(start, MINUTE, row))
             for key, row in zip(keys, rows)])

    @precondition(lambda self: not self.closed)
    @rule(bins=st.integers(1, 2))
    def offer_fixed_block(self, bins):
        self._offer_block(FIXED, bins)

    @precondition(lambda self: not self.closed)
    @rule(picks=st.lists(st.sampled_from(KEYS), min_size=1, max_size=5,
                         unique=True), bins=st.integers(1, 2))
    def offer_other_block(self, picks, bins):
        self._offer_block(tuple(picks), bins)

    @precondition(lambda self: not self.closed)
    @rule(key=st.sampled_from(KEYS))
    def offer_one(self, key):
        fragment = TimeSeries(self.tick * MINUTE, MINUTE, self._rows(1, 1)[0])
        self.tick += 1
        assert self.queues.offer(key, fragment) == \
            self.oracle.offer(key, fragment)

    @rule(budget=st.integers(0, 7))
    def drain(self, budget):
        drained = [item for batch in self.queues.drain_batches(budget)
                   for item in _drained(batch)]
        assert drained == _drained(self.oracle.drain(budget))

    @rule()
    def discard(self):
        """Change close: the service never offers to a queue again, and
        the reference's key cache goes stale if one does (see below)."""
        assert self.queues.discard() == self.oracle.discard()
        self.closed = True

    @invariant()
    def agree(self):
        if not hasattr(self, "queues"):
            return
        queues, oracle = self.queues, self.oracle
        assert (queues.depth, queues.shed) == (oracle.depth, oracle.shed)
        for name in (FRAGMENTS_METRIC, SHED_FRAGMENTS_METRIC):
            assert self.metrics[0].counter(name).values == \
                self.metrics[1].counter(name).values
        snapshot = queues.snapshot()
        snapshot["fragments"] = [[key, start, list(values)]
                                 for key, start, values
                                 in snapshot["fragments"]]
        assert snapshot == _reference_snapshot(oracle)


QueueMachine.TestCase.settings = settings(max_examples=150,
                                          stateful_step_count=40,
                                          deadline=None)
TestQueueAgainstReference = QueueMachine.TestCase


def test_a_key_offered_after_discard_drains():
    """The reference cached its sorted keys behind a size check, so a
    discard followed by one new key kept draining the old key set and
    never served the new one; the queue keeps no such cache."""
    old, new = KEYS[:2]

    def drained_after_reuse(queues):
        queues.offer(old, TimeSeries(0, MINUTE, [1.0]))
        list(queues.drain())
        queues.discard()
        queues.offer(new, TimeSeries(MINUTE, MINUTE, [2.0]))
        return [key for key, _ in queues.drain()]

    assert drained_after_reuse(IngestQueues(4)) == [new]
    assert drained_after_reuse(queue_oracle.IngestQueues(4)) == []
