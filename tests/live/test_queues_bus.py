"""Bounded queues, the verdict bus, and the live configuration."""

import json

import pytest

from repro.exceptions import ParameterError
from repro.live.bus import JsonlVerdictSink, LiveVerdict, VerdictBus
from repro.live.config import LiveConfig
from repro.live.queues import (FRAGMENTS_METRIC, SHED_FRAGMENTS_METRIC,
                               IngestQueues)
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.kpi import KpiKey
from repro.telemetry.timeseries import TimeSeries


def frag(start, *values):
    return TimeSeries(start, 60, list(values))


def cpu_key(name):
    return KpiKey("server", name, "cpu")


@pytest.fixture
def key():
    return KpiKey("server", "web-1", "memory_utilization")


@pytest.fixture
def key2():
    return KpiKey("server", "web-2", "memory_utilization")


class TestIngestQueues:
    def test_offer_and_drain_fifo(self, key):
        queues = IngestQueues(capacity=4)
        for i in range(3):
            assert queues.offer(key, frag(i * 60, float(i)))
        drained = list(queues.drain())
        assert [f.start for _, f in drained] == [0, 60, 120]
        assert queues.depth == 0

    def test_drop_oldest_evicts_stalest(self, key):
        queues = IngestQueues(capacity=2)
        for i in range(4):
            queues.offer(key, frag(i * 60, float(i)))
        starts = [f.start for _, f in queues.drain()]
        assert starts == [120, 180]        # freshest survive
        assert queues.shed == 2

    def test_budget_limits_a_drain(self, key, key2):
        queues = IngestQueues(capacity=8)
        for i in range(3):
            queues.offer(key, frag(i * 60, 1.0))
            queues.offer(key2, frag(i * 60, 2.0))
        first = list(queues.drain(budget=4))
        assert len(first) == 4
        assert queues.depth == 2
        rest = list(queues.drain())
        assert len(rest) == 2

    def test_budgeted_drain_rotates_across_keys(self, key, key2):
        # With budget 1 per drain, successive drains must alternate
        # keys instead of starving the later one in sort order.
        queues = IngestQueues(capacity=8)
        for i in range(2):
            queues.offer(key, frag(i * 60, 1.0))
            queues.offer(key2, frag(i * 60, 2.0))
        served = [k for drain in range(4)
                  for k, _ in queues.drain(budget=1)]
        assert set(served) == {key, key2}

    def test_rotation_survives_keyset_changes(self):
        # Regression: the rotation cursor used to be a stored *index*
        # into the sorted key list, so a key arriving earlier in sort
        # order silently re-aimed it.  Remembering the last-served *key*
        # keeps successive budgeted drains fair through churn.
        a = KpiKey("server", "a-1", "memory_utilization")
        b = KpiKey("server", "b-1", "memory_utilization")
        c = KpiKey("server", "c-1", "memory_utilization")
        queues = IngestQueues(capacity=8)
        for i in range(2):
            queues.offer(b, frag(i * 60, 1.0))
            queues.offer(c, frag(i * 60, 1.0))
        assert [k for k, _ in queues.drain(budget=1)] == [b]
        queues.offer(a, frag(0, 1.0))    # new key ahead of b in order
        assert [k for k, _ in queues.drain(budget=1)] == [c]
        assert [k for k, _ in queues.drain(budget=1)] == [a]

    def test_rotation_survives_a_vanished_cursor_key(self, key, key2):
        queues = IngestQueues(capacity=8)
        queues.offer(key, frag(0, 1.0))
        queues.offer(key2, frag(0, 2.0))
        assert [k for k, _ in queues.drain(budget=1)] == [key]
        # the cursor key's queue is now empty; the next drain must not
        # serve it again while key2 still waits
        assert [k for k, _ in queues.drain(budget=1)] == [key2]

    def test_discard_counts_shed(self, key):
        metrics = MetricsRegistry()
        queues = IngestQueues(capacity=8, metrics=metrics)
        for i in range(3):
            queues.offer(key, frag(i * 60, 1.0))
        assert queues.discard() == 3
        assert queues.depth == 0
        counter = metrics.counter(SHED_FRAGMENTS_METRIC)
        assert counter.value(policy="close") == 3

    def test_fragment_counter(self, key):
        metrics = MetricsRegistry()
        queues = IngestQueues(capacity=8, metrics=metrics)
        queues.offer(key, frag(0, 1.0))
        queues.offer(key, frag(60, 1.0))
        assert metrics.counter(FRAGMENTS_METRIC).total() == 2

    def test_offer_batch_counts_once_and_sheds_like_offer(self, key):
        metrics = MetricsRegistry()
        queues = IngestQueues(2, metrics=metrics)
        accepted = queues.offer_batch(
            [(key, frag(i * 60, 1.0)) for i in range(4)])
        # drop_oldest keeps accepting (evicting the stalest), so all 4
        # offers are accepted and 2 fragments were shed.
        assert accepted == 4
        assert queues.depth == 2
        assert queues.shed == 2
        assert metrics.counter(FRAGMENTS_METRIC).total() == 4

    def test_budgeted_fairness_survives_churn(self):
        """Round-robin under budget stays fair while keys churn: the
        rotation resumes after the last-served key even when the key
        set grew since the previous drain."""
        queues = IngestQueues(8)
        for name in ("s1", "s3"):
            for i in range(2):
                queues.offer(cpu_key(name), frag(i * 60, 1.0))
        first = [str(k) for k, _ in queues.drain(budget=2)]
        assert first == ["server:s1:cpu", "server:s3:cpu"]
        # A new key lands between drains, sorted between the existing
        # two; the cursor (after s3) wraps to the front of the order.
        for i in range(2):
            queues.offer(cpu_key("s2"), frag(i * 60, 1.0))
        second = [str(k) for k, _ in queues.drain(budget=3)]
        assert second == ["server:s1:cpu", "server:s2:cpu",
                          "server:s3:cpu"]


def verdict(change="chg-1", entity="web-1", verdict_value="no_change",
            reason="deadline"):
    return LiveVerdict(change_id=change, entity_type="server",
                       entity=entity, metric="memory_utilization",
                       verdict=verdict_value, reason=reason,
                       emitted_at=600)


class TestVerdictBus:
    def test_publish_and_fanout(self):
        bus = VerdictBus()
        seen = []
        bus.subscribe(seen.append)
        assert bus.publish(verdict())
        assert len(bus) == 1
        assert seen[0].change_id == "chg-1"

    def test_at_most_once_per_key(self):
        bus = VerdictBus()
        assert bus.publish(verdict())
        assert not bus.publish(verdict(verdict_value="caused_by_change"))
        assert len(bus) == 1
        assert bus.verdicts[0].verdict == "no_change"

    def test_failing_subscriber_cannot_cause_redelivery(self):
        bus = VerdictBus()
        bus.subscribe(lambda v: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(RuntimeError):
            bus.publish(verdict())
        # The key was marked seen before delivery: retrying is a no-op.
        assert not bus.publish(verdict())
        assert len(bus) == 1

    def test_distinct_entities_both_delivered(self):
        bus = VerdictBus()
        assert bus.publish(verdict(entity="web-1"))
        assert bus.publish(verdict(entity="web-2"))
        assert len(bus) == 2


class TestJsonlVerdictSink:
    def test_writes_one_line_per_verdict(self, tmp_path):
        path = tmp_path / "verdicts.jsonl"
        with JsonlVerdictSink(str(path)) as sink:
            bus = VerdictBus()
            bus.subscribe(sink)
            bus.publish(verdict(entity="web-1"))
            bus.publish(verdict(entity="web-2"))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        doc = json.loads(lines[0])
        assert doc["entity"] == "web-1"
        assert doc["reason"] == "deadline"

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlVerdictSink(str(tmp_path / "v.jsonl"))
        sink.close()
        sink.close()
        sink(verdict())  # after close: silently ignored
        assert sink.written == 0


class TestLiveConfig:
    def test_defaults_valid(self):
        config = LiveConfig()
        assert config.assessment_window_seconds == 3600

    @pytest.mark.parametrize("kwargs", [
        {"assessment_window_seconds": 0},
        {"baseline_bins": 0},
        {"queue_capacity": 0},
        {"max_fragments_per_tick": -1},
        {"max_active_changes": -1},
        {"max_control_units": 0},
        {"history_days": -1},
        {"score_chunk_bins": 0},
        {"close_grace_seconds": -1},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            LiveConfig(**kwargs)
