"""Fused ingest plane: batched store→queue→arena flow, byte-identical.

The fused path (``fused_ingest=True``) moves the same fragments through
the same stages as the default ingest plane, one batch per tick instead
of one Python frame per fragment.  The contract is the strongest one
the live pipeline has: the verdict *stream* — every document, in order —
must be byte-identical to the unfused path's.
"""

import numpy as np
import pytest

from repro.engine.fleet import FleetScenarioSpec, SyntheticFleetSource
from repro.live import (offline_verdict_records, parity_live_config,
                        replay_scenario)
from repro.live.assessor import FUSED_BATCHES_METRIC, FUSED_ROWS_METRIC
from repro.live.queues import IngestQueues
from repro.telemetry.kpi import KpiKey
from repro.telemetry.store import MetricStore
from repro.telemetry.timeseries import MINUTE, TimeSeries

from .oracle import sorted_documents, standalone_verdict_documents

SPEC = FleetScenarioSpec(n_services=3, n_servers=12, n_changes=4,
                         window_bins=120, change_offset=60,
                         history_days=1, seed=11)


@pytest.fixture(scope="module")
def offline_records():
    return offline_verdict_records(SyntheticFleetSource(SPEC))


class TestFusedParity:
    def test_fused_equals_offline(self, offline_records):
        config = parity_live_config(SPEC, fused_ingest=True)
        report = replay_scenario(SPEC, live_config=config)
        assert report.live_records() == offline_records

    def test_fused_verdict_stream_byte_identical_to_pooled(self):
        """Raw stream equality — order included, every field included."""
        pooled = replay_scenario(SPEC)
        fused = replay_scenario(
            SPEC, live_config=parity_live_config(SPEC, fused_ingest=True))
        assert [v.as_dict() for v in fused.verdicts] == \
            [v.as_dict() for v in pooled.verdicts]

    def test_fused_verdicts_match_per_detector(self):
        """Same documents as one standalone, immediately scoring
        detector per KPI; only intra-tick bus order is free (pooled
        emission happens after the drain)."""
        config = parity_live_config(SPEC, fused_ingest=True)
        fused = replay_scenario(SPEC, live_config=config)
        assert sorted_documents(fused.verdicts) == \
            standalone_verdict_documents(SPEC, config)

    def test_fused_composes_with_chunking_and_batching(self,
                                                       offline_records):
        config = parity_live_config(SPEC, fused_ingest=True,
                                    score_chunk_bins=7)
        report = replay_scenario(SPEC, live_config=config, flush_bins=5)
        assert report.live_records() == offline_records

    def test_fused_actually_scatters(self):
        config = parity_live_config(SPEC, fused_ingest=True)
        report = replay_scenario(SPEC, live_config=config, flush_bins=5)
        counters = report.service_report["counters"]
        assert counters.get(FUSED_BATCHES_METRIC, 0) > 0
        assert counters.get(FUSED_ROWS_METRIC, 0) > 0


class TestStoreBatchAppend:
    def _store(self):
        return MetricStore(bin_seconds=MINUTE)

    def _fragment(self, start=0, values=(1.0, 2.0)):
        return TimeSeries(start, MINUTE,
                          np.asarray(values, dtype=np.float64))

    def test_append_batch_ingests_like_sequential_appends(self):
        key_a = KpiKey("server", "a", "cpu")
        key_b = KpiKey("server", "b", "cpu")
        batched, sequential = self._store(), self._store()
        blocks = [((key_a, key_b), 0, [[1.0, 2.0], [5.0, 6.0]]),
                  ((key_a,), 2 * MINUTE, [[3.0, 4.0]])]
        for keys, start, block in blocks:
            batched.append_batch(keys, start, np.array(block))
            for key, row in zip(keys, block):
                sequential.append(key, self._fragment(start, row))
        for key in (key_a, key_b):
            assert batched.series(key).values.tolist() == \
                sequential.series(key).values.tolist()
            assert batched.series(key).start == sequential.series(key).start
        assert batched.appended_fragments == \
            sequential.appended_fragments == 3
        assert batched.appended_bins == sequential.appended_bins == 6

    def test_batch_callback_gets_matched_sublist(self):
        store = self._store()
        key_a = KpiKey("server", "a", "cpu")
        key_b = KpiKey("server", "b", "cpu")
        key_c = KpiKey("server", "c", "cpu")
        seen = []
        store.subscribe([key_a, key_b],
                        callback=lambda *a: seen.append(("item", a)),
                        batch_callback=lambda items: seen.append(
                            ("batch", list(items))))
        store.append_batch((key_a, key_c, key_b), 0,
                           np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        # One batch delivery with only the subscribed keys, in block
        # order; the per-item callback is not used when a batch
        # callback exists.
        assert len(seen) == 1
        kind, delivered = seen[0]
        assert kind == "batch"
        assert [k for k, _ in delivered] == [key_a, key_b]
        assert [f.values.tolist() for _, f in delivered] == \
            [[1.0, 2.0], [5.0, 6.0]]
        assert {(f.start, f.bin_seconds) for _, f in delivered} == \
            {(0, MINUTE)}

    def test_batch_append_without_batch_callback_falls_back(self):
        store = self._store()
        key_a = KpiKey("server", "a", "cpu")
        key_b = KpiKey("server", "b", "cpu")
        seen = []
        store.subscribe([key_a, key_b],
                        callback=lambda k, f: seen.append((k, f.start)))
        keys = (key_a, key_b)
        store.append_batch(keys, 0, np.ones((2, 2)))
        store.append_batch(keys, 2 * MINUTE, np.ones((2, 2)))
        assert seen == [(key_a, 0), (key_b, 0),
                        (key_a, 2 * MINUTE), (key_b, 2 * MINUTE)]

    def test_batch_ingest_precedes_every_push(self):
        """All rows are durable before the first push fires, so a
        subscriber reading back the store sees the whole batch."""
        store = self._store()
        key_a = KpiKey("server", "a", "cpu")
        key_b = KpiKey("server", "b", "cpu")
        lengths = []
        store.subscribe(
            [key_a], callback=None,
            batch_callback=lambda items: lengths.append(
                store.series(key_b).values.size))
        store.append_batch((key_a, key_b), 0, np.ones((2, 2)))
        assert lengths == [2]


class TestQueueBatchOps:
    def _key(self, name):
        return KpiKey("server", name, "cpu")

    def _fragment(self, start=0):
        return TimeSeries(start, MINUTE, np.array([1.0]))

    def test_drain_batch_equals_drain(self):
        a, b = IngestQueues(8), IngestQueues(8)
        for queues in (a, b):
            for name in ("s1", "s2", "s3"):
                for i in range(3):
                    queues.offer(self._key(name),
                                 self._fragment(i * MINUTE))
        assert a.drain_batch(budget=4) == list(b.drain(budget=4))
        assert a.drain_batch() == list(b.drain())
        assert a.depth == b.depth == 0

    def test_offer_batch_counts_once_and_sheds_like_offer(self):
        queues = IngestQueues(2)
        key = self._key("s1")
        accepted = queues.offer_batch(
            [(key, self._fragment(i * MINUTE)) for i in range(4)])
        # drop_oldest keeps accepting (evicting the stalest), so all 4
        # offers are accepted and 2 fragments were shed.
        assert accepted == 4
        assert queues.depth == 2
        assert queues.shed == 2

    def test_key_cache_rebuilt_on_churn(self):
        """New keys between drains must enter the rotation — the cached
        sort cannot go stale (the regression the size check guards)."""
        queues = IngestQueues(8)
        queues.offer(self._key("s1"), self._fragment())
        assert [str(k) for k, _ in queues.drain_batch()] == \
            ["server:s1:cpu"]
        cached = queues._sorted_keys
        queues.offer(self._key("s0"), self._fragment())
        drained = [str(k) for k, _ in queues.drain_batch()]
        assert drained == ["server:s0:cpu"]
        assert queues._sorted_keys is not cached

    def test_key_cache_reused_when_keyset_stable(self):
        queues = IngestQueues(8)
        for name in ("s1", "s2"):
            queues.offer(self._key(name), self._fragment())
        queues.drain_batch()
        cached = queues._sorted_keys
        for name in ("s1", "s2"):
            queues.offer(self._key(name), self._fragment(MINUTE))
        queues.drain_batch()
        assert queues._sorted_keys is cached

    def test_budgeted_fairness_survives_churn(self):
        """Round-robin under budget stays fair while keys churn: the
        rotation resumes after the last-served key even when the key
        set grew since the previous drain."""
        queues = IngestQueues(8)
        for name in ("s1", "s3"):
            for i in range(2):
                queues.offer(self._key(name), self._fragment(i * MINUTE))
        first = [str(k) for k, _ in queues.drain_batch(budget=2)]
        assert first == ["server:s1:cpu", "server:s3:cpu"]
        # A new key lands between drains, sorted between the existing
        # two; the cursor (after s3) wraps to the front of the order.
        for i in range(2):
            queues.offer(self._key("s2"), self._fragment(i * MINUTE))
        second = [str(k) for k, _ in queues.drain_batch(budget=3)]
        assert second == ["server:s1:cpu", "server:s2:cpu",
                          "server:s3:cpu"]
