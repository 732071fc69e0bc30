"""Tests for the metric store, subscriptions, agents and aggregation."""

import numpy as np
import pytest

from repro.exceptions import TelemetryError
from repro.telemetry.agent import Agent
from repro.telemetry.aggregation import (ServiceAggregator, aggregate_series,
                                         aggregate_service_kpi)
from repro.telemetry.kpi import (KpiCatalog, KpiKey, KpiSpec,
                                 standard_server_kpis)
from repro.telemetry.store import MetricStore
from repro.telemetry.timeseries import MINUTE, TimeSeries
from repro.types import KpiCharacter


@pytest.fixture
def store():
    return MetricStore()


@pytest.fixture
def key():
    return KpiKey("server", "web-1", "memory_utilization")


class TestKpiKey:
    def test_str(self, key):
        assert str(key) == "server:web-1:memory_utilization"

    def test_invalid_entity_type(self):
        with pytest.raises(TelemetryError):
            KpiKey("rack", "r1", "m")

    def test_empty_fields(self):
        with pytest.raises(TelemetryError):
            KpiKey("server", "", "m")


class TestKpiCatalog:
    def test_standard_server_kpis(self):
        catalog = standard_server_kpis()
        assert "cpu_context_switch_count" in catalog
        spec = catalog.get("cpu_context_switch_count")
        assert spec.character is KpiCharacter.VARIABLE
        assert catalog.get("memory_utilization").character \
            is KpiCharacter.STATIONARY

    def test_register_conflict(self):
        catalog = KpiCatalog()
        catalog.register(KpiSpec("m", "server", KpiCharacter.STATIONARY))
        with pytest.raises(TelemetryError):
            catalog.register(KpiSpec("m", "server", KpiCharacter.VARIABLE))

    def test_reregister_identical_ok(self):
        catalog = KpiCatalog()
        spec = KpiSpec("m", "server", KpiCharacter.STATIONARY)
        catalog.register(spec)
        catalog.register(spec)
        assert len(catalog) == 1

    def test_by_level(self):
        catalog = standard_server_kpis()
        assert all(s.level == "server" for s in catalog.by_level("server"))

    def test_unknown_raises(self):
        with pytest.raises(TelemetryError):
            KpiCatalog().get("zzz")

    def test_invalid_spec(self):
        with pytest.raises(TelemetryError):
            KpiSpec("m", "rack", KpiCharacter.STATIONARY)
        with pytest.raises(TelemetryError):
            KpiSpec("m", "server", KpiCharacter.STATIONARY,
                    aggregation="max")


class TestMetricStore:
    def test_append_and_read(self, store, key):
        store.append(key, TimeSeries(0, 60, [1.0, 2.0]))
        store.append(key, TimeSeries(120, 60, [3.0]))
        np.testing.assert_array_equal(store.series(key).values,
                                      [1.0, 2.0, 3.0])

    def test_gap_rejected(self, store, key):
        store.append(key, TimeSeries(0, 60, [1.0]))
        with pytest.raises(TelemetryError):
            store.append(key, TimeSeries(120, 60, [2.0]))

    def test_wrong_bin_width_rejected(self, store, key):
        with pytest.raises(TelemetryError):
            store.append(key, TimeSeries(0, 30, [1.0]))

    def test_range_query(self, store, key):
        store.append(key, TimeSeries(0, 60, np.arange(10.0)))
        fragment = store.range(key, 120, 300)
        np.testing.assert_array_equal(fragment.values, [2.0, 3.0, 4.0])

    def test_unknown_key_raises(self, store, key):
        with pytest.raises(TelemetryError):
            store.series(key)
        assert store.maybe_series(key) is None

    def test_window_matrix(self, store):
        keys = [KpiKey("server", "h%d" % i, "m") for i in range(3)]
        for i, k in enumerate(keys):
            store.append(k, TimeSeries(0, 60, [float(i)] * 5))
        matrix = store.window_matrix(keys, 60, 240)
        assert matrix.shape == (3, 3)
        np.testing.assert_array_equal(matrix[2], [2.0, 2.0, 2.0])

    def test_window_matrix_incomplete_coverage_raises(self, store, key):
        store.append(key, TimeSeries(0, 60, [1.0, 2.0]))
        with pytest.raises(TelemetryError):
            store.window_matrix([key], 0, 300)

    def test_subscription_push(self, store, key):
        received = []
        store.subscribe([key], lambda k, f: received.append((k, f)))
        store.append(key, TimeSeries(0, 60, [1.0]))
        assert len(received) == 1
        assert received[0][0] == key

    def test_subscription_filters_keys(self, store, key):
        other = KpiKey("server", "web-2", "memory_utilization")
        received = []
        store.subscribe([key], lambda k, f: received.append(k))
        store.append(other, TimeSeries(0, 60, [1.0]))
        assert received == []

    def test_subscription_cancel(self, store, key):
        received = []
        sub = store.subscribe([key], lambda k, f: received.append(k))
        sub.cancel()
        store.append(key, TimeSeries(0, 60, [1.0]))
        assert received == []
        assert store.subscription_count() == 0

    def test_empty_subscription_raises(self, store):
        with pytest.raises(TelemetryError):
            store.subscribe([], lambda k, f: None)


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


class TestAgent:
    def test_collect_round(self, store):
        agent = Agent("web-1", store)
        agent.add_server_collector("memory_utilization", lambda t: 42.0)
        agent.add_instance_collector("svc.a", "page_view_count",
                                     lambda t: float(t))
        agent.collect(0)
        agent.collect(60)
        mem = store.series(KpiKey("server", "web-1", "memory_utilization"))
        pvc = store.series(KpiKey("instance", "svc.a@web-1",
                                  "page_view_count"))
        np.testing.assert_array_equal(mem.values, [42.0, 42.0])
        np.testing.assert_array_equal(pvc.values, [0.0, 60.0])

    def test_out_of_order_collection_rejected(self, store):
        agent = Agent("web-1", store)
        agent.add_server_collector("m", lambda t: 1.0)
        agent.collect(0)
        with pytest.raises(TelemetryError):
            agent.collect(0)

    def test_duplicate_collector_rejected(self, store):
        agent = Agent("web-1", store)
        agent.add_server_collector("m", lambda t: 1.0)
        with pytest.raises(TelemetryError):
            agent.add_server_collector("m", lambda t: 2.0)

    def test_nonfinite_value_rejected(self, store):
        agent = Agent("web-1", store)
        agent.add_server_collector("m", lambda t: float("nan"))
        with pytest.raises(TelemetryError):
            agent.collect(0)

    def test_collect_range(self, store):
        agent = Agent("web-1", store)
        agent.add_server_collector("m", lambda t: float(t // 60))
        agent.collect_range(0, rounds=5)
        series = store.series(KpiKey("server", "web-1", "m"))
        np.testing.assert_array_equal(series.values, [0, 1, 2, 3, 4])


class TestAggregation:
    def test_mean_and_sum(self):
        series = [TimeSeries(0, 60, [2.0, 4.0]),
                  TimeSeries(0, 60, [6.0, 8.0])]
        np.testing.assert_array_equal(
            aggregate_series(series, "mean").values, [4.0, 6.0])
        np.testing.assert_array_equal(
            aggregate_series(series, "sum").values, [8.0, 12.0])

    def test_invalid_how(self):
        with pytest.raises(TelemetryError):
            aggregate_series([TimeSeries(0, 60, [1.0])], "max")

    def test_service_kpi_uses_spec_aggregation(self, store):
        catalog = KpiCatalog()
        catalog.register(KpiSpec("page_view_count", "instance",
                                 KpiCharacter.SEASONAL, aggregation="sum"))
        for host in ("h1", "h2"):
            store.append(KpiKey("instance", "svc@%s" % host,
                                "page_view_count"),
                         TimeSeries(0, 60, [10.0, 20.0]))
        result = aggregate_service_kpi(
            store, catalog, "svc", ["svc@h1", "svc@h2"],
            "page_view_count", 0, 120)
        np.testing.assert_array_equal(result.values, [20.0, 40.0])

    def test_service_aggregator_publishes(self, store):
        catalog = KpiCatalog()
        catalog.register(KpiSpec("rd", "instance", KpiCharacter.STATIONARY,
                                 aggregation="mean"))
        for host in ("h1", "h2"):
            store.append(KpiKey("instance", "svc@%s" % host, "rd"),
                         TimeSeries(0, 60, [10.0, 30.0]))
        aggregator = ServiceAggregator(store, catalog)
        key = aggregator.publish("svc", ["svc@h1", "svc@h2"], "rd", 0, 120)
        np.testing.assert_array_equal(store.series(key).values,
                                      [10.0, 30.0])

    def test_control_group_mean(self, store):
        keys = []
        for i, host in enumerate(("h1", "h2")):
            k = KpiKey("server", host, "m")
            store.append(k, TimeSeries(0, 60, [float(i), float(i)]))
            keys.append(k)
        aggregator = ServiceAggregator(store, KpiCatalog())
        np.testing.assert_array_equal(
            aggregator.mean_of(keys, 0, 120), [0.5, 0.5])
