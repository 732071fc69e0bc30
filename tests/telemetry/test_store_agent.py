"""Tests for the metric store, subscriptions and KPI keys."""

import pickle

import numpy as np
import pytest

from repro.exceptions import TelemetryError
from repro.live.checkpoint import _key3, _unkey3
from repro.telemetry.kpi import KpiKey
from repro.telemetry.store import MetricStore
from repro.telemetry.timeseries import MINUTE, TimeSeries


@pytest.fixture
def store():
    return MetricStore()


@pytest.fixture
def key():
    return KpiKey("server", "web-1", "memory_utilization")


#: how ``key`` names itself in every error message
NAME = "server:web-1:memory_utilization"


class TestKpiKey:
    """A validated 3-tuple: every live dict and set keyed by a KPI relies
    on equal keys built apart being one entry."""

    FIELDS = ("server", "web-1", "memory_utilization")

    def test_str(self, key):
        assert str(key) == NAME

    def test_repr(self, key):
        assert repr(key) == ("KpiKey(entity_type='server', "
                             "entity='web-1', metric='memory_utilization')")

    def test_invalid_entity_type(self):
        with pytest.raises(TelemetryError):
            KpiKey("rack", "r1", "m")

    def test_empty_fields(self):
        with pytest.raises(TelemetryError):
            KpiKey("server", "", "m")
        with pytest.raises(TelemetryError):
            KpiKey("server", "r1", "")

    def test_equal_keys_are_one_entry(self, key):
        table = {key: 1}
        table[KpiKey(*self.FIELDS)] = 2
        assert table == {key: 2}
        assert len(frozenset([key, KpiKey(*self.FIELDS)])) == 1
        assert len({key, KpiKey("server", "web-2", key.metric)}) == 2

    def test_equals_and_orders_like_its_field_tuple(self, key):
        assert key == self.FIELDS and {self.FIELDS: 1}[key] == 1
        keys = [KpiKey("service", "a", "m"), KpiKey("instance", "b", "m"),
                KpiKey("server", "a", "n"), KpiKey("server", "a", "m")]
        assert [tuple(k) for k in sorted(keys)] == sorted(map(tuple, keys))

    @pytest.mark.parametrize("field", ["entity_type", "entity", "metric"])
    def test_immutable(self, key, field):
        with pytest.raises(AttributeError):
            setattr(key, field, "x")
        assert key == KpiKey(*self.FIELDS)

    def test_pickle_round_trip(self, key):
        loaded = pickle.loads(pickle.dumps(key))
        assert type(loaded) is KpiKey and loaded == key
        assert str(loaded) == NAME

    def test_checkpoint_round_trip(self, key):
        assert _key3(key) == list(self.FIELDS)
        restored = _unkey3(_key3(key))
        assert type(restored) is KpiKey and restored == key


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
        with pytest.raises(TelemetryError, match="stored for %s$" % NAME):
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
