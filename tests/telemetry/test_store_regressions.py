"""Regression tests for the metric store's subscription and append paths.

Four historical defects are pinned here:

* cancelled subscriptions used to stay on the store's push list forever
  (merely flagged inactive), so a long-lived store serving a live
  pipeline leaked one dead entry per assessed change;
* ``append`` used to rebuild the full concatenated array per fragment —
  O(n) copying per push, quadratic over a stream — now replaced by a
  geometrically over-allocated table (bins and rows);
* ``series()`` used to hand out a live slice of the storage buffer, so
  any caller mutation silently corrupted the store for every other
  reader;
* ``Subscription`` used to be a value-compared dataclass, so cancelling
  one of two identical registrations could prune the *other* from the
  push list (``list.remove`` finds the first equal element).
"""

import numpy as np
import pytest

from repro.telemetry.kpi import KpiKey
from repro.telemetry.store import MetricStore
from repro.telemetry.timeseries import TimeSeries


@pytest.fixture
def store():
    return MetricStore()


@pytest.fixture
def key():
    return KpiKey("server", "web-1", "memory_utilization")


class TestSubscriptionLifecycle:
    def test_cancel_prunes_the_push_list(self, store, key):
        subs = [store.subscribe([key], lambda k, f: None)
                for _ in range(10)]
        for sub in subs:
            sub.cancel()
        assert store.subscription_count() == 0
        # the actual list is empty, not just marked inactive
        assert store._subscriptions == []

    def test_cancel_twice_is_safe(self, store, key):
        sub = store.subscribe([key], lambda k, f: None)
        sub.cancel()
        sub.cancel()
        assert store.subscription_count() == 0

    def test_cancelled_subscription_receives_nothing(self, store, key):
        got = []
        sub = store.subscribe([key], lambda k, f: got.append(f))
        store.append(key, TimeSeries(0, 60, [1.0]))
        sub.cancel()
        store.append(key, TimeSeries(60, 60, [2.0]))
        assert len(got) == 1

    def test_callback_may_cancel_during_push(self, store, key):
        """A subscriber cancelling (mutating the list) mid-delivery must
        not break the iteration over the remaining subscribers."""
        delivered = []
        subs = []

        def cancelling_callback(k, fragment):
            delivered.append("cancelling")
            subs[0].cancel()

        subs.append(store.subscribe([key], cancelling_callback))
        store.subscribe([key], lambda k, f: delivered.append("other"))
        store.append(key, TimeSeries(0, 60, [1.0]))
        assert delivered == ["cancelling", "other"]
        assert store.subscription_count() == 1

    def test_callback_may_subscribe_during_push(self, store, key):
        def subscribing_callback(k, fragment):
            store.subscribe([key], lambda k2, f2: None)

        store.subscribe([key], subscribing_callback)
        store.append(key, TimeSeries(0, 60, [1.0]))
        assert store.subscription_count() == 2


class TestSeriesAliasing:
    def test_series_does_not_alias_the_column_buffer(self, store, key):
        """The view owns its data: later appends and table growth in
        either dimension (more bins, more keys) leave it as it was."""
        store.append(key, TimeSeries(0, 60, [1.0, 2.0]))
        view = store.series(key)
        assert not np.shares_memory(view.values, store._table)
        assert view.values.flags.writeable is False
        table = store._table
        store.append(key, TimeSeries(120, 60, np.full(500, 3.0)))
        assert store._table.shape[1] > table.shape[1]     # bins grew
        table = store._table
        for i in range(100):
            store.append(KpiKey("server", "web-%d" % (i + 2), "m"),
                         TimeSeries(0, 60, [9.0]))
        assert store._table.shape[0] > table.shape[0]     # rows grew
        assert view.values.tolist() == [1.0, 2.0]
        assert not np.shares_memory(store.series(key).values, store._table)
        assert store.series(key).values.tolist() == [1.0, 2.0] + [3.0] * 500

    def test_series_view_is_read_only(self, store, key):
        store.append(key, TimeSeries(0, 60, [1.0, 2.0]))
        view = store.series(key)
        assert view.values.flags.writeable is False
        with pytest.raises(ValueError):
            view.values[0] = 99.0
        assert store.series(key).values.tolist() == [1.0, 2.0]

    def test_mutating_a_derived_slice_cannot_corrupt_the_store(
            self, store, key):
        store.append(key, TimeSeries(0, 60, [1.0, 2.0, 3.0]))
        sub = store.series(key).slice_time(60, 180)
        sub.values[0] = 99.0             # transforms return owning copies
        assert store.series(key).values.tolist() == [1.0, 2.0, 3.0]


class TestSubscriptionIdentity:
    def test_identical_subscriptions_are_distinct(self, store, key):
        def callback(k, fragment):
            pass

        first = store.subscribe([key], callback)
        second = store.subscribe([key], callback)
        assert first is not second
        assert first != second           # identity, not field equality

    def test_cancelling_one_twin_keeps_the_other(self, store, key):
        got = []

        def callback(k, fragment):
            got.append(fragment.start)

        first = store.subscribe([key], callback)
        second = store.subscribe([key], callback)
        first.cancel()
        store.append(key, TimeSeries(0, 60, [1.0]))
        assert got == [0]                # exactly one delivery
        assert store.subscription_count() == 1
        second.cancel()
        assert store.subscription_count() == 0


class TestAppendGrowth:
    def test_many_small_appends_preserve_values(self, store, key):
        values = np.arange(500, dtype=np.float64)
        for i, value in enumerate(values):
            store.append(key, TimeSeries(i * 60, 60, [value]))
        series = store.series(key)
        assert len(series) == 500
        assert np.array_equal(series.values, values)
        assert series.start == 0

    def test_view_is_invalidated_by_append(self, store, key):
        store.append(key, TimeSeries(0, 60, [1.0, 2.0]))
        first = store.series(key)
        store.append(key, TimeSeries(120, 60, [3.0]))
        second = store.series(key)
        assert len(first) == 2          # old view unchanged
        assert len(second) == 3

    def test_column_overallocates_geometrically(self, store, key):
        """10k single-bin appends reallocate a logarithmic number of
        times (doubling), not once per append."""
        store.append(key, TimeSeries(0, 60, np.ones(10)))
        tables = {id(store._table): store._table}
        for i in range(10_000):
            store.append(key, TimeSeries((10 + i) * 60, 60, [1.0]))
            tables[id(store._table)] = store._table   # kept alive: ids unique
        assert len(tables) <= 9                       # 64 -> 16384 bins
        assert store._table.shape[1] >= len(store.series(key)) == 10_010

    def test_rows_overallocate_geometrically(self, store):
        keys = [KpiKey("server", "h%d" % i, "m") for i in range(2_000)]
        tables = {}
        for i, k in enumerate(keys):
            store.append(k, TimeSeries(0, 60, [float(i)]))
            tables[id(store._table)] = store._table
        assert len(tables) <= 9                       # 16 -> 2048 rows
        assert store.window_matrix(keys, 0, 60)[:, 0].tolist() == \
            [float(i) for i in range(2_000)]

    def test_range_after_growth(self, store, key):
        for i in range(100):
            store.append(key, TimeSeries(i * 60, 60, [float(i)]))
        window = store.range(key, 600, 1200)
        assert window.values.tolist() == [float(i) for i in range(10, 20)]
