"""The fault injectors: ingest holds, push corruption, flaky history."""

from types import SimpleNamespace

import pytest

from repro.exceptions import TelemetryError
from repro.faults import (DELAY, DROP, DUPLICATE, FAULTS_INJECTED_METRIC,
                          HISTORY_ERROR, REORDER, SILENCE, FaultPlan,
                          FaultRule, FaultyHistoryProvider, FaultyMetricStore)
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.kpi import KpiKey
from repro.telemetry.store import MetricStore
from repro.telemetry.timeseries import TimeSeries

KEY = KpiKey("server", "web-1", "memory_utilization")


def frag(start, *values):
    return TimeSeries(start, 60, list(values))


def faulty(*rules, metrics=None):
    return FaultyMetricStore(MetricStore(), FaultPlan(rules=tuple(rules)),
                             metrics=metrics)


class TestIngestFaults:
    def test_delay_holds_until_virtual_time_matures(self):
        store = faulty(FaultRule(DELAY, delay_bins=2))
        store.append(KEY, frag(0, 1.0))
        assert KEY not in store
        assert store.appended_fragments == 0
        store.advance(120)
        assert KEY not in store          # releases at 60 + 2*60 = 180
        store.advance(180)
        assert store.series(KEY).values.tolist() == [1.0]
        store.advance(10 ** 6)           # released once, nothing left held
        assert store.appended_fragments == 1

    def test_unfaulted_fragment_cannot_overtake_held_head(self):
        # Only the first fragment (end == 60) is delayed; the second has
        # no fault of its own but must queue behind the held head so the
        # durable store stays contiguous.
        store = faulty(FaultRule(DELAY, delay_bins=2, window=(60, 61)))
        store.append(KEY, frag(0, 1.0))
        store.append(KEY, frag(60, 2.0))
        store.advance(120)
        assert KEY not in store
        store.advance(180)
        assert store.series(KEY).values.tolist() == [1.0, 2.0]

    def test_silence_window_releases_at_its_end(self):
        store = faulty(FaultRule(SILENCE, window=(0, 300)))
        store.append(KEY, frag(0, 1.0))
        store.advance(299)
        assert KEY not in store
        store.advance(300)
        assert KEY in store

    def test_flush_all_drains_pending_ingest(self):
        store = faulty(FaultRule(DELAY, delay_bins=10))
        store.append(KEY, frag(0, 1.0))
        store.flush_all()
        assert store.series(KEY).values.tolist() == [1.0]
        store.flush_all()
        store.advance(10 ** 6)
        assert store.appended_fragments == 1

    def test_reads_pass_through_to_the_inner_store(self):
        store = faulty()
        store.append(KEY, frag(0, 1.0, 2.0))
        assert store.bin_seconds == 60
        assert store.keys() == [KEY]
        assert store.maybe_series(KEY).values.tolist() == [1.0, 2.0]
        assert store.range(KEY, 60, 120).values.tolist() == [2.0]
        assert store.window_matrix([KEY], 0, 120).shape == (1, 2)
        assert store.subscription_count() == 0

    def test_hold_counter(self):
        metrics = MetricsRegistry()
        store = faulty(FaultRule(DELAY, delay_bins=1), metrics=metrics)
        store.append(KEY, frag(0, 1.0))
        counter = metrics.counter(FAULTS_INJECTED_METRIC)
        assert counter.value(kind="hold") == 1


class TestPushFaults:
    def subscribe(self, store):
        got = []
        store.subscribe([KEY], lambda key, f: got.append(f.start))
        return got

    def test_drop_loses_the_push_but_not_the_store(self):
        store = faulty(FaultRule(DROP, window=(0, 60)))
        got = self.subscribe(store)
        store.append(KEY, frag(0, 1.0))
        store.append(KEY, frag(60, 2.0))
        assert got == [60]
        assert store.series(KEY).values.tolist() == [1.0, 2.0]

    def test_duplicate_delivers_twice(self):
        store = faulty(FaultRule(DUPLICATE, window=(60, 120)))
        got = self.subscribe(store)
        for start, value in ((0, 1.0), (60, 2.0), (120, 3.0)):
            store.append(KEY, frag(start, value))
        assert got == [0, 60, 60, 120]

    def test_reorder_swaps_with_the_next_push(self):
        store = faulty(FaultRule(REORDER, window=(0, 60)))
        got = self.subscribe(store)
        for start, value in ((0, 1.0), (60, 2.0), (120, 3.0)):
            store.append(KEY, frag(start, value))
        assert got == [60, 0, 120]
        # the durable column is untouched by the push swap
        assert store.series(KEY).values.tolist() == [1.0, 2.0, 3.0]

    def test_flush_all_delivers_swap_held_pushes(self):
        store = faulty(FaultRule(REORDER, window=(120, 180)))
        got = self.subscribe(store)
        for start, value in ((0, 1.0), (60, 2.0), (120, 3.0)):
            store.append(KEY, frag(start, value))
        assert got == [0, 60]            # the last push is swap-held
        store.flush_all()
        assert got == [0, 60, 120]

    def test_cancelled_subscription_is_not_flushed(self):
        store = faulty(FaultRule(REORDER, window=(0, 60)))
        got = []
        sub = store.subscribe([KEY], lambda key, f: got.append(f.start))
        store.append(KEY, frag(0, 1.0))
        sub.cancel()
        store.flush_all()
        assert got == []

    def test_push_fault_counters(self):
        metrics = MetricsRegistry()
        store = faulty(FaultRule(DROP, window=(0, 60)),
                       FaultRule(DUPLICATE, window=(60, 120)),
                       metrics=metrics)
        self.subscribe(store)
        store.append(KEY, frag(0, 1.0))
        store.append(KEY, frag(60, 2.0))
        counter = metrics.counter(FAULTS_INJECTED_METRIC)
        assert counter.value(kind="drop") == 1
        assert counter.value(kind="duplicate") == 1


class TestHistoryFaults:
    CHANGE = SimpleNamespace(change_id="chg-0001")

    def provider(self, error_attempts, inner):
        plan = FaultPlan(rules=(FaultRule(
            HISTORY_ERROR, error_attempts=error_attempts),))
        return FaultyHistoryProvider(inner, plan)

    def test_leading_failures_then_heal(self):
        rows = object()
        calls = []

        def inner(change, etype, entity, metric):
            calls.append(entity)
            return rows

        provider = self.provider(2, inner)
        for _ in range(2):
            with pytest.raises(TelemetryError):
                provider(self.CHANGE, "server", "web-1", "cpu")
        assert provider(self.CHANGE, "server", "web-1", "cpu") is rows
        assert calls == ["web-1"]        # inner only reached once healed

    def test_attempts_are_tracked_per_item(self):
        provider = self.provider(1, lambda *a: "ok")
        with pytest.raises(TelemetryError):
            provider(self.CHANGE, "server", "web-1", "cpu")
        # a different KPI has its own leading failure
        with pytest.raises(TelemetryError):
            provider(self.CHANGE, "server", "web-2", "cpu")
        assert provider(self.CHANGE, "server", "web-1", "cpu") == "ok"

    def test_none_inner_heals_to_none(self):
        provider = self.provider(1, None)
        with pytest.raises(TelemetryError):
            provider(self.CHANGE, "server", "web-1", "cpu")
        assert provider(self.CHANGE, "server", "web-1", "cpu") is None

    def test_no_matching_rule_passes_straight_through(self):
        provider = FaultyHistoryProvider(lambda *a: "rows", FaultPlan())
        assert provider(self.CHANGE, "server", "web-1", "cpu") == "rows"

    def test_injected_failures_are_counted(self):
        metrics = MetricsRegistry()
        plan = FaultPlan(rules=(FaultRule(HISTORY_ERROR,
                                          error_attempts=2),))
        provider = FaultyHistoryProvider(None, plan, metrics=metrics)
        for _ in range(2):
            with pytest.raises(TelemetryError):
                provider(self.CHANGE, "server", "web-1", "cpu")
        provider(self.CHANGE, "server", "web-1", "cpu")
        counter = metrics.counter(FAULTS_INJECTED_METRIC)
        assert counter.value(kind="history_error") == 2
