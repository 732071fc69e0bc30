"""Tests for counters, gauges, histograms and snapshots."""

import pytest

from repro.obs import BYTE_BUCKETS, LATENCY_BUCKETS, MetricsRegistry
from repro.obs.metrics import Histogram


class TestCounterGauge:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", help="Jobs.")
        c.inc(detector="funnel")
        c.inc(2, detector="funnel")
        c.inc(detector="cusum")
        assert c.value(detector="funnel") == 3
        assert c.value(detector="cusum") == 1
        assert c.value(detector="none") == 0
        assert c.total() == 4

    def test_label_free_and_labelled_series_share_one_counter(self):
        """No labels is the hot form and takes a short cut to the empty
        label key; the snapshot must not tell."""
        reg = MetricsRegistry()
        c = reg.counter("ticks_total", help="Ticks.")
        c.inc()
        c.inc(2)
        c.inc(stage="pool")
        assert c.value() == 3 and c.value(stage="pool") == 1
        assert list(c.values) == [(), (("stage", "pool"),)]
        assert reg.snapshot()["counters"]["ticks_total"]["values"] == [
            {"labels": {}, "value": 3},
            {"labels": {"stage": "pool"}, "value": 1}]

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.inc(2)
        g.inc(-1)                       # a gauge decrements through inc
        assert g.value() == 6

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.1):        # both land in the first bucket
            h.observe(value)
        h.observe(0.100001)              # just over the edge -> second
        h.observe(1.0)                   # exactly the last bound -> second
        h.observe(3.0)                   # overflow -> +Inf
        key = ()
        assert h.counts[key] == [2, 2, 1]
        assert h.count() == 5
        assert h.sums[key] == pytest.approx(0.05 + 0.1 + 0.100001 + 1.0 + 3.0)

    def test_invalid_buckets_rejected(self):
        for bad in ((), (1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ValueError, match="strictly"):
                Histogram("h", buckets=bad)

    def test_default_bucket_tables(self):
        assert LATENCY_BUCKETS == tuple(sorted(LATENCY_BUCKETS))
        assert BYTE_BUCKETS == tuple(sorted(BYTE_BUCKETS))
        assert LATENCY_BUCKETS[0] == 0.0001 and LATENCY_BUCKETS[-1] == 10.0


class TestSnapshot:
    def test_snapshot_is_json_safe(self):
        import json
        reg = MetricsRegistry()
        reg.counter("jobs_total", help="Jobs.").inc(4, detector="funnel")
        reg.gauge("depth").set(3)
        h = reg.histogram("lat", help="Latency.", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap


class TestLabeledHistogramRoundTrip:
    """A *labeled* histogram: one row per label set, with percentiles
    read per label set."""

    @staticmethod
    def _observe(reg, values_by_stage):
        hist = reg.histogram("stage_lat", help="Stage latency.",
                             buckets=(0.1, 1.0))
        for stage, values in values_by_stage.items():
            for value in values:
                hist.observe(value, stage=stage)

    def _registry(self):
        reg = MetricsRegistry()
        self._observe(reg, {"detect": (0.05, 0.5, 2.0, 0.06, 0.5, 0.5),
                            "fetch": (0.05, 2.0)})
        return reg

    def test_percentiles_per_label_set(self):
        hist = self._registry().histogram("stage_lat", buckets=(0.1, 1.0))
        # 6 detect samples: 2 in (<=0.1], 3 in (0.1, 1], 1 overflow.
        assert hist.percentile(10, stage="detect") <= 0.1
        assert 0.1 < hist.percentile(60, stage="detect") <= 1.0
        assert hist.percentile(99, stage="detect") == 1.0  # clamped
        assert hist.count(stage="fetch") == 2
