"""Tests for counters, gauges, histograms, snapshots, exposition."""

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
        label key; snapshot and exposition must not tell."""
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
        assert "ticks_total 3\n" in reg.to_prometheus()

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


class TestPrometheusExposition:
    def test_golden_exposition(self):
        reg = MetricsRegistry()
        jobs = reg.counter("jobs_total", help="Jobs.")
        jobs.inc(3, detector="funnel")
        jobs.inc(1, detector="cusum")
        reg.gauge("depth", help="Queue depth.").set(2)
        lat = reg.histogram("lat", help="Latency.", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 3.0):
            lat.observe(value)

        expected = (
            '# HELP depth Queue depth.\n'
            '# TYPE depth gauge\n'
            'depth 2\n'
            '# HELP jobs_total Jobs.\n'
            '# TYPE jobs_total counter\n'
            'jobs_total{detector="cusum"} 1\n'
            'jobs_total{detector="funnel"} 3\n'
            '# HELP lat Latency.\n'
            '# TYPE lat histogram\n'
            'lat_bucket{le="0.1"} 1\n'
            'lat_bucket{le="1"} 2\n'
            'lat_bucket{le="+Inf"} 3\n'
            'lat_sum 3.55\n'
            'lat_count 3\n'
        )
        assert reg.to_prometheus() == expected

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(1, path='a"b\\c')
        assert r'c{path="a\"b\\c"} 1' in reg.to_prometheus()

    def test_empty_registry_exposes_nothing(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestLabeledHistogramRoundTrip:
    """A *labeled* histogram: one row per label set, exposed in label
    order, with percentiles read per label set."""

    GOLDEN = (
        '# HELP stage_lat Stage latency.\n'
        '# TYPE stage_lat histogram\n'
        'stage_lat_bucket{stage="detect",le="0.1"} 2\n'
        'stage_lat_bucket{stage="detect",le="1"} 5\n'
        'stage_lat_bucket{stage="detect",le="+Inf"} 6\n'
        'stage_lat_sum{stage="detect"} 3.61\n'
        'stage_lat_count{stage="detect"} 6\n'
        'stage_lat_bucket{stage="fetch",le="0.1"} 1\n'
        'stage_lat_bucket{stage="fetch",le="1"} 1\n'
        'stage_lat_bucket{stage="fetch",le="+Inf"} 2\n'
        'stage_lat_sum{stage="fetch"} 2.05\n'
        'stage_lat_count{stage="fetch"} 2\n'
    )

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

    def test_golden_exposition_text(self):
        assert self._registry().to_prometheus() == self.GOLDEN

    def test_percentiles_per_label_set(self):
        hist = self._registry().histogram("stage_lat", buckets=(0.1, 1.0))
        # 6 detect samples: 2 in (<=0.1], 3 in (0.1, 1], 1 overflow.
        assert hist.percentile(10, stage="detect") <= 0.1
        assert 0.1 < hist.percentile(60, stage="detect") <= 1.0
        assert hist.percentile(99, stage="detect") == 1.0  # clamped
        assert hist.count(stage="fetch") == 2
