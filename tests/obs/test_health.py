"""Unit tests for the health telemetry layer (repro.obs.health)."""

import json
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.funnel import FunnelConfig
from repro.core.rsst import ImprovedSSTParams
from repro.live import DetectorPool
from repro.live.detector import IncrementalDetector
from repro.obs.health import (DEFAULT_SELF_KPIS, DEFAULT_SLOS, SUMMARY_KIND,
                              HeartbeatWriter, SelfAssessor, Slo, SloTracker,
                              build_health_report, load_heartbeat,
                              render_health_report)
from repro.obs.metrics import Histogram, MetricsRegistry

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


# -- the bounded writer -------------------------------------------------------

class TestHeartbeatWriter:
    def test_offer_never_touches_disk(self, tmp_path):
        path = str(tmp_path / "sub" / "hb.jsonl")
        writer = HeartbeatWriter(path)
        writer.offer({"tick": 1})
        assert not os.path.exists(path)

    def test_flush_drains_in_order(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        writer = HeartbeatWriter(path)
        for tick in range(5):
            writer.offer({"tick": tick})
        assert writer.flush() == 5
        ticks = [json.loads(line)["tick"] for line in open(path)]
        assert ticks == [0, 1, 2, 3, 4]
        assert writer.written == 5

    def test_full_ring_sheds_oldest_and_counts(self, tmp_path):
        metrics = MetricsRegistry()
        writer = HeartbeatWriter(str(tmp_path / "hb.jsonl"),
                                 metrics=metrics)
        capacity = HeartbeatWriter.CAPACITY
        kept = [writer.offer({"tick": tick})
                for tick in range(capacity + 2)]
        assert kept == [True] * capacity + [False, False]
        assert writer.dropped == 2
        writer.flush()
        ticks = [json.loads(line)["tick"]
                 for line in open(writer.path)]
        # The two oldest records were shed, the freshest survived.
        assert ticks == list(range(2, capacity + 2))
        dropped = metrics.get(
            "repro_health_heartbeat_dropped_total")
        assert dropped is not None and dropped.total() == 2

    def test_close_leaves_a_file_even_when_empty(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        writer = HeartbeatWriter(path)
        writer.close()
        assert os.path.exists(path)
        assert open(path).read() == ""

    def test_second_close_keeps_the_stream(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        writer = HeartbeatWriter(path)
        writer.offer({"tick": 1})
        writer.close()
        written = open(path).read()
        assert written == '{"tick": 1}\n'
        writer.close()
        assert open(path).read() == written

    def test_offer_after_close_is_dropped(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        writer = HeartbeatWriter(path)
        writer.offer({"tick": 1})
        writer.close()
        assert writer.offer({"tick": 2}) is False
        writer.close()
        assert [json.loads(line)["tick"] for line in open(path)] == [1]
        assert writer.written == 1


# -- SLOs ---------------------------------------------------------------------

class TestSlo:
    def test_direction_operators(self):
        assert Slo("lag", "lag", 10.0).good(10.0)
        assert not Slo("lag", "lag", 10.0).good(10.5)
        assert Slo("lag", "lag", 10.0).describe() == "lag <= 10"

    def test_missing_signal_is_not_a_violation(self):
        assert Slo("lag", "lag", 10.0).good(None)


#: The default objective the tracker tests drive: watermark lag <= 30.
LAG = "watermark-lag"


def _lag(value):
    return {"watermark_lag_bins": value}


class TestSloTracker:
    """The default objectives under the fixed 12 / 60-tick windows and
    0.5 / 0.2 burn thresholds; signals a tick omits count as good."""

    def test_steady_good_never_fires(self):
        tracker = SloTracker()
        for tick in range(100):
            assert tracker.update(tick, _lag(1.0)) == []
        attainment = tracker.attainment()[LAG]
        assert attainment["attainment"] == 1.0
        assert attainment["alerts_fired"] == 0
        assert set(tracker.attainment()) == {slo.name
                                             for slo in DEFAULT_SLOS}

    def test_one_bad_tick_does_not_page(self):
        tracker = SloTracker()
        events = []
        for tick in range(30):
            lag = 99.0 if tick == 15 else 1.0
            events += tracker.update(tick, _lag(lag))
        assert events == []

    def test_sustained_burn_fires_then_resolves(self):
        tracker = SloTracker()
        events = []
        for tick in range(80):
            lag = 99.0 if 20 <= tick < 32 else 1.0
            events += tracker.update(tick, _lag(lag))
        states = [(e["state"], e["slo"]) for e in events]
        assert states == [("firing", LAG), ("resolved", LAG)]
        # Six bad ticks fill half the fast window: 6 of 26 in the slow.
        firing, resolved = events
        assert firing["tick"] == 25
        assert firing["fast_bad_fraction"] == 0.5
        assert firing["slow_bad_fraction"] >= 0.2
        assert resolved["tick"] == 38
        assert tracker.attainment()[LAG]["alerts_fired"] == 1
        assert not tracker.attainment()[LAG]["firing"]

    def test_fast_window_must_fill_before_firing(self):
        tracker = SloTracker()
        # Eleven bad ticks of a not-yet-full fast window: no page.
        for tick in range(11):
            assert tracker.update(tick, _lag(99.0)) == []
        assert [e["state"] for e in tracker.update(11, _lag(99.0))] == \
            ["firing"]


# -- self-assessment ----------------------------------------------------------

class TestSelfAssessor:
    """The default self KPIs after the fixed 60-tick baseline; a KPI a
    tick omits reads as zero, so the others stay constant."""

    def test_constant_series_never_declares(self):
        assessor = SelfAssessor()
        for tick in range(200):
            assert assessor.observe(tick, {"queue_depth": 7.0}) == []
        assert assessor.finalize(200) == []
        assert assessor.detections == []

    def test_step_after_baseline_is_declared(self):
        assessor = SelfAssessor()
        found = []
        for tick in range(160):
            value = 7.0 if tick < 100 else 0.0
            found += assessor.observe(tick, {"queue_depth": value})
        found += assessor.finalize(160)
        assert len(found) == 1
        record = found[0]
        assert record["kpi"] == "queue_depth"
        assert record["direction"] == -1
        assert 95 <= record["start_tick"] <= 102
        assert record["kind"] == "self_detection"

    def test_declares_at_most_once_per_kpi(self):
        assessor = SelfAssessor()
        found = []
        for tick in range(260):
            value = 7.0 if tick < 100 or 160 <= tick else 0.0
            found += assessor.observe(tick, {"queue_depth": value})
        found += assessor.finalize(260)
        assert len(found) == 1

    def test_missing_kpi_reads_as_zero(self):
        assessor = SelfAssessor()
        for tick in range(80):
            assessor.observe(tick, {})
        assert assessor.finalize(80) == []


def _column_per_tick(columns):
    """The self-assessor as it was before it buffered ticks: a 4-row
    detector (omega 5, chunk 4) extended by one column per tick over
    the KPIs not yet declared, each column followed by a pool pass over
    it, then flushed; its detection records."""
    detector = IncrementalDetector(
        [60] * 4, FunnelConfig(sst=ImprovedSSTParams(omega=5)),
        score_chunk_bins=4)
    records = []

    def found(rows, tick):
        for row in rows:
            declared = detector.declarations[row]
            if declared is not None:
                records.append({
                    "kind": "self_detection", "kpi": DEFAULT_SELF_KPIS[row],
                    "tick": tick, "declared_tick": declared.index,
                    "start_tick": declared.start_index,
                    "direction": declared.direction,
                    "score": round(float(declared.score), 4)})

    def undeclared():
        return [row for row, declared in enumerate(detector.declarations)
                if declared is None]

    for tick, column in enumerate(columns):
        rows = undeclared()
        if rows:
            detector.extend(np.array([[column[row]] for row in rows]), rows)
            DetectorPool().score_pending([detector])
        found(rows, tick)
    rows = undeclared()
    detector.flush()
    found(rows, len(columns))
    return records


class TestChunkedSelfAssessor:
    """Feeding ``SCORE_CHUNK`` ticks as one block, a pass after each,
    declares what a column per tick under a ``SCORE_CHUNK`` chunk gate
    declares, at the same tick: the baseline is whole blocks, so every
    gated pass falls on a block boundary."""

    @settings(max_examples=60, deadline=None)
    @given(at=st.integers(61, 200), size=st.floats(-50.0, 50.0),
           kpi=st.sampled_from(DEFAULT_SELF_KPIS),
           # a few ticks past the step: the remainder finalize feeds
           # is what declares it
           extra=st.one_of(st.integers(0, 12), st.integers(13, 60)),
           noise=st.sampled_from([0.0, 0.5]),
           seed=st.integers(0, 2 ** 16))
    def test_equals_a_column_per_tick(self, at, size, kpi, extra, noise,
                                      seed):
        assert SelfAssessor.BASELINE_TICKS % SelfAssessor.SCORE_CHUNK == 0
        rng = np.random.default_rng(seed)
        ticks = at + extra
        columns = []
        for tick in range(ticks):
            values = dict.fromkeys(DEFAULT_SELF_KPIS, 7.0)
            values[kpi] += noise * float(rng.standard_normal())
            if tick >= at:
                values[kpi] += size
            columns.append([values[name] for name in DEFAULT_SELF_KPIS])
        assessor = SelfAssessor()
        for tick, column in enumerate(columns):
            assessor.observe(tick, dict(zip(DEFAULT_SELF_KPIS, column)))
        assessor.finalize(ticks)
        assert assessor.detections == _column_per_tick(columns)


# -- histogram percentiles ----------------------------------------------------

class TestHistogramPercentile:
    def test_empty_is_none(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        assert hist.percentile(99) is None

    def test_interpolates_within_bucket(self):
        hist = Histogram("h", buckets=(10.0, 20.0, 40.0))
        for _ in range(100):
            hist.observe(15.0)            # all in the (10, 20] bucket
        # Every quantile lands inside that bucket's bounds.
        assert 10.0 <= hist.percentile(1) <= 20.0
        assert 10.0 <= hist.percentile(50) <= 20.0
        assert 10.0 <= hist.percentile(99) <= 20.0
        # p100 is exactly the bucket's upper bound.
        assert hist.percentile(100) == 20.0

    def test_rank_walks_buckets(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 3.0))
        for value in (0.5,) * 50 + (1.5,) * 30 + (2.5,) * 20:
            hist.observe(value)
        assert hist.percentile(50) <= 1.0
        assert 1.0 < hist.percentile(75) <= 2.0
        assert 2.0 < hist.percentile(95) <= 3.0

    def test_overflow_clamps_to_top_bound(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        for _ in range(10):
            hist.observe(99.0)
        assert hist.percentile(99) == 2.0

    def test_labeled_rows_are_independent(self):
        hist = Histogram("h", buckets=(10.0, 100.0))
        hist.observe(5.0, shard="a")
        hist.observe(50.0, shard="b")
        assert hist.percentile(99, shard="a") <= 10.0
        assert hist.percentile(99, shard="b") > 10.0
        assert hist.percentile(99) is None    # unlabeled row is empty


class TestRegistryGet:
    def test_peek_does_not_create(self):
        metrics = MetricsRegistry()
        assert metrics.get("nope") is None
        assert "nope" not in metrics.snapshot()["counters"]
        metrics.counter("yes").inc()
        assert metrics.get("yes").total() == 1


# -- reading heartbeat streams back -------------------------------------------

def _write_stream(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _beat(tick, **extra):
    doc = {"kind": "heartbeat", "tick": tick, "verdicts": 1,
           "shed_fragments": 0, "ingest_fragments": 10,
           "degraded_verdicts": 0, "watermark_lag_bins": 0,
           "queue_depth": 0, "shed_ratio": 0.0,
           "verdict_lag_p99_bins": 5.0}
    doc.update(extra)
    return doc


class TestLoadHeartbeat:
    def test_skips_blank_and_corrupt_lines(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps(_beat(1)) + "\n")
            fh.write("\n")
            fh.write('{"kind": "heartbeat", "tick": 2')  # truncated
        records = load_heartbeat(path)
        assert [r["tick"] for r in records] == [1]


class TestBuildHealthReport:
    def test_truncated_stream_recomputes_slos(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        _write_stream(path, [_beat(t) for t in range(5)])
        report = build_health_report(load_heartbeat(path))
        assert not report["final_summary_present"]
        assert report["ticks"] == 5
        assert report["totals"]["verdicts"] == 5
        names = set(report["slos"])
        assert names == {slo.name for slo in DEFAULT_SLOS}

    def test_prefers_final_summary(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        _write_stream(path, [_beat(1), {
            "kind": "health_summary", "ticks": 1,
            "slos": {"custom": {"objective": "x <= 1",
                                "attainment": 1.0}},
            "self_detections": [{"kpi": "k", "declared_tick": 3}],
            "heartbeat_dropped": 7,
        }])
        report = build_health_report(load_heartbeat(path))
        assert report["final_summary_present"]
        assert list(report["slos"]) == ["custom"]
        assert report["self_detections"] == [{"kpi": "k",
                                              "declared_tick": 3}]
        assert report["heartbeat_dropped"] == 7

    def test_lag_over_time_is_downsampled(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        _write_stream(path, [_beat(t) for t in range(500)])
        report = build_health_report(load_heartbeat(path))
        points = report["lag_over_time"]
        assert 2 <= len(points) <= 12
        assert points[0]["tick"] == 0
        assert points[-1]["tick"] == 499

    def test_render_is_total(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        _write_stream(path, [_beat(t) for t in range(3)])
        text = render_health_report(
            build_health_report(load_heartbeat(path)))
        assert "SLO attainment" in text
        assert "Self-assessment" in text

    def test_empty_stream(self):
        report = build_health_report([])
        assert report["ticks"] == 0
        assert report["self_detections"] == []
        assert render_health_report(report)

    def test_old_heartbeat_stream_renders_its_recorded_report(self):
        """Ticks 91-130 of a 27-field heartbeat stream (the agent-silence
        replay of ``tests/live/test_health_integration.py``), plus the
        run's detections and summary, render the documents recorded
        with them: from the summary and, without it, from the beats."""
        records = load_heartbeat(os.path.join(FIXTURES,
                                              "heartbeat_v1.jsonl"))
        assert len(records[0]) == 27
        report = {"stream": build_health_report(records),
                  "without_summary": build_health_report(
                      [r for r in records if r["kind"] != SUMMARY_KIND])}
        with open(os.path.join(FIXTURES, "heartbeat_v1_report.json")) as fh:
            assert json.dumps(report, indent=2, sort_keys=True) + "\n" \
                == fh.read()


# -- the CLI ------------------------------------------------------------------

class TestHealthReportCli:
    def test_text_and_json_and_export(self, tmp_path, capsys):
        path = str(tmp_path / "hb.jsonl")
        _write_stream(path, [_beat(t) for t in range(3)])
        out = str(tmp_path / "health.json")
        assert main(["obs", "health-report", path, "--out", out]) == 0
        assert "SLO attainment" in capsys.readouterr().out
        exported = json.load(open(out))
        assert exported["ticks"] == 3
        assert main(["obs", "health-report", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ticks"] == 3

    def test_detection_bounds_gate(self, tmp_path, capsys):
        path = str(tmp_path / "hb.jsonl")
        _write_stream(path, [_beat(1), {
            "kind": "self_detection", "kpi": "k", "tick": 2,
            "declared_tick": 2, "start_tick": 1, "direction": -1,
            "score": 9.0}])
        assert main(["obs", "health-report", path,
                     "--min-self-detections", "1"]) == 0
        capsys.readouterr()
        assert main(["obs", "health-report", path,
                     "--max-self-detections", "0"]) == 1
        assert "outside the required bounds" in capsys.readouterr().out
        assert main(["obs", "health-report", path,
                     "--min-self-detections", "2"]) == 1
