"""Unit tests for the health telemetry layer (repro.obs.health)."""

import json
import os

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.robust import MAD_TO_SIGMA
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
        assert assessor.detections == []

    def test_step_after_baseline_is_declared(self):
        assessor = SelfAssessor()
        found = []
        for tick in range(160):
            value = 7.0 if tick < 100 else 0.0
            found += assessor.observe(tick, {"queue_depth": value})
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
        assert len(found) == 1

    def test_missing_kpi_reads_as_zero(self):
        assessor = SelfAssessor()
        for tick in range(80):
            assert assessor.observe(tick, {}) == []
        assert assessor.detections == []

    def test_state_is_bounded(self):
        """However long the run, a KPI holds its last ``persistence``
        values once the baseline is whole."""
        assessor = SelfAssessor()
        for tick in range(1, 20001):
            assert assessor.observe(tick, {"ingest_fragments": 26.0,
                                           "queue_depth": tick % 2}) == []
        assert sorted(assessor.watches) == sorted(DEFAULT_SELF_KPIS)
        assert all(len(watch.values) <= assessor.policy.persistence
                   for watch in assessor.watches.values())
        assert assessor._baseline == []


def _oracle(columns, persistence=7, deviation_sigmas=3.0):
    """The self-assessment rule recomputed from the whole history on
    every tick, ticks counted from 1 as the scheduler does: per KPI the
    median and robust sigma of the first ``BASELINE_TICKS`` values, the
    median of the last ``persistence``, and the out-of-band run ending
    at the tick, scanned back from it.  Returns the detection records."""
    history = np.array(columns, dtype=np.float64)
    baseline = SelfAssessor.BASELINE_TICKS
    records, declared = [], set()
    for now in range(baseline, len(history)):
        for row, kpi in enumerate(DEFAULT_SELF_KPIS):
            if kpi in declared:
                continue
            x = history[:now + 1, row]
            median = np.median(x[:baseline])
            sigma = MAD_TO_SIGMA * np.median(
                np.abs(x[:baseline] - median)) + 1e-9
            band = deviation_sigmas * sigma
            deviation = np.median(x[now + 1 - persistence:]) - median
            first = now
            while (abs(x[now] - median) > band and first > 0
                   and abs(x[first - 1] - median) > band):
                first -= 1
            if abs(deviation) <= band or first + 1 < baseline:
                continue
            declared.add(kpi)
            records.append({
                "kind": "self_detection", "kpi": kpi, "tick": now + 1,
                "declared_tick": now + 1, "start_tick": first + 1,
                "direction": 1 if deviation > 0 else -1,
                "score": round(float(abs(deviation) / sigma), 4)})
    return records


class TestSelfAssessorRule:
    """The O(1)-per-tick assessor declares what the rule recomputed from
    the whole history declares, at the same ticks: steps and spikes,
    with and without noise, starting after the baseline or inside it,
    with KPIs absent throughout or missing on some ticks."""

    @settings(max_examples=120, deadline=None)
    # a step whose run starts one tick before the baseline's last tick
    # (pre-existing), and one starting on it (reportable)
    @example(kpi="queue_depth", at=58, width=None, size=20.0, noise=0.0,
             absent=set(), gaps=0.0, extra=20, seed=0)
    @example(kpi="queue_depth", at=59, width=None, size=20.0, noise=0.0,
             absent=set(), gaps=0.0, extra=20, seed=0)
    @given(kpi=st.sampled_from(DEFAULT_SELF_KPIS),
           # ticks 57-63 straddle the baseline's last tick, 60
           at=st.one_of(st.integers(56, 62), st.integers(30, 160)),
           width=st.one_of(st.integers(1, 4), st.just(None)),
           size=st.floats(-50.0, 50.0),
           noise=st.sampled_from([0.0, 0.5]),
           absent=st.sets(st.sampled_from(DEFAULT_SELF_KPIS), max_size=2),
           gaps=st.sampled_from([0.0, 0.05]),
           extra=st.integers(0, 60),
           seed=st.integers(0, 2 ** 16))
    def test_equals_the_rule_over_the_whole_history(
            self, kpi, at, width, size, noise, absent, gaps, extra, seed):
        rng = np.random.default_rng(seed)
        columns, found = [], []
        assessor = SelfAssessor()
        for tick in range(at + extra):
            values = dict.fromkeys(DEFAULT_SELF_KPIS, 7.0)
            values[kpi] += noise * float(rng.standard_normal())
            if at <= tick and (width is None or tick < at + width):
                values[kpi] += size
            for name in DEFAULT_SELF_KPIS:
                if name in absent or rng.random() < gaps:
                    del values[name]
            columns.append([values.get(name, 0.0)
                            for name in DEFAULT_SELF_KPIS])
            found += assessor.observe(tick + 1, values)
        assert found == assessor.detections == _oracle(columns)


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
