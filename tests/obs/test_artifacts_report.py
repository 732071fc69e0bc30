"""Run-artifact round-trips and the ``repro obs report`` golden output."""

import hashlib
import json
import os

import pytest

from repro.cli import main
from repro.obs import (ObsContext, SpanRecord, build_profile, folded_stacks,
                       load_run, render_table, write_run_artifacts)


def rec(span_id, parent_id, name, dur, **attrs):
    return SpanRecord(trace_id="t1", span_id=span_id, parent_id=parent_id,
                      name=name, start_unix=1000.0, duration_s=dur,
                      attrs=tuple(sorted(attrs.items())))


#: A tiny but fully-shaped engine trace: execute > batch > job > stages.
FIXTURE_SPANS = [
    rec("s1", None, "execute", 1.0, workers=0, batch_size=16),
    rec("s2", "s1", "batch", 0.9, batch=0, jobs=2),
    rec("s3", "s2", "job", 0.5, detector="funnel", job_id=1,
        entity="web-1", metric="cpu"),
    rec("s4", "s3", "detect", 0.4, detector="funnel"),
    rec("s5", "s2", "job", 0.3, detector="funnel", job_id=2,
        entity="web-2", metric="mem"),
    rec("s6", "s5", "detect", 0.2, detector="funnel"),
    rec("s7", "s5", "attribute", 0.05, detector="funnel"),
]

GOLDEN_TABLE = """\
Stage breakdown (7 spans)
stage                                calls    total_s     self_s
execute                                  1     1.0000     0.1000
  batch                                  1     0.9000     0.1000
    job                                  2     0.8000     0.1500
      detect                             2     0.6000     0.6000
      attribute                          1     0.0500     0.0500

Per-detector
detector          jobs      job_s   detect_s   attrib_s
funnel               2     0.8000     0.6000     0.0500

Slowest jobs
  job_id detector       entity                 metric                      seconds
       1 funnel         web-1                  cpu                          0.5000
       2 funnel         web-2                  mem                          0.3000
"""

GOLDEN_FOLDED = [
    "execute 100000",
    "execute;batch 100000",
    "execute;batch;job 150000",
    "execute;batch;job;attribute 50000",
    "execute;batch;job;detect 600000",
]


#: Counters behind every ``obs report`` section; what 07e8626 (``cli.py``
#: still rendered them) printed for them after the table, and the sha256
#: of its ``--json`` output for the same run, less the three ``packed_*``
#: batching rows the engine's former process pool had a summary for (the
#: raw ``repro_engine_packed_*`` counters still print under Counters).
GOLDEN_COUNTERS = [
    ("repro_engine_batched_batches_total", {}, 2),
    ("repro_engine_batched_capacity_total", {}, 32),
    ("repro_engine_batched_jobs_total", {}, 12),
    ("repro_engine_packed_rows_total", {}, 9),
    ("repro_engine_packed_unique_rows_total", {}, 4),
    ("repro_live_gated_candidates_total", {}, 40),
    ("repro_live_gating_tables_total", {}, 3),
    ("repro_live_pooled_batches_total", {}, 3),
    ("repro_live_pooled_series_total", {}, 10),
    ("repro_live_scored_windows_total", {}, 7),
    ("repro_live_tick_stage_seconds_total", {"stage": "pool"}, 0.5),
]

GOLDEN_SECTIONS = """
Counters
  repro_engine_batched_batches_total                        2
  repro_engine_batched_capacity_total                      32
  repro_engine_batched_jobs_total                          12
  repro_engine_packed_rows_total                            9
  repro_engine_packed_unique_rows_total                     4
  repro_live_gated_candidates_total                        40
  repro_live_gating_tables_total                            3
  repro_live_pooled_batches_total                           3
  repro_live_pooled_series_total                           10
  repro_live_scored_windows_total                           7
  repro_live_tick_stage_seconds_total{stage=pool}          0.5

Batching
  batched_detect_batches                                    2
  batched_detect_fill_ratio                             0.375
  batched_detect_jobs                                      12
  batched_detect_mean_size                                  6
  pooled_gating_candidates_per_table                    13.33
  pooled_gating_tables                                      3
  pooled_scoring_batches                                    3
  pooled_scoring_mean_size                               3.33
  pooled_scoring_series                                    10
  pooled_windows_per_position                           0.175

Ingest plane
  stage_seconds_pool                                      0.5
"""
GOLDEN_JSON_SHA = "536a3fe6d1a5f5b2fcbe188ac452036325b60d5a31dcf8bc8d54ec2d84f62ba1"


def _observed_context():
    obs = ObsContext()
    with obs.tracer.span("execute", batch_size=16):
        with obs.tracer.span("batch", batch=0):
            obs.tracer.record("job", 0.25, detector="funnel", job_id=0)
    obs.metrics.counter("repro_engine_jobs_total",
                        help="Jobs.").inc(1, detector="funnel")
    obs.metrics.histogram("repro_engine_detect_seconds",
                          buckets=(0.1, 1.0)).observe(0.25,
                                                      detector="funnel")
    return obs


class TestArtifactsRoundTrip:
    def test_jsonl_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.obs.artifacts.git_revision",
                            lambda: "abc123")
        obs = _observed_context()
        written = write_run_artifacts(
            str(tmp_path), obs, config={"batch_size": 16},
            seeds={"scenario": 7}, stages={"execute": {"seconds": 0.3}},
            run_id="rt-run", unix_time=1000.0)

        assert written["span_count"] == 3
        assert os.path.exists(written["events"])
        assert os.path.exists(written["manifest"])

        run = load_run(str(tmp_path))
        assert run.run_id == "rt-run"
        assert run.manifest["git_rev"] == "abc123"
        assert run.manifest["config"] == {"batch_size": 16}
        assert run.manifest["seeds"] == {"scenario": 7}
        assert run.manifest["unix_time"] == 1000.0
        assert ([s.as_dict() for s in run.spans]
                == [s.as_dict() for s in obs.spans()])
        assert run.metrics == obs.metrics.snapshot()

    def test_events_lines_are_self_describing(self, tmp_path):
        obs = _observed_context()
        write_run_artifacts(str(tmp_path), obs, run_id="k",
                            unix_time=1000.0)
        with open(tmp_path / "events.jsonl", encoding="utf-8") as fh:
            kinds = [json.loads(line)["kind"] for line in fh]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert kinds.count("span") == 3
        assert kinds.count("metrics") == 1

    def test_unknown_event_kinds_are_skipped(self, tmp_path):
        obs = _observed_context()
        write_run_artifacts(str(tmp_path), obs, unix_time=1000.0)
        with open(tmp_path / "events.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "future_thing", "x": 1}) + "\n")
        run = load_run(str(tmp_path))
        assert len(run.spans) == 3

    def test_manifest_optional_falls_back_to_header(self, tmp_path):
        obs = _observed_context()
        write_run_artifacts(str(tmp_path), obs, run_id="hdr-run",
                            unix_time=1000.0)
        os.remove(tmp_path / "run.json")
        run = load_run(str(tmp_path))
        assert run.run_id == "hdr-run"
        assert len(run.spans) == 3

    def test_missing_events_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="events.jsonl"):
            load_run(str(tmp_path))


class TestProfile:
    def test_golden_table(self):
        assert render_table(build_profile(FIXTURE_SPANS)) == GOLDEN_TABLE

    def test_golden_folded(self):
        assert folded_stacks(build_profile(FIXTURE_SPANS)) == GOLDEN_FOLDED

    def test_self_time_subtracts_direct_children(self):
        profile = build_profile(FIXTURE_SPANS)
        job = profile.path("execute", "batch", "job")
        assert job.calls == 2
        assert job.total_s == pytest.approx(0.8)
        assert job.self_s == pytest.approx(0.8 - 0.4 - 0.2 - 0.05)

    def test_orphan_spans_become_roots(self):
        orphan = rec("zz", "gone", "lonely", 0.1)
        profile = build_profile([orphan])
        assert profile.path("lonely").calls == 1

    def test_stacked_detect_counts_as_its_jobs(self):
        """Funnel jobs are scored a stack at a time and get no ``job``
        span: the ``detect_batch`` span carries their count and time."""
        spans = [
            rec("s1", None, "execute", 1.0, workers=0, batch_size=16),
            rec("s2", "s1", "detect_batch", 0.6, batch=0, jobs=12,
                detector="funnel", series_bins=240),
            rec("s3", "s1", "detect_batch", 0.2, batch=1, jobs=4,
                detector="funnel", series_bins=240),
            rec("s4", "s1", "attribute_batch", 0.1, batch=0, jobs=5),
        ]
        profile = build_profile(spans)
        row = profile.detectors["funnel"]
        assert row["jobs"] == 16
        assert row["job_s"] == pytest.approx(0.8)
        assert row["stages"]["detect"] == {"calls": 2,
                                           "total_s": pytest.approx(0.8)}
        assert profile.slowest_jobs == []

    def test_top_jobs_limit(self):
        profile = build_profile(FIXTURE_SPANS, top_jobs=1)
        assert [row["job_id"] for row in profile.slowest_jobs] == [1]


class TestObsReportCli:
    @staticmethod
    def _write_fixture_run(tmp_path, monkeypatch, counters=()):
        monkeypatch.setattr("repro.obs.artifacts.git_revision",
                            lambda: None)
        obs = ObsContext()
        obs.tracer.finished.extend(FIXTURE_SPANS)
        for name, labels, value in counters:
            obs.metrics.counter(name).inc(value, **labels)
        write_run_artifacts(str(tmp_path), obs, run_id="golden-run",
                            unix_time=1000.0)

    def test_counter_sections_golden(self, tmp_path, monkeypatch, capsys):
        self._write_fixture_run(tmp_path, monkeypatch, GOLDEN_COUNTERS)
        assert main(["obs", "report", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "Run golden-run\n\n" + GOLDEN_TABLE + GOLDEN_SECTIONS)
        assert main(["obs", "report", str(tmp_path), "--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode(
            "utf-8")).hexdigest() == GOLDEN_JSON_SHA

    def test_report_golden_output(self, tmp_path, monkeypatch, capsys):
        self._write_fixture_run(tmp_path, monkeypatch)
        assert main(["obs", "report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out == "Run golden-run\n\n" + GOLDEN_TABLE

    def test_report_json_mode(self, tmp_path, monkeypatch, capsys):
        self._write_fixture_run(tmp_path, monkeypatch)
        assert main(["obs", "report", str(tmp_path), "--json",
                     "--top", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["run_id"] == "golden-run"
        assert doc["span_count"] == 7
        assert len(doc["slowest_jobs"]) == 1
        assert doc["paths"][0]["path"] == ["execute"]

    def test_report_folded_export(self, tmp_path, monkeypatch, capsys):
        self._write_fixture_run(tmp_path, monkeypatch)
        folded = tmp_path / "stacks.folded"
        assert main(["obs", "report", str(tmp_path),
                     "--folded", str(folded)]) == 0
        assert folded.read_text().splitlines() == GOLDEN_FOLDED
        assert "Folded stacks written to" in capsys.readouterr().out

    def test_report_missing_dir_errors_cleanly(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "nope")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "events.jsonl" in err["error"]


class TestPooledRunArtifacts:
    """`obs report` on a run recorded while the engine still had a process
    pool (``fixtures/pooled_run``: ``assess-fleet --detectors
    funnel,cusum --workers 2``).  Its ``repro_engine_packed_*`` counters,
    ``repro_engine_inflight_batches`` gauge and ``workers=2`` attribute
    on ``execute`` are no longer produced, but the run still renders
    every section."""

    RUN_DIR = os.path.join(os.path.dirname(__file__), "fixtures",
                           "pooled_run")
    PACKED = ("repro_engine_packed_rows_total",
              "repro_engine_packed_unique_rows_total")

    def test_recorded_shape(self):
        run = load_run(self.RUN_DIR)
        assert run.corrupt_lines == 0
        execute = [s for s in run.spans if s.name == "execute"]
        assert [s.attr("workers") for s in execute] == [2]
        assert set(self.PACKED) <= set(run.metrics["counters"])
        assert "repro_engine_inflight_batches" in run.metrics["gauges"]

    def test_text_report_keeps_every_section(self, capsys):
        assert main(["obs", "report", self.RUN_DIR]) == 0
        out = capsys.readouterr().out
        for heading in ("Stage breakdown (71 spans)", "\nPer-detector\n",
                        "\nSlowest jobs\n", "\nCounters\n",
                        "\nBatching\n"):
            assert heading in out
        for line in ("      job ", "    detect_batch ",
                     "    attribute_batch "):
            assert line in out
        for name in self.PACKED:
            assert "\n  %s " % name in out

    def test_json_report_keeps_every_section(self, capsys):
        assert main(["obs", "report", self.RUN_DIR, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["span_count"] == 71
        paths = {tuple(p["path"]) for p in doc["paths"]}
        assert ("assess_fleet", "execute", "batch", "job", "detect") in paths
        assert ("assess_fleet", "execute", "detect_batch") in paths
        assert sorted(doc["detectors"]) == ["cusum", "funnel"]
        assert doc["slowest_jobs"]
        assert set(self.PACKED) <= {row["name"] for row in doc["counters"]}
        assert doc["batching"]["batched_detect_jobs"] == 14


class TestDegradedRunArtifacts:
    """`obs report` on the artifacts a crashed or empty run leaves behind.

    A killed ``--obs-dir`` run can leave an empty ``events.jsonl``, a
    truncated final line, or a ``metrics: null`` record; the report must
    degrade to its empty shape instead of raising.
    """

    def test_empty_events_file_reports_unknown_run(self, tmp_path, capsys):
        (tmp_path / "events.jsonl").write_text("")
        assert main(["obs", "report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Run unknown\n")
        assert "0 spans" in out

    def test_truncated_and_null_lines_are_counted(self, tmp_path):
        lines = [
            json.dumps({"kind": "run_start", "run_id": "crashed"}),
            json.dumps({"kind": "metrics", "metrics": None}),
            '["not", "a", "dict"]',
            '{"kind": "span", "trunc',          # torn mid-write
        ]
        (tmp_path / "events.jsonl").write_text("\n".join(lines) + "\n")
        run = load_run(str(tmp_path))
        assert run.corrupt_lines == 2
        assert run.metrics == {}
        assert run.spans == []
        assert run.run_id == "crashed"          # header fallback

    def test_degraded_run_survives_json_mode(self, tmp_path, capsys):
        (tmp_path / "events.jsonl").write_text(
            json.dumps({"kind": "metrics", "metrics": None}) + "\n"
            + "{garbage\n")
        assert main(["obs", "report", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["run_id"] == "unknown"
        assert doc["span_count"] == 0
