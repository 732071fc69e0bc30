"""The health telemetry loop against the real live pipeline.

The acceptance contract has three legs:

* **parity safety** — a replay with health enabled writes a verdict
  JSONL *byte-identical* to a health-off run (telemetry reads state,
  never steers it);
* **zero false positives** — a fault-free replay's self-assessment
  declares nothing (its default KPIs are constant in a healthy
  virtual-time replay);
* **real detection** — a mid-run ``agent-silence`` outage is detected
  on the assessor's *own* KPI series, while the verdict stream still
  matches the offline engine.
"""

import json
import os

import pytest

from repro.cli import main
from repro.engine.fleet import FleetScenarioSpec
from repro.faults import preset_plan
from repro.live import JsonlVerdictSink, parity_live_config, replay_scenario
from repro.obs.health import (DETECTION_KIND, HEARTBEAT_KIND, SUMMARY_KIND,
                              HealthMonitor, SelfAssessor, load_heartbeat)
from repro.telemetry.timeseries import MINUTE

#: The heartbeat record: what the report, the SLOs and the self KPIs read.
HEARTBEAT_FIELDS = {
    "kind", "tick", "now", "tick_seconds", "queue_depth",
    "watermark_lag_bins", "ingest_fragments", "shed_fragments", "shed_ratio",
    "verdicts", "degraded_verdicts", "verdict_lag_p99_bins"}

SPEC = FleetScenarioSpec(n_services=2, n_servers=8, n_changes=2,
                         window_bins=120, change_offset=60,
                         history_days=1, seed=7)


def _monitor(tmp_path):
    return HealthMonitor(heartbeat_path=str(tmp_path / "heartbeat.jsonl"))


def _silence_plan(offset_bins=100, seed=11):
    return preset_plan("agent-silence", seed=seed,
                       lead_time=SPEC.lead_bins * MINUTE,
                       bin_seconds=MINUTE, offset_bins=offset_bins)


class TestParitySafety:
    def test_verdict_jsonl_is_byte_identical(self, tmp_path):
        paths = {}
        for mode in ("off", "on"):
            paths[mode] = str(tmp_path / ("verdicts_%s.jsonl" % mode))
            health = _monitor(tmp_path) if mode == "on" else None
            with JsonlVerdictSink(paths[mode]) as sink:
                replay_scenario(SPEC, sink=sink, health=health)
        with open(paths["off"], "rb") as off, open(paths["on"], "rb") as on:
            assert off.read() == on.read()

    def test_health_does_not_disturb_offline_parity(self, tmp_path):
        report = replay_scenario(SPEC, check_offline=True,
                                 health=_monitor(tmp_path))
        assert report.parity_ok is True


class TestFaultFreeRun:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("healthy")
        report = replay_scenario(SPEC, health=_monitor(tmp_path))
        return report, load_heartbeat(str(tmp_path / "heartbeat.jsonl"))

    def test_no_self_detections(self, run):
        report, records = run
        assert report.service_report["health"]["self_detections"] == []
        assert [r for r in records
                if r.get("kind") == DETECTION_KIND] == []

    def test_one_heartbeat_per_tick(self, run):
        report, records = run
        beats = [r for r in records if r.get("kind") == HEARTBEAT_KIND]
        assert len(beats) == report.ticks
        assert [b["tick"] for b in beats] == \
            list(range(1, report.ticks + 1))

    def test_heartbeat_is_the_twelve_documented_fields(self, run):
        _, records = run
        beats = [r for r in records if r.get("kind") == HEARTBEAT_KIND]
        assert all(set(b) == HEARTBEAT_FIELDS for b in beats)

    def test_heartbeat_records_carry_the_pipeline_signals(self, run):
        report, records = run
        beats = [r for r in records if r.get("kind") == HEARTBEAT_KIND]
        # Ingest deltas account for every streamed fragment.
        assert sum(b["ingest_fragments"] for b in beats) == \
            report.fragments_streamed
        # Verdict deltas account for every published verdict.
        assert sum(b["verdicts"] for b in beats) == len(report.verdicts)
        # A healthy replay never lags, queues or sheds.
        assert all(b["watermark_lag_bins"] == 0 for b in beats)
        assert all(b["queue_depth"] == 0 for b in beats)
        assert all(b["shed_fragments"] == 0 for b in beats)
        # Once verdicts flow, the lag histogram reports a percentile.
        assert beats[-1]["verdict_lag_p99_bins"] is not None

    def test_summary_record_closes_the_stream(self, run):
        report, records = run
        assert records[-1]["kind"] == SUMMARY_KIND
        summary = report.service_report["health"]
        assert summary["ticks"] == report.ticks
        assert summary["alerts_fired"] == 0
        assert summary["heartbeat_dropped"] == 0
        for doc in summary["slos"].values():
            assert doc["attainment"] == 1.0

    def test_report_embeds_health_section(self, run):
        report, _ = run
        assert "health" in report.service_report
        # Health-off reports must not grow the section.
        plain = replay_scenario(SPEC)
        assert "health" not in plain.service_report


class TestChaosSelfDetection:
    @pytest.fixture(scope="class")
    def chaos_run(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("chaos")
        config = parity_live_config(SPEC, repair_from_store=True)
        report = replay_scenario(SPEC, live_config=config,
                                 fault_plan=_silence_plan(),
                                 check_offline=True,
                                 health=_monitor(tmp_path))
        return report, load_heartbeat(str(tmp_path / "heartbeat.jsonl"))

    def test_outage_is_self_detected(self, chaos_run):
        report, records = chaos_run
        detections = report.service_report["health"]["self_detections"]
        assert len(detections) >= 1
        by_kpi = {d["kpi"]: d for d in detections}
        # The silenced agents dent the ingest rate; the dip starts at
        # the fault's offset bin.
        assert "ingest_fragments" in by_kpi
        dip = by_kpi["ingest_fragments"]
        assert dip["direction"] == -1
        assert 95 <= dip["start_tick"] <= 105
        # Detection records also land on the heartbeat stream.
        streamed = [r for r in records
                    if r.get("kind") == DETECTION_KIND]
        assert {d["kpi"] for d in streamed} == set(by_kpi)

    def test_start_tick_is_the_heartbeat_tick_the_dip_starts(self,
                                                             chaos_run):
        """Detections and heartbeats count ticks on one clock: the dip's
        start is the first heartbeat after the baseline whose ingest
        left the baseline's (constant) rate."""
        report, records = chaos_run
        beats = [r for r in records if r.get("kind") == HEARTBEAT_KIND]
        baseline = {b["ingest_fragments"]
                    for b in beats[:SelfAssessor.BASELINE_TICKS]}
        assert len(baseline) == 1
        first = next(b["tick"] for b in beats[SelfAssessor.BASELINE_TICKS:]
                     if b["ingest_fragments"] not in baseline)
        dip = next(d for d in report.service_report["health"][
            "self_detections"] if d["kpi"] == "ingest_fragments")
        assert dip["start_tick"] == first == 100

    def test_parity_survives_the_detected_outage(self, chaos_run):
        report, _ = chaos_run
        assert report.parity_ok is True

    def test_same_fault_without_health_has_no_cost(self):
        config = parity_live_config(SPEC, repair_from_store=True)
        report = replay_scenario(SPEC, live_config=config,
                                 fault_plan=_silence_plan(),
                                 check_offline=True)
        assert report.parity_ok is True
        assert "health" not in report.service_report


#: What each preset self-detects (fault seed 11, the CI chaos smoke's
#: scenario), at fault offsets 0 and 100 bins: ``(kpi, declared_tick,
#: start_tick, direction)`` in the order declared.
WATERMARK_DDD = ("watermark_lag_bins", 63, 60, 1)
WATERMARK_REORDER = ("watermark_lag_bins", 65, 65, 1)
SILENCE = [("ingest_fragments", 103, 100, -1),
           ("watermark_lag_bins", 103, 100, 1)]
PRESET_DETECTIONS = {
    ("none", 0): [], ("none", 100): [],
    ("drop-delay-dup", 0): [WATERMARK_DDD],
    ("drop-delay-dup", 100): [WATERMARK_DDD],
    ("reorder", 0): [WATERMARK_REORDER],
    ("reorder", 100): [WATERMARK_REORDER],
    ("flaky-history", 0): [], ("flaky-history", 100): [],
    ("agent-silence", 0): [], ("agent-silence", 100): SILENCE,
    ("all", 0): [WATERMARK_DDD],
    ("all", 100): [WATERMARK_DDD, ("ingest_fragments", 103, 100, -1)],
}


@pytest.mark.parametrize("plan,offset", sorted(PRESET_DETECTIONS))
def test_preset_self_detections(plan, offset, tmp_path, capsys):
    path = str(tmp_path / "heartbeat.jsonl")
    assert main(["chaos-replay", "--plan", plan, "--fault-seed", "11",
                 "--fault-offset-bins", str(offset),
                 "--services", "2", "--servers", "8", "--changes", "2",
                 "--history-days", "1", "--window-bins", "120",
                 "--change-offset", "60", "--health", path]) == 0
    capsys.readouterr()
    found = [(d["kpi"], d["declared_tick"], d["start_tick"], d["direction"])
             for d in load_heartbeat(path) if d["kind"] == DETECTION_KIND]
    assert found == PRESET_DETECTIONS[plan, offset]


class TestMonitorMechanics:
    def test_heartbeats_flush_incrementally(self, tmp_path):
        health = _monitor(tmp_path)
        written = {}
        replay_scenario(SPEC, health=health,
                        tick_callback=lambda tick, now: written.setdefault(
                            tick, health.writer.written))
        every = HealthMonitor.FLUSH_EVERY_TICKS
        assert every == 32
        assert written[every - 1] == 0
        assert written[every] >= every
        assert written[2 * every] >= 2 * every
        assert health.writer.written >= 240
        assert health.writer.dropped == 0

    def test_killed_run_leaves_truncated_stream(self, tmp_path):
        # Killed past the first 32-tick flush: those heartbeats are on
        # disk, the rest died in the buffer.
        health = _monitor(tmp_path)
        report = replay_scenario(SPEC, health=health,
                                 kill_after_ticks=40)
        assert report.killed
        path = str(tmp_path / "heartbeat.jsonl")
        assert os.path.exists(path)
        records = load_heartbeat(path)
        # No summary record — the run never shut down cleanly — but the
        # flushed heartbeats survive for post-mortem health-report.
        assert all(r["kind"] != SUMMARY_KIND for r in records)
        assert sum(r["kind"] == HEARTBEAT_KIND for r in records) == 32
        assert not health.finalized

    def test_finalize_is_idempotent(self, tmp_path):
        health = _monitor(tmp_path)
        replay_scenario(SPEC, health=health)
        first = health.summary()
        assert health.finalize() == first

    def test_heartbeat_lines_are_valid_sorted_json(self, tmp_path):
        replay_scenario(SPEC, health=_monitor(tmp_path))
        with open(str(tmp_path / "heartbeat.jsonl")) as fh:
            for line in fh:
                doc = json.loads(line)
                assert line == json.dumps(doc, sort_keys=True) + "\n"
