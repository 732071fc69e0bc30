"""End-to-end behaviour of the live service: replay, overload, caps."""

import numpy as np
import pytest

from repro.changes.change import SoftwareChange
from repro.engine.fleet import FleetScenarioSpec
from repro.live import (LiveConfig, VerdictBus, parity_live_config,
                        replay_scenario)
from repro.live.assessor import (GAP_BINS_METRIC, ChangeSession, KpiTracker,
                                 LiveAssessor)
from repro.live.queues import SHED_FRAGMENTS_METRIC, IngestQueues
from repro.live.watcher import SHED_CHANGES_METRIC
from repro.obs.context import ObsContext
from repro.telemetry.kpi import KpiKey
from repro.telemetry.timeseries import MINUTE, TimeSeries
from repro.types import ChangeKind


SMALL = FleetScenarioSpec(n_services=2, n_servers=8, n_changes=2,
                          window_bins=120, change_offset=60,
                          history_days=1, seed=5)


@pytest.fixture(scope="module")
def small_replay():
    return replay_scenario(SMALL)


class TestReplay:
    def test_every_job_gets_exactly_one_verdict(self, small_replay):
        keys = [v.key for v in small_replay.verdicts]
        assert len(keys) == len(set(keys))
        # every change produced at least (tservers + service) verdicts
        by_change = {}
        for v in small_replay.verdicts:
            by_change.setdefault(v.change_id, []).append(v)
        assert set(by_change) == {"chg-0000", "chg-0001"}

    def test_all_sessions_closed_and_unsubscribed(self, small_replay):
        report = small_replay.service_report
        assert report["active_changes"] == 0
        assert report["closed_changes"] == 2
        assert report["queue_depth"] == 0

    def test_reasons_are_declared_or_deadline(self, small_replay):
        assert set(v.reason for v in small_replay.verdicts) <= \
            {"declared", "deadline"}

    def test_declared_verdicts_carry_declaration_bin(self, small_replay):
        for v in small_replay.verdicts:
            if v.reason == "declared":
                assert v.declaration_bin is not None
                assert v.verdict != "no_change"
            else:
                assert v.declaration_bin is None
                assert v.verdict == "no_change"

    def test_detection_lag_is_positive_and_bounded(self, small_replay):
        for lag in small_replay.detection_lag_bins:
            assert 0 <= lag <= SMALL.window_bins - SMALL.change_offset

    def test_flush_bins_batches_fragments(self):
        batched = replay_scenario(SMALL, flush_bins=5)
        assert batched.fragments_streamed * 5 >= \
            replay_scenario(SMALL).fragments_streamed
        assert sorted(v.parity_tuple() for v in batched.verdicts)


class TestObsIntegration:
    def test_spans_and_metrics_recorded(self):
        obs = ObsContext()
        report = replay_scenario(SMALL, obs=obs)
        names = [span.name for span in obs.spans()]
        assert names.count("live_replay") == 1
        assert names.count("live_change") == 2
        counters = obs.metrics.snapshot()["counters"]
        assert "repro_live_verdicts_total" in counters
        assert report.service_report["counters"][
            "repro_live_changes_admitted_total"] == 2


class TestOverload:
    def test_shedding_keeps_memory_bounded(self):
        config = parity_live_config(SMALL, queue_capacity=2,
                                    max_fragments_per_tick=8)
        report = replay_scenario(SMALL, live_config=config)
        counters = report.service_report["counters"]
        assert counters.get(SHED_FRAGMENTS_METRIC, 0) > 0
        assert counters.get(GAP_BINS_METRIC, 0) > 0
        # bounded: no queue can exceed capacity x subscribed keys
        assert report.service_report["peak_queue_depth"] <= 2 * 64
        # every item still closes with a verdict, degraded ones as gaps
        assert any(v.reason == "gap" for v in report.verdicts)
        assert report.service_report["active_changes"] == 0

    def test_drop_newest_policy_sheds_arrivals(self):
        config = parity_live_config(SMALL, queue_capacity=1,
                                    drop_policy="drop_newest",
                                    max_fragments_per_tick=4)
        report = replay_scenario(SMALL, live_config=config)
        assert report.service_report["counters"].get(
            SHED_FRAGMENTS_METRIC, 0) > 0


class TestAdmissionControl:
    # Overlapping sessions need an assessment window reaching past the
    # next change's deployment; window 120, change offset 60 -> 120
    # extra bins cover the following change.
    OVERLAP = FleetScenarioSpec(n_services=3, n_servers=12, n_changes=3,
                                window_bins=120, change_offset=60,
                                history_days=1, seed=11)

    def _config(self, **overrides):
        return parity_live_config(
            self.OVERLAP,
            assessment_window_seconds=(120 - 60 + 120) * 60,
            **overrides)

    def test_cap_sheds_whole_changes(self):
        report = replay_scenario(self.OVERLAP,
                                 live_config=self._config(
                                     max_active_changes=1))
        sr = report.service_report
        assert sr["shed_change_ids"]
        assert sr["counters"].get(SHED_CHANGES_METRIC, 0) >= 1
        shed = set(sr["shed_change_ids"])
        emitted = set(v.change_id for v in report.verdicts)
        assert not (shed & emitted)

    def test_uncapped_assesses_everything(self):
        report = replay_scenario(self.OVERLAP, live_config=self._config())
        assert not report.service_report["shed_change_ids"]
        assert len(set(v.change_id for v in report.verdicts)) == 3


class TestDeadlineClose:
    """``close_session`` flushes every unfinished tracker in one pooled
    pass, then settles the open trackers in session order.  The expected
    documents were recorded at commit 0f4e488, where each tracker was
    flushed by its own ``IncrementalDetector.flush()``."""

    OFFSET, WINDOW, CHUNK = 60, 113, 7
    START = 1000 * MINUTE
    #: host -> (step at bin, step size); h4 loses a fragment instead.
    STEPS = {"h1": (62, 6.0), "h2": (98, 6.0), "h3": (0, 0.0),
             "h4": (70, 5.0), "h5": (97, -5.0)}
    NO_CONTROL = ["no control group available; other factors were not "
                  "excluded"]
    #: (entity, reason, verdict, declaration_bin, emitted at bin, direction)
    EXPECTED = [
        ("h1", "declared", "caused_by_change", 75, 82, 1),
        # -- everything below leaves in the deadline close --
        ("h2", "declared", "caused_by_change", 111, 113, 1),
        ("h3", "deadline", "no_change", None, 113, 0),
        ("h4", "gap", "no_change", None, 113, 0),
        ("h5", "declared", "caused_by_change", 110, 113, -1),
    ]

    def test_pooled_flush_settles_like_the_per_tracker_flush(self):
        config = LiveConfig(
            score_chunk_bins=self.CHUNK, history_days=0,
            baseline_bins=self.OFFSET,
            assessment_window_seconds=(self.WINDOW - self.OFFSET) * MINUTE)
        bus = VerdictBus()
        assessor = LiveAssessor(config, bus)
        change = SoftwareChange(
            "chg-close", ChangeKind.SOFTWARE_UPGRADE, "svc",
            tuple(self.STEPS), at_time=self.START + self.OFFSET * MINUTE)
        session = ChangeSession(change, None, 0.0,
                                self.START + self.WINDOW * MINUTE,
                                IngestQueues(config.queue_capacity))
        rng = np.random.default_rng(17)
        series = {}
        for host, (at, step) in self.STEPS.items():
            x = 20.0 + rng.normal(0, 0.4, size=self.WINDOW)
            if step:
                x[at:] += step
            key = KpiKey("server", host, "cpu")
            series[key] = x
            session.trackers[key] = KpiTracker(
                key, self.OFFSET, self.START, config, arena=assessor.arena)
        for key, x in series.items():          # admission backfill
            assessor.on_fragment(
                session, key, TimeSeries(self.START, MINUTE, x[:self.OFFSET]),
                change.at_time)
        for bin_ in range(self.OFFSET, self.WINDOW):
            now = self.START + (bin_ + 1) * MINUTE
            for key, x in series.items():
                if key.entity == "h4" and bin_ == 75:
                    continue                   # shed: h4 degrades at 76
                assessor.on_fragment(
                    session, key,
                    TimeSeries(self.START + bin_ * MINUTE, MINUTE,
                               x[bin_:bin_ + 1]), now)
            assessor.pool_score([session], now)
        assert [v.entity for v in bus.verdicts] == ["h1"]
        calls = assessor.pool.batches
        assessor.close_session(session, now)
        assert [v.as_dict() for v in bus.verdicts] == [
            dict(change_id="chg-close", entity_type="server", entity=entity,
                 metric="cpu", verdict=verdict, reason=reason,
                 emitted_at=self.START + at * MINUTE, declaration_bin=index,
                 did_estimate=None, control=None, direction=direction,
                 notes=self.NO_CONTROL if reason == "declared" else [])
            for entity, reason, verdict, index, at, direction
            in self.EXPECTED]
        assert not session.open_trackers() and session.pending == []
        # h2, h3, h5 had 4 unscored bins each: one stacked call for all.
        assert assessor.pool.batches == calls + 1
