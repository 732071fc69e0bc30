"""End-to-end behaviour of the live service: replay, overload, caps."""

import numpy as np
import pytest

from repro.changes.change import SoftwareChange
from repro.engine.fleet import FleetScenarioSpec
from repro.faults import preset_plan
from repro.live import (LiveConfig, VerdictBus, parity_live_config,
                        replay_scenario)
from repro.live.assessor import (DUPLICATE_FRAGMENTS_METRIC, GAP_BINS_METRIC,
                                 ChangeSession, KpiTracker, LiveAssessor)
from repro.live.queues import (FRAGMENTS_METRIC, SHED_FRAGMENTS_METRIC,
                               IngestQueues)
from repro.live.watcher import SHED_CHANGES_METRIC
from repro.obs.context import ObsContext
from repro.telemetry.kpi import KpiKey
from repro.telemetry.store import MetricStore
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
                key, self.OFFSET, self.START, config)
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


class TestIngestPath:
    """One ingest path: a tick's block reaches a session's queues as one
    batch, and both assessor entries run the same healing step."""

    def _counted(self, monkeypatch, **replay_kwargs):
        """Replay SMALL; ``(offer calls, offer_batch calls, [(subscriptions,
        queues that got an offer_batch)] per block append, fragments
        counter)``."""
        offers, batches, per_append = [], [], []
        offer, offer_batch = IngestQueues.offer, IngestQueues.offer_batch
        append_batch = MetricStore.append_batch

        def counted_offer(self, key, fragment):
            offers.append(self)
            return offer(self, key, fragment)

        def counted_offer_batch(self, items):
            batches.append(self)
            return offer_batch(self, items)

        def counted_append_batch(self, keys, start_time, block):
            subscriptions, before = self.subscription_count(), len(batches)
            append_batch(self, keys, start_time, block)
            per_append.append((subscriptions, batches[before:]))

        monkeypatch.setattr(IngestQueues, "offer", counted_offer)
        monkeypatch.setattr(IngestQueues, "offer_batch", counted_offer_batch)
        monkeypatch.setattr(MetricStore, "append_batch", counted_append_batch)
        report = replay_scenario(SMALL, **replay_kwargs)
        return (len(offers), len(batches), per_append,
                report.service_report["counters"][FRAGMENTS_METRIC])

    def test_block_is_one_offer_batch_per_subscription_per_tick(
            self, monkeypatch):
        offers, batches, per_append, fragments = self._counted(monkeypatch)
        assert offers == 0 and batches > 0
        assert len(per_append) == SMALL.n_changes * SMALL.window_bins
        for subscriptions, served in per_append:
            assert len(served) == subscriptions
            assert len(set(map(id, served))) == subscriptions
        # A fault-wrapped store delivers per fragment on purpose (every
        # push rolls its own fault) — same fragments, no batch calls.
        offers, batches, _, faulty_fragments = self._counted(
            monkeypatch, fault_plan=preset_plan("none"))
        assert batches == 0
        assert offers == faulty_fragments == fragments

    START, DEADLINE = 1000 * MINUTE, 1100 * MINUTE

    def _session(self):
        config = LiveConfig(history_days=0, baseline_bins=60,
                            assessment_window_seconds=40 * MINUTE)
        assessor = LiveAssessor(config, VerdictBus())
        change = SoftwareChange("chg-heal", ChangeKind.SOFTWARE_UPGRADE,
                                "svc", ("a", "b", "c"),
                                at_time=self.START + 60 * MINUTE)
        session = ChangeSession(change, None, 0.0, self.DEADLINE,
                                IngestQueues(config.queue_capacity))
        for host in ("a", "b", "c"):
            key = KpiKey("server", host, "cpu")
            session.trackers[key] = KpiTracker(key, 60, self.START, config)
        return assessor, session

    def test_batch_entry_equals_fragment_by_fragment(self):
        rng = np.random.default_rng(29)
        x = 20.0 + rng.normal(0, 0.4, size=(3, 110))
        a, b, c = (KpiKey("server", host, "cpu") for host in "abc")

        def piece(row, lo, hi):
            return TimeSeries(self.START + lo * MINUTE, MINUTE, x[row, lo:hi])

        fragments = [(a, piece(0, 0, 60)), (b, piece(1, 0, 60)),
                     (c, piece(2, 0, 60)),
                     (a, piece(0, 60, 70)),
                     (a, piece(0, 60, 70)),       # exact redelivery
                     (a, piece(0, 68, 75)),       # overlaps 68-69
                     (b, piece(1, 60, 64)),
                     (b, piece(1, 66, 70)),       # bins 64-65 never came
                     (b, piece(1, 70, 72)),       # degraded: not extended
                     (c, piece(2, 60, 98)),
                     (c, piece(2, 98, 105)),      # straddles the deadline
                     (c, piece(2, 100, 104))]     # wholly past it
        batched, batched_session = self._session()
        batched.on_fragment_batch(batched_session, fragments, self.DEADLINE)
        single, single_session = self._session()
        for key, fragment in fragments:
            single.on_fragment(single_session, key, fragment, self.DEADLINE)

        assert [len(t.detector) for t in
                batched_session.trackers.values()] == [75, 64, 100]
        assert batched_session.trackers[b].degraded is True
        for key, tracker in batched_session.trackers.items():
            twin = single_session.trackers[key]
            assert tracker.detector.state_dict() == twin.detector.state_dict()
            assert (tracker.degraded, tracker.done) == \
                (twin.degraded, twin.done)
        assert batched_session.expected_next == single_session.expected_next
        assert batched_session.delivered_through == \
            single_session.delivered_through
        counters = batched.metrics.snapshot()["counters"]
        assert counters == single.metrics.snapshot()["counters"]
        assert set(counters) == {DUPLICATE_FRAGMENTS_METRIC, GAP_BINS_METRIC}
