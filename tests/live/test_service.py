"""End-to-end behaviour of the live service: replay, overload, caps."""

import dataclasses

import numpy as np
import pytest

from repro.changes.change import SoftwareChange
from repro.changes.log import CONCURRENCY_GUARD_SECONDS, ChangeLog
from repro.engine.fleet import FleetScenarioSpec, SyntheticFleetSource
from repro.engine.planner import ENTITY_METRICS
from repro.exceptions import ParameterError
from repro.faults import preset_plan
from repro.live import (LiveConfig, VerdictBus, fleet_kpi_keys,
                        parity_live_config, replay_scenario)
from repro.live.assessor import (DUPLICATE_FRAGMENTS_METRIC, GAP_BINS_METRIC,
                                 ChangeSession, LiveAssessor)
from repro.live.pool import POOLED_BATCHES_METRIC
from repro.live.queues import (FRAGMENTS_METRIC, SHED_FRAGMENTS_METRIC,
                               IngestQueues)
from repro.live.scheduler import TICK_STAGE_SECONDS_METRIC
from repro.live.service import LiveAssessmentService
from repro.live.watcher import SHED_CHANGES_METRIC
from repro.obs.context import ObsContext
from repro.telemetry.kpi import KpiKey
from repro.telemetry.store import Block, MetricStore
from repro.telemetry.timeseries import MINUTE, TimeSeries
from repro.types import ChangeKind

from .oracle import detector_state


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
                                IngestQueues(config.queue_capacity), config)
        rng = np.random.default_rng(17)
        series = {}
        for host, (at, step) in self.STEPS.items():
            x = 20.0 + rng.normal(0, 0.4, size=self.WINDOW)
            if step:
                x[at:] += step
            key = KpiKey("server", host, "cpu")
            series[key] = x
            session.add_trackers([(key, self.OFFSET, self.START)])
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
        batches = assessor.pool.metrics.counter(POOLED_BATCHES_METRIC)
        calls = batches.value()
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
        assert batches.value() == calls + 1


class TestIngestPath:
    """One ingest path: a tick's block reaches a session's queues as one
    batch, and both assessor entries run the same healing step."""

    def _counted(self, monkeypatch, **replay_kwargs):
        """Replay SMALL; ``(offer calls, offer_batch arguments, [(subscriptions,
        queues that got an offer_batch)] per block append, fragments
        counter)``."""
        offers, batches, per_append = [], [], []
        offer, offer_batch = IngestQueues.offer, IngestQueues.offer_batch
        append_batch = MetricStore.append_batch

        def counted_offer(self, key, fragment):
            offers.append(self)
            return offer(self, key, fragment)

        def counted_offer_batch(self, items):
            batches.append((self, items))
            return offer_batch(self, items)

        def counted_append_batch(self, keys, start_time, block):
            subscriptions, before = self.subscription_count(), len(batches)
            append_batch(self, keys, start_time, block)
            per_append.append((subscriptions, batches[before:]))

        monkeypatch.setattr(IngestQueues, "offer", counted_offer)
        monkeypatch.setattr(IngestQueues, "offer_batch", counted_offer_batch)
        monkeypatch.setattr(MetricStore, "append_batch", counted_append_batch)
        report = replay_scenario(SMALL, **replay_kwargs)
        return (len(offers), batches, per_append,
                report.service_report["counters"][FRAGMENTS_METRIC])

    def test_block_is_one_offer_batch_per_subscription_per_tick(
            self, monkeypatch):
        offers, batches, per_append, fragments = self._counted(monkeypatch)
        assert offers == 0 and batches
        assert len(per_append) == SMALL.n_changes * SMALL.window_bins
        for subscriptions, served in per_append:
            assert len(served) == subscriptions
            assert len({id(queues) for queues, _ in served}) == subscriptions
        # each call carries one Block: the tick's rows of the session's
        # subscribed keys, one key tuple per session for the whole run
        keys_of = {}
        for queues, block in batches:
            assert type(block) is Block and block.rows.shape == (len(block), 1)
            assert keys_of.setdefault(id(queues), block.keys) is block.keys
        assert sum(len(block) for _, block in batches) == fragments
        # A fault-wrapped store delivers per fragment on purpose (every
        # push rolls its own fault) — same fragments, no batch calls.
        offers, batches, _, faulty_fragments = self._counted(
            monkeypatch, fault_plan=preset_plan("none"))
        assert not batches
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
                                IngestQueues(config.queue_capacity), config)
        session.add_trackers([(KpiKey("server", host, "cpu"), 60, self.START)
                              for host in "abc"])
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

        assert [batched_session.detector.length(t.row) for t in
                batched_session.trackers.values()] == [75, 64, 100]
        assert batched_session.trackers[b].degraded is True
        for key, tracker in batched_session.trackers.items():
            twin = single_session.trackers[key]
            assert (detector_state(batched_session.detector, tracker.row)
                    == detector_state(single_session.detector, twin.row))
            assert (tracker.degraded, tracker.done) == \
                (twin.degraded, twin.done)
        assert batched_session.expected_next == single_session.expected_next
        assert batched_session.delivered_through == \
            single_session.delivered_through
        counters = batched.metrics.snapshot()["counters"]
        assert counters == single.metrics.snapshot()["counters"]
        assert set(counters) == {DUPLICATE_FRAGMENTS_METRIC, GAP_BINS_METRIC}

    def test_block_entry_equals_fragment_by_fragment(self):
        """A block that continues every key's watermark is delivered as
        it stands; any other block — a key never delivered, a skipped
        bin, a redelivery, bins past the deadline, a parked attribution
        — heals row by row; either way the state is the per-fragment
        entry's."""
        rng = np.random.default_rng(31)
        x = 20.0 + rng.normal(0, 0.4, size=(3, 110))
        keys = tuple(KpiKey("server", host, "cpu") for host in "abc")

        def block(lo, hi, rows=(0, 1, 2)):
            return Block(self.START + lo * MINUTE, MINUTE,
                         tuple(keys[r] for r in rows), x[list(rows), lo:hi])

        blocks = [block(0, 60),             # first delivery: heals
                  block(60, 62),            # continues: as it stands
                  block(62, 63, (0, 2)),    # b skips bin 62 ...
                  block(63, 66),            # ... so this block heals
                  block(64, 66, (0,)),      # a redelivered
                  block(66, 98, (0, 2)),
                  block(98, 105, (0, 2))]   # straddles the deadline
        batched, batched_session = self._session()
        single, single_session = self._session()
        healed, heal = [], batched._heal

        def counted_heal(session, key, fragment, now):
            healed.append(key)
            heal(session, key, fragment, now)

        batched._heal = counted_heal
        continued = []
        for item in blocks:
            before = len(healed)
            batched.on_fragment_batch(batched_session, item, self.DEADLINE)
            continued.append(len(healed) == before)
            for key, fragment in item:
                single.on_fragment(single_session, key, fragment,
                                   self.DEADLINE)
        assert continued == [False, True, True, False, False, True, False]
        assert [batched_session.detector.length(t.row) for t in
                batched_session.trackers.values()] == [100, 62, 100]
        for key, tracker in batched_session.trackers.items():
            twin = single_session.trackers[key]
            assert (detector_state(batched_session.detector, tracker.row)
                    == detector_state(single_session.detector, twin.row))
            assert (tracker.degraded, tracker.done) == \
                (twin.degraded, twin.done)
        assert batched_session.expected_next == single_session.expected_next
        assert batched_session.delivered_through == \
            single_session.delivered_through
        assert batched.metrics.snapshot()["counters"] == \
            single.metrics.snapshot()["counters"]
        # a parked attribution retries as rows land: heal in row order
        batched_session.pending.append(batched_session.trackers[keys[0]])
        del healed[:]
        batched.on_fragment_batch(batched_session, block(105, 106, (0, 2)),
                                  self.DEADLINE)
        assert healed == [keys[0], keys[2]]

    def test_empty_fragment_at_the_watermark_is_a_duplicate(self):
        """The in-order case is tested first; an empty fragment that
        starts at the watermark still falls through to the duplicate
        branch, as it always did."""
        assessor, session = self._session()
        key = KpiKey("server", "a", "cpu")
        assessor.on_fragment(session, key, TimeSeries(
            self.START, MINUTE, np.full(60, 20.0)), self.DEADLINE)
        row = session.trackers[key].row
        before = detector_state(session.detector, row)
        assessor.on_fragment(session, key, TimeSeries(
            self.START + 60 * MINUTE, MINUTE, []), self.DEADLINE)
        assert detector_state(session.detector, row) == before
        assert session.expected_next[key] == self.START + 60 * MINUTE
        counters = assessor.metrics.snapshot()["counters"]
        assert counters[DUPLICATE_FRAGMENTS_METRIC]["values"] == [
            {"labels": {"kind": "duplicate"}, "value": 1}]


class TestPushPathShape:
    """A block append reaches a batch subscriber as one :class:`Block` of
    the rows the store validated whole, and a per-row subscriber as one
    fragment per row of it — never a second validated copy."""

    KEYS = tuple(KpiKey("server", host, "cpu") for host in "abc")

    def _pushed(self, block):
        store = MetricStore()
        blocks, pushed = [], []
        store.subscribe(self.KEYS[:2], callback=None,
                        batch_callback=blocks.append)
        store.subscribe(self.KEYS[1:],
                        callback=lambda key, f: pushed.append((key, f)))
        store.append_batch(self.KEYS, 5 * MINUTE, block)
        return blocks, pushed

    @pytest.mark.parametrize("layout", ["c", "column_slice", "fortran",
                                        "float32", "one_bin", "list"])
    def test_fragment_is_a_validated_row(self, layout):
        wide = np.arange(30.0).reshape(3, 10) / 7.0
        block = {"c": wide[:, :4].copy(),
                 "column_slice": wide[:, 3:7],
                 "fortran": np.asfortranarray(wide[:, :4]),
                 "float32": wide[:, :4].astype(np.float32),
                 "one_bin": wide[:, 2:3],
                 "list": wide[:, :4].tolist()}[layout]
        rows = np.asarray(block, dtype=np.float64)
        blocks, pushed = self._pushed(block)
        (batch,) = blocks
        assert type(batch) is Block and len(batch) == 2
        assert batch.keys == self.KEYS[:2]
        assert (batch.start, batch.bin_seconds, batch.end) == \
            (5 * MINUTE, MINUTE, (5 + rows.shape[1]) * MINUTE)
        assert type(batch.rows) is np.ndarray
        assert batch.rows.dtype == np.float64
        assert batch.rows.flags.c_contiguous
        np.testing.assert_array_equal(batch.rows, rows[:2])
        assert [key for key, _ in pushed] == list(self.KEYS[1:])
        for key, fragment in list(batch) + pushed:
            values = fragment.values
            assert (fragment.start, fragment.bin_seconds) == \
                (5 * MINUTE, MINUTE)
            assert type(values) is np.ndarray and values.ndim == 1
            assert values.dtype == np.float64
            assert values.flags.c_contiguous
            assert np.isfinite(values).all()
            np.testing.assert_array_equal(
                values, rows[self.KEYS.index(key)])

    def test_nan_block_raises_before_any_push_and_changes_nothing(self):
        store = MetricStore()
        seen = []
        store.subscribe(self.KEYS, callback=seen.append,
                        batch_callback=seen.append)
        store.append_batch(self.KEYS[:2], 0, np.ones((2, 3)))
        seen.clear()
        before = (store.appended_fragments,
                  [store.series(k).values.tolist() for k in self.KEYS[:2]])
        block = np.ones((3, 2))
        block[2, 1] = np.nan
        with pytest.raises(ParameterError):
            store.append_batch(self.KEYS, 3 * MINUTE, block)
        assert seen == []
        assert self.KEYS[2] not in store
        assert (store.appended_fragments,
                [store.series(k).values.tolist()
                 for k in self.KEYS[:2]]) == before

    def test_replay_builds_no_validated_series_per_pushed_row(
            self, monkeypatch):
        """On a clean replay every block reaches its session whole:
        nothing validates a series inside the append, and no block is
        ever walked row by row (store fan-out, queue or assessor)."""
        validated, walked, pushed, in_append = [0], [0], [0], [False]
        post_init, walk = TimeSeries.__post_init__, Block.__iter__
        append_batch, offer_batch = (MetricStore.append_batch,
                                     IngestQueues.offer_batch)

        def counted_post_init(self):
            validated[0] += in_append[0]
            post_init(self)

        def counted_walk(self):
            walked[0] += 1
            return walk(self)

        def counted_append_batch(self, keys, start_time, block):
            in_append[0] = True
            try:
                append_batch(self, keys, start_time, block)
            finally:
                in_append[0] = False

        def counted_offer_batch(self, items):
            pushed[0] += len(items)
            return offer_batch(self, items)

        monkeypatch.setattr(TimeSeries, "__post_init__", counted_post_init)
        monkeypatch.setattr(Block, "__iter__", counted_walk)
        monkeypatch.setattr(MetricStore, "append_batch",
                            counted_append_batch)
        monkeypatch.setattr(IngestQueues, "offer_batch", counted_offer_batch)
        replay_scenario(SMALL)
        assert pushed[0] > 0
        assert validated[0] == 0
        assert walked[0] == 0


class TestSilentKeyWatermark:
    def test_lag_grows_for_a_key_that_never_reports(self):
        """A subscribed KPI that never reports still holds the session's
        watermark back: admission seeds it, so the lag grows by one bin
        a tick instead of reading 0."""
        source = SyntheticFleetSource(SMALL)
        change = source.changes[0]
        silent = KpiKey("server", change.hostnames[0],
                        ENTITY_METRICS["server"][0])
        keys = tuple(key for key in fleet_kpi_keys(source) if key != silent)
        rows = np.array([source.observed_series(*key) for key in keys])
        log = ChangeLog()
        log.record(change)
        store = MetricStore(MINUTE)
        service = LiveAssessmentService(
            store, log, source.fleet, config=parity_live_config(SMALL),
            history_provider=source.history)
        lags = []
        for b in range(SMALL.lead_bins, change.at_time // MINUTE + 5):
            store.append_batch(keys, b * MINUTE, rows[:, b:b + 1])
            service.on_tick((b + 1) * MINUTE)
            if service.watcher.sessions:
                lags.append(service.scheduler.watermark_lag((b + 1) * MINUTE))
        assert silent in service.watcher.sessions[change.change_id].trackers
        assert lags == [i * MINUTE for i in range(6)]


class TestTickStages:
    """Every part of a tick is charged to a stage, so the stage sum
    explains the tick; ``checkpoint`` only exists with a checkpointer."""

    @staticmethod
    def _stages(**replay_kwargs):
        obs = ObsContext()
        replay_scenario(SMALL, obs=obs, **replay_kwargs)
        counter = obs.metrics.get(TICK_STAGE_SECONDS_METRIC)
        return {dict(labels)["stage"]: value
                for labels, value in counter.values.items()}

    def test_gauges_stage_without_a_checkpointer(self):
        stages = self._stages()
        assert set(stages) == {"stream", "poll", "drain", "pool", "close",
                               "gauges"}
        assert all(seconds > 0 for seconds in stages.values())

    def test_checkpoint_stage_with_a_checkpointer(self, tmp_path):
        stages = self._stages(checkpoint_path=str(tmp_path / "live.ckpt"),
                              checkpoint_every=10)
        assert set(stages) == {"stream", "poll", "drain", "pool", "close",
                               "gauges", "checkpoint"}
        assert stages["checkpoint"] > 0


class TestWatcherCursor:
    """``poll`` walks the log from a cursor and rescans it from the start
    when the log grows, so a change recorded late is not skipped."""

    def test_late_recorded_due_change_is_admitted_at_the_next_poll(self):
        source = SyntheticFleetSource(SMALL)
        template = source.changes[0]
        log = ChangeLog()
        service = LiveAssessmentService(MetricStore(MINUTE), log,
                                        source.fleet,
                                        config=parity_live_config(SMALL))
        watcher, now = service.watcher, template.at_time

        def record(name, at_time):
            return log.record(dataclasses.replace(
                template, change_id=name, at_time=at_time))

        def poll(at):
            return [s.change_id for s in watcher.poll(at)]

        # One service: the log keeps its changes a guard apart.
        gap = CONCURRENCY_GUARD_SECONDS
        assert poll(now) == []
        record("due", now - MINUTE)
        record("future", now + gap)
        assert poll(now + MINUTE) == ["due"]
        assert poll(now + 2 * MINUTE) == []
        # Recorded after polling began, due before the changes already
        # walked past: the growth rescan admits it, and only it.
        record("late", now - MINUTE - gap)
        assert poll(now + 2 * MINUTE) == ["late"]
        assert poll(now + gap) == ["future"]
        assert poll(now + 2 * gap) == []
        assert sorted(watcher.sessions) == ["due", "future", "late"]
