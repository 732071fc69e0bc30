"""Checkpoint, kill, resume: the resumed verdicts are bit-identical.

The contract: a replay killed mid-stream and resumed from its last
checkpoint must publish exactly the verdict bytes an uninterrupted run
would — same verdict values, same declaration bins, same notes, same
emission instants — with or without a fault plan active.
"""

import base64
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.changes.change import SoftwareChange
from repro.engine import reset_shared_cache
from repro.engine.fleet import FleetScenarioSpec
from repro.exceptions import CheckpointError
from repro.faults import DELAY, preset_plan
from repro.live import LiveConfig, parity_live_config, replay_scenario
from repro.live import detector as detector_module
from repro.live.assessor import ChangeSession
from repro.live.checkpoint import (CHECKPOINT_VERSION, Checkpointer,
                                   _snapshot_session, load_checkpoint,
                                   restore_service, write_checkpoint)
from repro.live.queues import IngestQueues
from repro.telemetry.kpi import KpiKey
from repro.telemetry.timeseries import MINUTE
from repro.types import ChangeKind

from .oracle import alone, detector_state
from .test_golden_digest import CLEAN_SHA
from .test_golden_digest import SPEC as GOLDEN_SPEC
from .test_golden_digest import verdicts_sha

SPEC = FleetScenarioSpec(n_services=2, n_servers=8, n_changes=2,
                         window_bins=120, change_offset=60,
                         history_days=1, seed=5)
#: kill instant: mid-second-change (admitted ~tick 181, closes at 240),
#: so the checkpoint carries live detector and queue state.
KILL_AT = 200


@pytest.fixture(autouse=True)
def _fresh_baseline_cache():
    reset_shared_cache()
    yield
    reset_shared_cache()


def verdict_bytes(report):
    return [json.dumps(v.as_dict(), sort_keys=True)
            for v in report.verdicts]


class TestKillAndResume:
    def test_clean_resume_is_bit_identical(self, tmp_path):
        path = str(tmp_path / "live.ckpt")
        baseline = replay_scenario(SPEC)
        killed = replay_scenario(SPEC, checkpoint_path=path,
                                 checkpoint_every=10,
                                 kill_after_ticks=KILL_AT)
        assert killed.killed is True
        assert killed.checkpoints_written >= 1
        assert len(killed.verdicts) < len(baseline.verdicts)
        assert killed.service_report["active_changes"] > 0
        reset_shared_cache()
        resumed = replay_scenario(SPEC, resume_from=path,
                                  check_offline=True)
        assert resumed.resumed is True
        assert verdict_bytes(resumed) == verdict_bytes(baseline)
        assert resumed.parity_ok is True

    def test_resume_under_faults_is_bit_identical(self, tmp_path):
        path = str(tmp_path / "chaos.ckpt")
        plan = preset_plan("drop-delay-dup", seed=11)
        grace = max(rule.delay_bins for rule in plan.rules
                    if rule.kind == DELAY) * MINUTE
        config = parity_live_config(SPEC, repair_from_store=True,
                                    close_grace_seconds=grace)
        baseline = replay_scenario(SPEC, live_config=config,
                                   fault_plan=plan)
        killed = replay_scenario(SPEC, live_config=config, fault_plan=plan,
                                 checkpoint_path=path, checkpoint_every=10,
                                 kill_after_ticks=KILL_AT)
        assert killed.killed is True
        reset_shared_cache()
        resumed = replay_scenario(SPEC, live_config=config, fault_plan=plan,
                                  resume_from=path)
        assert verdict_bytes(resumed) == verdict_bytes(baseline)

    def test_killed_run_skips_shutdown_and_parity(self, tmp_path):
        path = str(tmp_path / "live.ckpt")
        killed = replay_scenario(SPEC, checkpoint_path=path,
                                 checkpoint_every=10,
                                 kill_after_ticks=KILL_AT,
                                 check_offline=True)
        assert killed.killed is True
        assert killed.parity is None      # a dead run asserts nothing
        assert killed.service_report["active_changes"] > 0


def _chaos_options():
    plan = preset_plan("drop-delay-dup", seed=11)
    grace = max(rule.delay_bins for rule in plan.rules
                if rule.kind == DELAY) * MINUTE
    return dict(fault_plan=plan, live_config=parity_live_config(
        GOLDEN_SPEC, repair_from_store=True, close_grace_seconds=grace))


class TestKillPointSweep:
    """Kill the golden scenario at *every* tick and resume.

    At ``flush_bins=5`` the scenario is 72 ticks; each run is killed
    after tick 1 … 71 and resumed from its last checkpoint, or cold when
    the kill came before the first one.  Per kill point:

    (a) the resumed report's verdict bytes are the uninterrupted run's
        (and, clean, its digest is the golden ``CLEAN_SHA[5]``);
    (b) the killed run's sink lines are a prefix of the uninterrupted
        sink stream;
    (c) killed + resumed sink lines, later repeats of a line dropped, are
        the uninterrupted stream in order — and the repeats are exactly
        the lines the killed run emitted after its last checkpoint;
    (d) so at cadence 1 nothing is emitted twice.
    """

    FLUSH_BINS = 5
    TICKS = 72

    @pytest.mark.parametrize("cadence, chaos", [(1, False), (7, False),
                                                (7, True)],
                             ids=["clean-every-1", "clean-every-7",
                                  "chaos-every-7"])
    def test_every_kill_point_resumes_identically(self, tmp_path, cadence,
                                                  chaos):
        options = _chaos_options() if chaos else {}
        baseline, stream, _ = self._run(options)
        assert baseline.ticks == self.TICKS
        if not chaos:
            assert verdicts_sha(baseline) == CLEAN_SHA[self.FLUSH_BINS]
        expected = verdict_bytes(baseline)

        failures = []
        for kill in range(1, self.TICKS):
            path = str(tmp_path / ("kill-%d.ckpt" % kill))
            killed, killed_lines, emitted = self._run(
                options, checkpoint_path=path, checkpoint_every=cadence,
                kill_after_ticks=kill)
            last_checkpoint = kill - kill % cadence      # 0: none written
            reset_shared_cache()
            resumed, resumed_lines, _ = self._run(
                options, resume_from=path if last_checkpoint else None)

            merged = list(dict.fromkeys(killed_lines + resumed_lines))
            repeated = len(killed_lines) + len(resumed_lines) - len(merged)
            checks = {
                "killed": killed.killed,
                "a": verdict_bytes(resumed) == expected,
                "a-golden": chaos or (verdicts_sha(resumed)
                                      == CLEAN_SHA[self.FLUSH_BINS]),
                "b": killed_lines == stream[:len(killed_lines)],
                "c": merged == stream,
                "c-window": repeated == (len(killed_lines)
                                         - emitted.get(last_checkpoint, 0)),
                "d": cadence > 1 or repeated == 0,
            }
            failed = sorted(name for name, ok in checks.items() if not ok)
            if failed:
                failures.append((kill, failed))
        assert not failures

    def _run(self, options, **kwargs):
        """One replay; its sink lines and the line count after each tick."""
        lines, emitted = [], {}
        report = replay_scenario(
            GOLDEN_SPEC, flush_bins=self.FLUSH_BINS,
            sink=lambda v: lines.append(json.dumps(v.as_dict(),
                                                   sort_keys=True)),
            tick_callback=lambda tick, now: emitted.__setitem__(
                tick, len(lines)),
            **options, **kwargs)
        return report, lines, emitted


class TestCheckpointFromParentCommit:
    """A checkpoint another commit wrote still resumes here.

    ``fixtures/golden_flush3_budget12_tick30.ckpt`` was written by commit
    d688bff, before KPI keys became tuples and pushed fragments became
    block rows: the golden scenario at ``flush_bins=3`` with a drain
    budget of 12 fragments a tick (so queues carry fragments across
    ticks), checkpointed every 10 ticks and killed at tick 35, inside the
    first change's window.  Its queues hold per-key ``[key3, start,
    values]`` entries and its watermarks the ``expected_next`` /
    ``delivered_through`` lists.  ``UNINTERRUPTED_SHA`` is that commit's
    digest of the same run left uninterrupted.
    """

    FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                           "golden_flush3_budget12_tick30.ckpt")
    UNINTERRUPTED_SHA = (
        "47052b49a0d3b13ab0fd396ac412326d220e64227fc5ebc18672ac952f741037")

    def _config(self):
        return parity_live_config(GOLDEN_SPEC, max_fragments_per_tick=12)

    def test_fixture_is_mid_window_with_queued_fragments(self):
        doc = load_checkpoint(self.FIXTURE)
        assert doc["meta"]["tick"] == 30
        (session,) = doc["sessions"]
        assert session["queues"]["fragments"]
        assert all(len(entry) == 3 and len(entry[0]) == 3
                   for entry in session["queues"]["fragments"])
        assert session["expected_next"] and session["delivered_through"]

    def test_resume_reaches_the_uninterrupted_digest(self):
        uninterrupted = replay_scenario(GOLDEN_SPEC, flush_bins=3,
                                        live_config=self._config())
        assert verdicts_sha(uninterrupted) == self.UNINTERRUPTED_SHA
        reset_shared_cache()
        resumed = replay_scenario(GOLDEN_SPEC, flush_bins=3,
                                  live_config=self._config(),
                                  resume_from=self.FIXTURE)
        assert resumed.resumed is True
        assert verdicts_sha(resumed) == self.UNINTERRUPTED_SHA
        assert verdict_bytes(resumed) == verdict_bytes(uninterrupted)


class TestCheckpointFormat2:
    """This tree's format: float arrays as base64 ``<f8`` strings.

    ``fixtures/golden_flush3_budget12_tick30_v2.ckpt`` is the run
    :class:`TestCheckpointFromParentCommit`'s fixture froze, written in
    format 2: the same records, each array the same float64 bytes, and
    no detector ``norm``.
    """

    FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                           "golden_flush3_budget12_tick30_v2.ckpt")

    def test_fixture_is_version_2_with_string_arrays(self):
        doc = load_checkpoint(self.FIXTURE)
        assert doc["meta"]["version"] == CHECKPOINT_VERSION == 2
        assert doc["meta"]["tick"] == 30
        (session,) = doc["sessions"]
        arrays = ([values for _, _, values in session["queues"]["fragments"]]
                  + [b["values"] for b in session["control_buffers"]]
                  + [t["detector"]["values"] for t in session["trackers"]])
        assert session["queues"]["fragments"] and session["trackers"]
        assert all(isinstance(values, str) for values in arrays)
        assert all("norm" not in t["detector"] for t in session["trackers"])

    def test_resume_reaches_the_uninterrupted_digest(self):
        resumed = replay_scenario(
            GOLDEN_SPEC, flush_bins=3, resume_from=self.FIXTURE,
            live_config=parity_live_config(GOLDEN_SPEC,
                                           max_fragments_per_tick=12))
        assert resumed.resumed is True
        assert verdicts_sha(resumed) == \
            TestCheckpointFromParentCommit.UNINTERRUPTED_SHA

    def test_this_tree_writes_the_fixture_bytes(self, tmp_path):
        path = str(tmp_path / "live.ckpt")
        replay_scenario(GOLDEN_SPEC, flush_bins=3, checkpoint_path=path,
                        checkpoint_every=10, kill_after_ticks=35,
                        live_config=parity_live_config(
                            GOLDEN_SPEC, max_fragments_per_tick=12))
        with open(path, "rb") as written, open(self.FIXTURE, "rb") as fixed:
            assert written.read() == fixed.read()


def _b64(n_bytes):
    return base64.b64encode(bytes(n_bytes)).decode("ascii")


class TestMalformedArrays:
    """Every array site of a format-2 file rejects a damaged column
    with a :class:`CheckpointError` naming the field — never a bare
    ``binascii.Error`` or ``ValueError`` from inside numpy.  Only the
    detector stores a bin count ``n`` to hold its column to; a control
    buffer or queued fragment column must be 1-D.  A well-formed column
    holding a NaN or inf is refused there too, where it enters, so no
    detector pass, DiD panel or queued fragment's series ever sees it."""

    SITES = {
        "detector": (lambda session: session["trackers"][0]["detector"],
                     "values", "'values'"),
        "control-buffer": (lambda session: session["control_buffers"][0],
                           "values", "'control_buffers.values'"),
        "fragment": (lambda session: session["queues"]["fragments"][0], 2,
                     "'queues.fragments'"),
    }

    @pytest.mark.parametrize("site", sorted(SITES))
    @pytest.mark.parametrize("damage", ["invalid-base64", "ragged-bytes",
                                        "wrong-shape", "nan", "inf"])
    def test_damaged_column_raises_checkpoint_error(self, tmp_path, site,
                                                    damage):
        records = [json.loads(line) for line in
                   open(TestCheckpointFormat2.FIXTURE, encoding="utf-8")]
        owner, field, name = self.SITES[site]
        holder = owner(records[-1])
        if damage == "invalid-base64":
            bad = "not base64!"
        elif damage == "ragged-bytes":
            bad = _b64(8 * 3 + 4)
        elif damage in ("nan", "inf"):
            bad = np.frombuffer(base64.b64decode(holder[field]), "<f8").copy()
            bad[bad.size // 2] = float(damage)
        elif site == "detector":
            bad = _b64(8 * (holder["n"] + 1))
        else:
            bad = [[1.0, 2.0]]          # no n to hold it to: not 1-D
        holder[field] = bad
        path = str(tmp_path / "damaged.ckpt")
        write_checkpoint(path, records)
        with pytest.raises(CheckpointError) as raised:
            replay_scenario(GOLDEN_SPEC, flush_bins=3, resume_from=path,
                            live_config=parity_live_config(
                                GOLDEN_SPEC, max_fragments_per_tick=12))
        assert name in str(raised.value)


class TestPreBaselineSnapshot:
    def test_identical_sessions_write_identical_bytes(self, tmp_path,
                                                      monkeypatch):
        """A tracker whose backfill has not reached the change yet has
        no robust stats, so no normalised prefix: what its snapshot
        carries must not depend on uninitialised memory.  The detector's
        allocations are NaN-filled so that reading them would show."""
        empty = np.empty

        def nan_empty(shape, dtype=np.float64):
            out = empty(shape, dtype)
            out.fill(np.nan)
            return out

        monkeypatch.setattr(detector_module, "np", SimpleNamespace(
            **dict(vars(np), empty=nan_empty)))
        config = LiveConfig(history_days=0, baseline_bins=60)
        change = SoftwareChange("chg-lag", ChangeKind.SOFTWARE_UPGRADE,
                                "svc", ("a",), at_time=60 * MINUTE)
        key = KpiKey("server", "a", "cpu")
        written = []
        for name in ("first", "second"):
            session = ChangeSession(change, None, 0.0, 120 * MINUTE,
                                    IngestQueues(config.queue_capacity),
                                    config)
            row = session.add_trackers([(key, 60, 0)])[0].row
            session.detector.extend(np.arange(30.0), row)  # half a baseline
            assert session.detector.state_dict(row)["stats"] is None
            path = tmp_path / (name + ".ckpt")
            write_checkpoint(str(path), [_snapshot_session(session)])
            written.append(path.read_bytes())
        assert written[0] == written[1]
        assert b"NaN" not in written[0]


class TestCheckpointFile:
    def test_checkpoint_is_versioned_jsonl(self, tmp_path):
        path = str(tmp_path / "live.ckpt")
        report = replay_scenario(SPEC, checkpoint_path=path,
                                 checkpoint_every=10)
        # 240 streamed bins at flush_bins=1 -> 240 ticks, one write
        # every 10 ticks.
        assert report.ticks == 240
        assert report.checkpoints_written == 24
        records = [json.loads(line)
                   for line in open(path, encoding="utf-8")]
        meta = records[0]
        assert meta["record"] == "meta"
        assert meta["version"] == CHECKPOINT_VERSION
        assert meta["extra"]["flush_bins"] == 1
        assert meta["extra"]["offset"] == 240
        kinds = {record["record"] for record in records}
        assert {"meta", "watcher", "scheduler", "service",
                "bus"} <= kinds

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_load_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        path.write_text('{"record": "meta", "version": 1}\nnot json\n')
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_load_without_meta_raises(self, tmp_path):
        path = tmp_path / "headless.ckpt"
        path.write_text('{"record": "watcher", "seen": []}\n')
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_load_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_text('{"record": "meta", "version": 99}\n')
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


class TestResumeValidation:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        path = str(tmp_path / "live.ckpt")
        replay_scenario(SPEC, checkpoint_path=path, checkpoint_every=10,
                        kill_after_ticks=KILL_AT)
        reset_shared_cache()
        return path

    def test_resume_with_different_spec_raises(self, checkpoint):
        other = FleetScenarioSpec(n_services=2, n_servers=8, n_changes=2,
                                  window_bins=120, change_offset=60,
                                  history_days=1, seed=6)
        with pytest.raises(CheckpointError):
            replay_scenario(other, resume_from=checkpoint)

    def test_resume_with_different_flush_bins_raises(self, checkpoint):
        with pytest.raises(CheckpointError):
            replay_scenario(SPEC, flush_bins=2, resume_from=checkpoint)

    def test_resume_with_different_fault_plan_raises(self, checkpoint):
        with pytest.raises(CheckpointError):
            replay_scenario(SPEC, fault_plan=preset_plan("reorder"),
                            resume_from=checkpoint)

    def test_resume_from_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            replay_scenario(SPEC,
                            resume_from=str(tmp_path / "absent.ckpt"))


class TestGuards:
    def test_restore_needs_a_fresh_service(self):
        stale = SimpleNamespace(
            watcher=SimpleNamespace(sessions={"chg-0000": object()}),
            closed=[])
        with pytest.raises(CheckpointError):
            restore_service(stale, {"sessions": []})

    def test_checkpointer_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(CheckpointError):
            Checkpointer(str(tmp_path / "x.ckpt"), every_ticks=0)

    def test_unattached_checkpointer_is_a_noop(self, tmp_path):
        checkpointer = Checkpointer(str(tmp_path / "x.ckpt"),
                                    every_ticks=5)
        assert checkpointer.on_tick(0, 5) is False
        assert checkpointer.written == 0


class TestPooledScoringResume:
    """PR 5's kill-and-resume contract must survive pooled scoring:
    checkpoints written by any earlier build still load, and a replay
    resumed mid-stream publishes the uninterrupted run's verdict bytes."""

    def test_pooled_kill_and_resume_is_bit_identical(self, tmp_path):
        """Chunked pool passes: at the kill tick every tracker holds
        bins it has buffered but not yet scored, and the resumed run
        must cross the chunk threshold on the same tick."""
        config = parity_live_config(SPEC, score_chunk_bins=7)
        baseline = replay_scenario(SPEC, live_config=config)
        path = str(tmp_path / "pooled.ckpt")
        killed = replay_scenario(SPEC, live_config=config,
                                 checkpoint_path=path, checkpoint_every=10,
                                 kill_after_ticks=KILL_AT)
        assert killed.killed is True
        reset_shared_cache()
        resumed = replay_scenario(SPEC, live_config=config,
                                  resume_from=path, check_offline=True)
        assert resumed.resumed is True
        assert verdict_bytes(resumed) == verdict_bytes(baseline)
        assert resumed.parity_ok is True

    @pytest.mark.parametrize("deferred", [True, False, None])
    def test_inline_scoring_checkpoint_resumes_identically(self, tmp_path,
                                                           deferred):
        """The scoring mode is not part of the wire format.  PRs 13-17
        wrote ``"deferred": true`` into every detector record, PR <= 12
        trackers (which scored inside ``extend``) ``false``, older files
        and this build no key at all: each resumes as a session's tracker
        whose scan cursor and score frontier are where the pool picks
        up, and publishes the uninterrupted run's bytes in order."""
        baseline = replay_scenario(SPEC)
        path = str(tmp_path / "inline.ckpt")
        killed = replay_scenario(SPEC, checkpoint_path=path,
                                 checkpoint_every=10,
                                 kill_after_ticks=KILL_AT)
        assert killed.killed is True
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        rewritten = 0
        for record in records:
            for tracker in record.get("trackers", ()):
                assert "deferred" not in tracker["detector"]
                if deferred is not None:
                    tracker["detector"]["deferred"] = deferred
                rewritten += 1
        assert rewritten > 0
        write_checkpoint(path, records)
        reset_shared_cache()
        resumed = replay_scenario(SPEC, resume_from=path, check_offline=True)
        assert verdict_bytes(resumed) == verdict_bytes(baseline)
        assert resumed.parity_ok is True

    def test_pre_pool_checkpoint_state_still_loads(self):
        """There is one scoring mode: a state with the ``deferred`` key
        PRs 13-17 wrote loads, the key is ignored, and the restored
        detector continues bit-identically."""
        import numpy as np
        from repro.live import IncrementalDetector
        rng = np.random.default_rng(9)
        x = 10.0 + rng.normal(0, 0.5, size=200)
        x[120:] += 5.0
        original = IncrementalDetector(120)
        alone(original, x[:150])
        state = original.state_dict()
        assert "deferred" not in state
        state["deferred"] = True       # as a PR 13-17 file carries it
        restored = IncrementalDetector(120)
        restored.load_state(state)
        assert alone(original, x[150:]) == alone(restored, x[150:])
        assert detector_state(original) == detector_state(restored)
