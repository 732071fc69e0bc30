"""Chaos replay: verdicts survive injected faults, degrade gracefully.

Three properties are pinned:

* **parity under faults** — for every bounded preset plan, the live
  pipeline (with ``repair_from_store`` and a close grace covering the
  worst injected delay) still produces exactly the offline verdict set;
* **seeded determinism** — the same plan and seed reproduce the same
  verdict stream, byte for byte;
* **graceful degradation** — a history provider that keeps failing past
  the retry budget yields a ``degraded`` annotation, not a crash.
"""

from types import SimpleNamespace

import pytest

from repro.engine import reset_shared_cache
from repro.engine.fleet import FleetScenarioSpec
from repro.exceptions import TelemetryError
from repro.faults import (DELAY, HISTORY_ERROR, FaultPlan, FaultRule,
                          FaultyHistoryProvider, preset_plan)
from repro.live import parity_live_config, replay_scenario
from repro.live.assessor import LiveAssessor
from repro.live.bus import VerdictBus
from repro.live.config import LiveConfig
from repro.faults.injector import FAULTS_INJECTED_METRIC
from repro.telemetry.kpi import KpiKey
from repro.telemetry.timeseries import MINUTE

SPEC = FleetScenarioSpec(n_services=2, n_servers=8, n_changes=2,
                         window_bins=120, change_offset=60,
                         history_days=1, seed=5)
#: every change a full launch, so attribution exercises the history path
FULL_SPEC = FleetScenarioSpec(n_services=2, n_servers=8, n_changes=2,
                              window_bins=120, change_offset=60,
                              dark_fraction=0.0, history_days=1, seed=7)


@pytest.fixture(autouse=True)
def _fresh_baseline_cache():
    # The engine's baseline-stats cache is keyed by change/entity/metric,
    # which collides across the different scenario specs used here.
    reset_shared_cache()
    yield
    reset_shared_cache()


def chaos_config(spec, plan, **overrides):
    """The parity config hardened for ``plan``: read-repair on, close
    grace covering the plan's worst injected delay."""
    grace = max((rule.delay_bins for rule in plan.rules
                 if rule.kind == DELAY), default=0) * MINUTE
    return parity_live_config(spec, repair_from_store=True,
                              close_grace_seconds=grace, **overrides)


def run_chaos(spec, plan, check_offline=False, **config_overrides):
    return replay_scenario(
        spec, live_config=chaos_config(spec, plan, **config_overrides),
        fault_plan=plan, check_offline=check_offline)


class TestChaosParity:
    @pytest.mark.parametrize("preset", ["drop-delay-dup", "reorder",
                                        "agent-silence", "all"])
    def test_parity_survives_preset(self, preset):
        plan = preset_plan(preset, seed=11,
                           lead_time=SPEC.lead_bins * MINUTE)
        report = run_chaos(SPEC, plan, check_offline=True)
        assert report.parity_ok is True
        assert report.parity["live_only"] == []
        assert report.parity["offline_only"] == []

    def test_faults_were_actually_injected(self):
        plan = preset_plan("drop-delay-dup", seed=11)
        report = run_chaos(SPEC, plan)
        counters = report.service_report["counters"]
        assert counters.get(FAULTS_INJECTED_METRIC, 0) > 0
        assert report.fault_plan == plan.describe()

    def test_flaky_history_recovers_within_retry_budget(self):
        # error_attempts=2 leading failures < the default 3 attempts
        # (fetch_retries=2), so every fetch heals and parity holds.
        plan = preset_plan("flaky-history", seed=11)
        report = run_chaos(FULL_SPEC, plan, check_offline=True)
        assert report.parity_ok is True
        counters = report.service_report["counters"]
        assert counters.get(FAULTS_INJECTED_METRIC, 0) > 0
        assert all("degraded" not in note
                   for v in report.verdicts for note in v.notes)


class TestSeededDeterminism:
    def test_same_seed_reproduces_the_verdict_stream(self):
        plan = preset_plan("all", seed=23,
                           lead_time=SPEC.lead_bins * MINUTE)
        first = run_chaos(SPEC, plan)
        second = run_chaos(SPEC, plan)
        assert [v.as_dict() for v in first.verdicts] == \
            [v.as_dict() for v in second.verdicts]

    def test_different_seed_changes_the_injected_faults(self):
        counts = []
        for seed in (1, 2):
            plan = preset_plan("drop-delay-dup", seed=seed)
            report = run_chaos(SPEC, plan)
            counts.append(report.service_report["counters"]
                          .get(FAULTS_INJECTED_METRIC, 0))
        assert counts[0] != counts[1]


class TestRetryExhaustion:
    def test_exhausted_history_degrades_the_verdict(self):
        # 5 leading failures against a single attempt (fetch_retries=0):
        # every history fetch is exhausted, verdicts still emit but
        # carry the degraded annotation.
        plan = FaultPlan(seed=3, rules=(
            FaultRule(HISTORY_ERROR, error_attempts=5),))
        report = run_chaos(FULL_SPEC, plan, fetch_retries=0)
        degraded = [v for v in report.verdicts
                    if any(note.startswith("degraded:")
                           for note in v.notes)]
        assert degraded
        counters = report.service_report["counters"]
        assert counters.get("repro_live_degraded_verdicts_total", 0) == \
            len(degraded)
        # degraded or not, every monitored KPI still got an answer
        assert report.service_report["active_changes"] == 0


def run_chaos_fetch(config, provider, clock=None, sleep=None):
    kwargs = {}
    if clock is not None:
        kwargs["clock"] = clock
    if sleep is not None:
        kwargs["sleep"] = sleep
    assessor = LiveAssessor(config, VerdictBus(),
                            history_provider=provider, **kwargs)
    session = SimpleNamespace(change=SimpleNamespace(change_id="chg-1"))
    tracker = SimpleNamespace(key=KpiKey("service", "api", "latency"))
    return assessor._fetch_history(session, tracker)


class TestFetchRetryUnit:
    def test_persistent_failure_exhausts_and_reports_unhealthy(self):
        calls = []

        def provider(*args):
            calls.append(args)
            raise TelemetryError("down")

        rows, healthy = run_chaos_fetch(LiveConfig(fetch_retries=2),
                                        provider)
        assert rows is None and healthy is False
        assert len(calls) == 3           # 1 try + 2 retries

    def test_transient_failure_recovers(self):
        attempts = []

        def provider(*args):
            attempts.append(1)
            if len(attempts) == 1:
                raise TelemetryError("blip")
            return "rows"

        rows, healthy = run_chaos_fetch(LiveConfig(fetch_retries=2),
                                        provider)
        assert rows == "rows" and healthy is True
        assert len(attempts) == 2

    def test_timeout_budget_counts_as_failure(self):
        ticks = iter(range(0, 1000, 10))   # every clock() call jumps 10s
        rows, healthy = run_chaos_fetch(
            LiveConfig(fetch_retries=1, fetch_timeout_seconds=1.0),
            lambda *args: "rows", clock=lambda: next(ticks))
        assert rows is None and healthy is False

    def test_backoff_doubles_between_retries(self):
        sleeps = []
        rows, healthy = run_chaos_fetch(
            LiveConfig(fetch_retries=2, fetch_backoff_seconds=0.5),
            lambda *args: (_ for _ in ()).throw(TelemetryError("down")),
            sleep=sleeps.append)
        assert healthy is False
        assert sleeps == [0.5, 1.0]


class TestPooledChaosParity:
    """Chunked pool passes under faults: a repaired gap or a late
    release lands several bins at once, so trackers cross the chunk
    threshold on different ticks and the pool stacks mixed widths."""

    @pytest.mark.parametrize("preset", ["drop-delay-dup", "all"])
    def test_parity_survives_preset_with_pooled_scoring(self, preset):
        plan = preset_plan(preset, seed=11,
                           lead_time=SPEC.lead_bins * MINUTE)
        report = run_chaos(SPEC, plan, check_offline=True,
                           score_chunk_bins=5)
        assert report.parity_ok is True
        assert report.parity["live_only"] == []
        assert report.parity["offline_only"] == []
