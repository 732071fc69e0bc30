"""Tests for the simulation substrate and case studies."""

import pytest

from repro.changes.rollout import RolloutPolicy
from repro.exceptions import ParameterError, TelemetryError
from repro.simulation.cases import advertising_case, redis_case
from repro.simulation.clock import SimulationClock
from repro.simulation.deployment import (DeploymentDay, DeploymentSpec,
                                         simulate_week)
from repro.simulation.scenario import ServiceScenario
from repro.telemetry.kpi import KpiKey
from repro.types import ChangeKind, LaunchMode, Verdict


class TestSimulationClock:
    def test_tick_and_advance(self):
        clock = SimulationClock(start=0)
        assert clock.tick() == 60
        assert clock.advance_minutes(10) == 660
        assert clock.advance_to(1200) == 1200

    def test_day_second(self):
        clock = SimulationClock(start=86400 + 3600)
        assert clock.day_second == 3600

    def test_invalid(self):
        with pytest.raises(ParameterError):
            SimulationClock(start=30)
        clock = SimulationClock()
        with pytest.raises(ParameterError):
            clock.advance_to(-60)
        with pytest.raises(ParameterError):
            clock.advance_minutes(-1)


class TestServiceScenario:
    def test_series_accumulate(self):
        scenario = ServiceScenario(seed=3)
        scenario.add_service("svc.x", n_servers=3)
        scenario.run(minutes=50)
        scenario.run(minutes=30)
        key = KpiKey("server", "host-0001", "memory_utilization")
        assert len(scenario.store.series(key)) == 80

    def test_change_effect_flagged_on_treated_only(self):
        scenario = ServiceScenario(seed=1)
        scenario.add_service("svc.x", n_servers=6)
        scenario.run(minutes=240)
        change = scenario.deploy_change(
            "svc.x", ChangeKind.CONFIG_CHANGE, effect_sigmas=6.0,
            metric="memory_utilization")
        scenario.run(minutes=120)
        assessment = scenario.assess(change)
        flagged = {str(k) for k in assessment.flagged}
        treated = set(assessment.impact_set.treated_hostnames)
        assert flagged
        for name in flagged:
            _, host, metric = name.split(":")
            assert host in treated
            assert metric == "memory_utilization"

    def test_no_effect_no_flags(self):
        scenario = ServiceScenario(seed=2)
        scenario.add_service("svc.x", n_servers=6)
        scenario.run(minutes=240)
        change = scenario.deploy_change("svc.x",
                                        ChangeKind.SOFTWARE_UPGRADE)
        scenario.run(minutes=120)
        assessment = scenario.assess(change)
        assert assessment.flagged == []

    def test_change_log_guard(self):
        scenario = ServiceScenario(seed=4)
        scenario.add_service("svc.x", n_servers=4)
        scenario.run(minutes=60)
        scenario.deploy_change("svc.x", ChangeKind.SOFTWARE_UPGRADE)
        from repro.exceptions import ChangeLogError
        with pytest.raises(ChangeLogError):
            scenario.deploy_change("svc.x", ChangeKind.SOFTWARE_UPGRADE)

    def test_unknown_metric_effect_rejected(self):
        scenario = ServiceScenario(seed=5)
        scenario.add_service("svc.x", n_servers=4)
        with pytest.raises(TelemetryError):
            scenario.deploy_change("svc.x", ChangeKind.CONFIG_CHANGE,
                                   effect_sigmas=2.0, metric="nope")

    def test_full_launch_policy(self):
        scenario = ServiceScenario(seed=6)
        scenario.add_service("svc.x", n_servers=3)
        scenario.run(minutes=60)
        change = scenario.deploy_change(
            "svc.x", ChangeKind.SOFTWARE_UPGRADE,
            policy=RolloutPolicy(mode=LaunchMode.FULL))
        assert len(change.hostnames) == 3


class TestDeployment:
    def test_tiny_week(self):
        # 10 changes a day (the spec's floor) x 30 KPIs each: two full
        # days of the pipeline at a third of the paper's KPIs per change.
        spec = DeploymentSpec(scale=0.0004, days=2, seed=11,
                              kpis_per_change=30.0)
        report = simulate_week(spec)
        assert len(report.days) == 2
        assert report.daily_kpis == 300
        assert sum(day.detections for day in report.days) >= 30
        row = report.as_table3_row()
        assert 0.0 <= row["precision"] <= 1.0
        # FUNNEL's deployed precision was 98.21%; the simulated one
        # should be well above 90% even at tiny scale.
        assert row["precision"] > 0.9

    def test_invalid_spec(self):
        with pytest.raises(ParameterError):
            DeploymentSpec(scale=0.0)
        with pytest.raises(ParameterError):
            DeploymentSpec(days=0)

    def test_day_counters(self):
        day = DeploymentDay(day=0, detections=10, true_detections=9,
                            missed_impacted_kpis=1)
        assert day.precision == 0.9
        assert day.recall == 0.9


class TestRedisCase:
    @pytest.fixture(scope="class")
    def result(self):
        return redis_case(n_class_a=4, n_class_b=4, n_unaffected_kpis=20,
                          pre_minutes=120, post_minutes=120)

    def test_impact_set_size(self, result):
        assert result.total_kpis == 28

    def test_flags_mostly_nic_shifts(self, result):
        assert result.flagged_count >= 6
        nic_flags = [k for k in result.flagged if "redis-a" in k
                     or "redis-b" in k]
        assert len(nic_flags) >= 6

    def test_directions_match_rebalancing(self, result):
        for name in result.flagged:
            if "redis-a" in name:
                assert result.directions[name] == -1
            elif "redis-b" in name:
                assert result.directions[name] == +1

    def test_examples_available(self, result):
        assert result.class_a_example is not None
        assert result.class_b_example is not None
        change = result.change_index
        a = result.class_a_example
        assert a[change + 10:].mean() < a[:change].mean()


class TestAdvertisingCase:
    @pytest.fixture(scope="class")
    def result(self):
        return advertising_case(days_of_context=3)

    def test_detected_as_caused_by_change(self, result):
        assert result.assessment.verdict is Verdict.CAUSED_BY_CHANGE

    def test_detected_within_10_minutes(self, result):
        assert result.detected_within_10_minutes
        assert result.detection_delay_minutes < result.manual_delay_minutes

    def test_negative_direction(self, result):
        assert result.assessment.change.direction == -1

    def test_series_shows_drop_and_recovery(self, result):
        clicks = result.clicks
        i = result.change_index
        r = result.recovery_index
        before = clicks[i - 30:i].mean()
        during = clicks[i + 5:i + 60].mean()
        after = clicks[r + 5:r + 60].mean()
        assert during < 0.7 * before
        assert after > 0.8 * before
