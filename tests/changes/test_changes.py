"""Tests for software-change records, the change log and rollouts."""

import pytest

from repro.changes.change import ConfigScope, SoftwareChange
from repro.changes.log import CONCURRENCY_GUARD_SECONDS, ChangeLog
from repro.changes.rollout import RolloutPlan, RolloutPolicy, plan_rollout
from repro.exceptions import ChangeLogError, ParameterError
from repro.topology.entities import Fleet
from repro.topology.impact import identify_impact_set
from repro.types import ChangeKind, LaunchMode


def make_change(change_id="c1", service="svc.a", hosts=("h1",), at=0,
                kind=ChangeKind.SOFTWARE_UPGRADE, **kwargs):
    return SoftwareChange(change_id=change_id, kind=kind, service=service,
                          hostnames=tuple(hosts), at_time=at, **kwargs)


def dark_launched(change, service_hostnames):
    """Whether ``change`` leaves a control group of its service's peers."""
    fleet = Fleet()
    fleet.add_service(change.service, service_hostnames)
    return identify_impact_set(fleet, change.service,
                               change.hostnames).dark_launched


class TestSoftwareChange:
    def test_launch_mode_dark(self):
        change = make_change(hosts=("h1",))
        assert dark_launched(change, ("h1", "h2"))

    def test_launch_mode_full(self):
        change = make_change(hosts=("h1", "h2"))
        assert not dark_launched(change, ("h1", "h2"))

    def test_config_scope_valid(self):
        change = make_change(kind=ChangeKind.CONFIG_CHANGE,
                             config_scope=ConfigScope.SERVICE)
        assert change.config_scope == "service"

    def test_config_scope_invalid(self):
        with pytest.raises(ChangeLogError):
            make_change(kind=ChangeKind.CONFIG_CHANGE,
                        config_scope="kernel")

    def test_upgrade_with_scope_rejected(self):
        with pytest.raises(ChangeLogError):
            make_change(kind=ChangeKind.SOFTWARE_UPGRADE,
                        config_scope=ConfigScope.OS)

    @pytest.mark.parametrize("kwargs", [
        dict(change_id=""), dict(service=""), dict(hosts=()),
        dict(hosts=("h1", "h1")),
    ])
    def test_invalid_records(self, kwargs):
        with pytest.raises(ChangeLogError):
            make_change(**kwargs)


class TestChangeLog:
    def test_record_and_get(self):
        log = ChangeLog()
        change = make_change()
        log.record(change)
        assert log.get("c1") is change
        assert len(log) == 1

    def test_duplicate_id_rejected(self):
        log = ChangeLog()
        log.record(make_change())
        with pytest.raises(ChangeLogError):
            log.record(make_change())

    def test_concurrency_guard(self):
        log = ChangeLog()
        log.record(make_change("c1", at=0))
        with pytest.raises(ChangeLogError):
            log.record(make_change("c2", at=1800))
        log.record(make_change("c3", at=3600))       # exactly at guard: ok
        # Different services are never in conflict.
        log.record(make_change("c4", service="svc.b", at=10))

    def test_iteration_time_ordered(self):
        log = ChangeLog()
        log.record(make_change("late", at=5 + CONCURRENCY_GUARD_SECONDS))
        log.record(make_change("early", at=5))
        assert [c.change_id for c in log] == ["early", "late"]

    def test_unknown_id_raises(self):
        with pytest.raises(ChangeLogError):
            ChangeLog().get("zzz")


class TestRollout:
    def test_dark_plan_splits(self):
        plan = plan_rollout(["h%d" % i for i in range(8)],
                            RolloutPolicy(seed=1))
        assert plan.mode is LaunchMode.DARK
        assert len(plan.treated) == 2
        assert len(plan.control) == 6
        assert not set(plan.treated) & set(plan.control)

    def test_full_plan(self):
        plan = plan_rollout(["h1", "h2"],
                            RolloutPolicy(mode=LaunchMode.FULL))
        assert plan.mode is LaunchMode.FULL
        assert plan.control == ()

    def test_dark_always_leaves_control(self):
        for n in range(2, 12):
            plan = plan_rollout(["h%d" % i for i in range(n)],
                                RolloutPolicy(seed=0))
            assert len(plan.treated) >= 1 and len(plan.control) >= 1

    def test_single_server_dark_rejected(self):
        with pytest.raises(ParameterError):
            plan_rollout(["h1"], RolloutPolicy())

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            plan_rollout([])

    def test_deterministic_with_seed(self):
        hosts = ["h%d" % i for i in range(10)]
        p1 = plan_rollout(hosts, RolloutPolicy(seed=4))
        p2 = plan_rollout(hosts, RolloutPolicy(seed=4))
        assert p1.treated == p2.treated

    def test_inconsistent_plan_rejected(self):
        with pytest.raises(ChangeLogError):
            RolloutPlan(treated=("h1",), control=("h1",),
                        mode=LaunchMode.DARK)
        with pytest.raises(ChangeLogError):
            RolloutPlan(treated=("h1",), control=(), mode=LaunchMode.DARK)
        with pytest.raises(ChangeLogError):
            RolloutPlan(treated=("h1",), control=("h2",),
                        mode=LaunchMode.FULL)
