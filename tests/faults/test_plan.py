"""The fault-plan DSL: validation, matching, determinism, presets."""

import pytest

from repro.exceptions import ParameterError
from repro.faults import (DELAY, DROP, DUPLICATE, HISTORY_ERROR, PRESET_NAMES,
                          REORDER, SILENCE, FaultPlan, FaultRule, preset_plan)
from repro.faults.plan import DELIVER


class TestFaultRuleValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ParameterError):
            FaultRule("corrupt")

    @pytest.mark.parametrize("probability", [-0.1, 1.5])
    def test_rejects_probability_outside_unit_interval(self, probability):
        with pytest.raises(ParameterError):
            FaultRule(DROP, probability=probability)

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(ParameterError):
            FaultRule(DELAY, delay_bins=0)

    def test_rejects_nonpositive_error_attempts(self):
        with pytest.raises(ParameterError):
            FaultRule(HISTORY_ERROR, error_attempts=0)

    def test_silence_requires_a_window(self):
        with pytest.raises(ParameterError):
            FaultRule(SILENCE)

    def test_rejects_empty_window(self):
        with pytest.raises(ParameterError):
            FaultRule(DROP, window=(300, 300))


class TestFaultRuleMatching:
    def test_window_is_half_open(self):
        rule = FaultRule(DROP, window=(60, 180))
        assert not rule.matches("server:web-1:cpu", 59)
        assert rule.matches("server:web-1:cpu", 60)
        assert rule.matches("server:web-1:cpu", 179)
        assert not rule.matches("server:web-1:cpu", 180)

    def test_key_glob_scopes_the_rule(self):
        rule = FaultRule(DROP, key_glob="server:web-*:*")
        assert rule.matches("server:web-1:cpu", 0)
        assert not rule.matches("server:db-1:cpu", 0)
        assert not rule.matches("service:web-1:cpu", 0)

    def test_no_window_no_glob_matches_everything(self):
        rule = FaultRule(DROP)
        assert rule.matches("anything:at:all", 10 ** 9)

    def test_dict_roundtrip(self):
        rule = FaultRule(DELAY, probability=0.25, delay_bins=3,
                         window=(0, 600), key_glob="server:*")
        assert FaultRule.from_dict(rule.as_dict()) == rule


class TestFaultPlanDeterminism:
    def test_roll_is_a_pure_function(self):
        plan = FaultPlan(seed=7)
        first = plan._roll("drop", "server:web-1:cpu", 600)
        second = plan._roll("drop", "server:web-1:cpu", 600)
        assert first == second
        assert 0.0 <= first < 1.0

    def test_equal_plans_make_equal_decisions(self):
        keys = ["server:web-%d:cpu" % i for i in range(64)]
        one = FaultPlan(seed=3, rules=(FaultRule(DROP, probability=0.5),))
        two = FaultPlan(seed=3, rules=(FaultRule(DROP, probability=0.5),))
        assert [one.push_action(k, 0) for k in keys] == \
            [two.push_action(k, 0) for k in keys]

    def test_seed_changes_decisions(self):
        keys = ["server:web-%d:cpu" % i for i in range(64)]
        rules = (FaultRule(DROP, probability=0.5),)
        a = [FaultPlan(seed=0, rules=rules).push_action(k, 0) for k in keys]
        b = [FaultPlan(seed=1, rules=rules).push_action(k, 0) for k in keys]
        assert a != b

    def test_probability_is_roughly_honoured(self):
        plan = FaultPlan(seed=5, rules=(FaultRule(DROP, probability=0.25),))
        actions = [plan.push_action("server:web-%d:cpu" % i, 0)
                   for i in range(400)]
        dropped = actions.count(DROP)
        assert 50 < dropped < 150          # ~100 expected


class TestFaultPlanDecisions:
    def test_push_action_defaults_to_deliver(self):
        assert FaultPlan().push_action("server:web-1:cpu", 0) == DELIVER

    def test_first_matching_push_rule_wins(self):
        plan = FaultPlan(rules=(FaultRule(DROP), FaultRule(DUPLICATE)))
        assert plan.push_action("server:web-1:cpu", 0) == DROP

    def test_push_rules_respect_windows(self):
        plan = FaultPlan(rules=(FaultRule(REORDER, window=(60, 120)),))
        assert plan.push_action("k", 0) == DELIVER
        assert plan.push_action("k", 60) == REORDER

    def test_ingest_release_for_delay(self):
        plan = FaultPlan(rules=(FaultRule(DELAY, delay_bins=2),))
        # A one-bin fragment [0, 60) arriving at its end is released two
        # collection intervals later.
        assert plan.ingest_release("k", 0, 60) == 180

    def test_ingest_release_for_silence(self):
        plan = FaultPlan(rules=(FaultRule(SILENCE, window=(0, 300)),))
        assert plan.ingest_release("k", 0, 60) == 300
        assert plan.ingest_release("k", 300, 360) is None

    def test_worst_matching_ingest_rule_wins(self):
        plan = FaultPlan(rules=(FaultRule(DELAY, delay_bins=1),
                                FaultRule(SILENCE, window=(0, 600))))
        assert plan.ingest_release("k", 0, 60) == 600

    def test_no_ingest_fault_returns_none(self):
        assert FaultPlan().ingest_release("k", 0, 60) is None

    def test_history_failures(self):
        plan = FaultPlan(rules=(
            FaultRule(HISTORY_ERROR, error_attempts=3),))
        assert plan.history_failures("chg-1", "server:web-1:cpu") == 3
        assert FaultPlan().history_failures("chg-1", "k") == 0

    def test_history_failures_respect_key_glob(self):
        plan = FaultPlan(rules=(FaultRule(
            HISTORY_ERROR, error_attempts=2, key_glob="service:*"),))
        assert plan.history_failures("chg-1", "service:api:latency") == 2
        assert plan.history_failures("chg-1", "server:web-1:cpu") == 0

    def test_kind_helpers(self):
        assert FaultPlan(
            rules=(FaultRule(HISTORY_ERROR),)).has_history_faults()
        assert not FaultPlan().has_history_faults()

    def test_describe_roundtrip(self):
        plan = FaultPlan(seed=9, name="custom", rules=(
            FaultRule(DELAY, probability=0.5, delay_bins=2),
            FaultRule(SILENCE, window=(0, 300), key_glob="server:*"),
        ))
        assert FaultPlan.from_dict(plan.describe()) == plan


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_constructs(self, name):
        plan = preset_plan(name, seed=3, lead_time=600)
        assert plan.name == name
        assert plan.seed == 3

    def test_unknown_preset_raises(self):
        with pytest.raises(ParameterError):
            preset_plan("blackout")

    def test_none_preset_is_empty(self):
        plan = preset_plan("none")
        assert plan.rules == ()
        assert plan.push_action("k", 0) == DELIVER

    def test_silence_preset_anchors_on_lead_time(self):
        plan = preset_plan("agent-silence", lead_time=1200, bin_seconds=60)
        (rule,) = plan.rules
        assert rule.window == (1200, 1500)
