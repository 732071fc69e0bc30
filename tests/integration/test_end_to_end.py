"""Cross-module integration tests: topology -> telemetry -> changes ->
detection -> attribution, exercised together."""

import pytest

from repro.changes.rollout import RolloutPolicy, plan_rollout
from repro.core.funnel import Funnel, FunnelConfig
from repro.core.rsst import ImprovedSSTParams
from repro.eval import evaluate_corpus, make_method
from repro.simulation import ServiceScenario
from repro.synthetic import CorpusSpec, EvaluationCorpus
from repro.telemetry.kpi import KpiKey
from repro.topology.impact import identify_impact_set
from repro.types import ChangeKind, Verdict


class TestFleetToFunnel:
    """The full paper pipeline on a scenario fleet."""

    def test_rollback_worthy_regression_is_caught_everywhere(self):
        scenario = ServiceScenario(seed=10)
        scenario.add_service("shop.checkout", n_servers=10)
        scenario.run(minutes=200)
        change = scenario.deploy_change(
            "shop.checkout", ChangeKind.SOFTWARE_UPGRADE,
            effect_sigmas=7.0, metric="memory_utilization")
        scenario.run(minutes=100)
        assessment = scenario.assess(change)

        treated = set(assessment.impact_set.treated_hostnames)
        flagged_hosts = {str(k).split(":")[1] for k in assessment.flagged}
        assert flagged_hosts == treated

    def test_benign_change_produces_no_alerts_across_services(self):
        scenario = ServiceScenario(seed=11)
        for name in ("mail.smtp", "mail.imap", "mail.spool"):
            scenario.add_service(name, n_servers=5)
        scenario.run(minutes=200)
        change = scenario.deploy_change("mail.imap",
                                        ChangeKind.CONFIG_CHANGE)
        scenario.run(minutes=100)
        assessment = scenario.assess(change)
        assert assessment.flagged == []
        # Sibling services under "mail" are affected services.
        assert assessment.impact_set.affected_services == {"mail.smtp",
                                                           "mail.spool"}

    def test_store_subscription_sees_collected_data(self):
        scenario = ServiceScenario(seed=12)
        scenario.add_service("svc.sub", n_servers=2)
        key = KpiKey("server", "host-0001", "memory_utilization")
        fragments = []
        scenario.store.subscribe([key],
                                 lambda k, f: fragments.append(len(f)))
        scenario.run(minutes=40)
        assert sum(fragments) == 40


class TestCorpusPipelineInvariants:
    """Properties that must hold for any corpus the runner consumes."""

    @pytest.fixture(scope="class")
    def result(self):
        items = list(EvaluationCorpus(CorpusSpec(scale=0.015, seed=5)))
        methods = {"funnel": make_method("funnel"),
                   "improved_sst": make_method("improved_sst")}
        return evaluate_corpus(items, methods), items

    def test_counts_conserved(self, result):
        evaluation, items = result
        for method in ("funnel", "improved_sst"):
            raw_total = sum(
                m.total for (name, _, _), m in evaluation.strata.items()
                if name == method)
            assert raw_total == len(items)

    def test_funnel_never_less_precise_than_detection_alone(self, result):
        evaluation, _ = result
        funnel = evaluation.overall("funnel")
        sst = evaluation.overall("improved_sst")
        # DiD can only remove false positives, never add them.
        assert funnel.fp <= sst.fp
        # And it cannot create detections out of thin air.
        assert funnel.tp <= sst.tp

    def test_delays_only_from_true_positives(self, result):
        evaluation, items = result
        positives = sum(1 for i in items if i.truth.positive)
        for method, dist in evaluation.delays.items():
            assert len(dist) <= positives


class TestLaunchModeRouting:
    """Fig. 3's branching: peers when dark-launched, history otherwise."""

    def _item_series(self, rng, effect):
        shared = 40.0 + rng.normal(0, 1.0, size=(10, 200))
        treated, control = shared[:3].copy(), shared[3:]
        if effect:
            treated[:, 100:] += effect
        return treated, control

    def test_dark_launch_uses_peer_control(self, rng):
        treated, control = self._item_series(rng, effect=7.0)
        result = Funnel().assess(treated, 100, control=control)
        assert result.control == "peers"

    def test_full_launch_uses_history(self, rng):
        treated, _ = self._item_series(rng, effect=7.0)
        history = 40.0 + rng.normal(0, 1.0, size=(30, 200))
        result = Funnel().assess(treated, 100, history=history)
        assert result.control == "history"
        assert result.verdict is Verdict.CAUSED_BY_CHANGE

    def test_plan_rollout_feeds_impact_set(self):
        hosts = ["srv-%02d" % i for i in range(12)]
        plan = plan_rollout(hosts, RolloutPolicy(seed=3))
        from repro.topology.entities import Fleet
        fleet = Fleet()
        fleet.add_service("svc.z", hosts)
        impact = identify_impact_set(fleet, "svc.z", plan.treated)
        assert set(impact.control_hostnames) == set(plan.control)
        assert impact.dark_launched


class TestParameterProfiles:
    """Section 3.2.3's omega profiles behave as documented."""

    @pytest.mark.parametrize("omega", [5, 9, 15])
    def test_all_profiles_catch_a_big_shift(self, omega, rng):
        x = 30.0 + rng.normal(0, 0.5, size=300)
        x[150:] += 5.0
        cfg = FunnelConfig(sst=ImprovedSSTParams(omega=omega))
        changes = Funnel(cfg).detect(x, change_index=150)
        assert changes

    def test_quick_profile_declares_soonest(self, rng):
        x = 30.0 + rng.normal(0, 0.5, size=300)
        x[150:] += 5.0
        indices = {}
        for omega in (5, 9, 15):
            cfg = FunnelConfig(sst=ImprovedSSTParams(omega=omega))
            changes = Funnel(cfg).detect(x, change_index=150)
            indices[omega] = changes[0].index
        assert indices[5] <= indices[9] <= indices[15]
