"""Cross-module integration tests: topology -> telemetry -> changes ->
detection -> attribution, exercised together."""

import pytest

from repro.changes.rollout import RolloutPolicy, plan_rollout
from repro.core.funnel import Funnel, FunnelConfig
from repro.core.rsst import ImprovedSSTParams
from repro.engine import (AssessmentEngine, FleetScenarioSpec,
                          SyntheticFleetSource, plan_change_jobs,
                          spec_for_method)
from repro.eval import evaluate_corpus, make_method
from repro.synthetic import CorpusSpec, EvaluationCorpus
from repro.topology.impact import identify_impact_set
from repro.types import Verdict


@pytest.fixture(scope="module")
def fleet_source():
    return SyntheticFleetSource(FleetScenarioSpec(seed=7))


def _change(source, dark, impactful):
    """The first change of ``source`` with that launch mode and truth."""
    return next(
        change for change in source.changes
        if (len(change.hostnames)
            < len(source.fleet.service(change.service).hostnames)) == dark
        and source.truth(change, "server", change.hostnames[0],
                         "memory_utilization") == impactful)


def _assess(source, change):
    """The engine's walk over ``change``'s impact set: jobs and results."""
    jobs = list(plan_change_jobs(source.fleet, change, source,
                                 spec_for_method("funnel")))
    return jobs, AssessmentEngine().run(jobs)


class TestFleetToFunnel:
    """The full paper pipeline on a synthetic fleet: impact set, peer or
    historical control, one engine verdict per monitored KPI."""

    def test_rollback_worthy_regression_is_caught_everywhere(
            self, fleet_source):
        change = _change(fleet_source, dark=True, impactful=True)
        jobs, results = _assess(fleet_source, change)
        flagged = [job for job, result in zip(jobs, results)
                   if result.positive]
        assert flagged
        assert [job.job_id for job in flagged] == \
            [job.job_id for job in jobs if job.truth_positive]
        for job in flagged:
            assert job.entity_type in ("server", "instance")
            assert job.entity.split("@")[-1] in change.hostnames
            assert job.control is not None

    def test_benign_change_produces_no_alerts_across_services(
            self, fleet_source):
        change = _change(fleet_source, dark=True, impactful=False)
        jobs, results = _assess(fleet_source, change)
        assert not any(result.positive for result in results)
        # Sibling services under the changed service's family are the
        # affected services, each assessed on its own service KPI.
        family = change.service.split(".")[0] + "."
        siblings = {name for name in fleet_source.fleet.service_names
                    if name.startswith(family) and name != change.service}
        assert siblings
        assert identify_impact_set(
            fleet_source.fleet, change.service,
            change.hostnames).affected_services == siblings
        assert {job.entity for job in jobs if job.entity_type == "service"} \
            == siblings | {change.service}

    def test_full_launch_is_judged_against_history(self, fleet_source):
        change = _change(fleet_source, dark=False, impactful=True)
        jobs, results = _assess(fleet_source, change)
        assert all(job.control is None and job.history.shape[0]
                   == fleet_source.spec.history_days for job in jobs)
        flagged = [job for job, result in zip(jobs, results)
                   if result.positive]
        assert flagged
        assert [job.job_id for job in flagged] == \
            [job.job_id for job in jobs if job.truth_positive]
        assert {result.verdict for result in results if result.positive} \
            == {Verdict.CAUSED_BY_CHANGE}


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
