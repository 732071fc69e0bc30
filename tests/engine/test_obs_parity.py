"""The executor's span tree and metrics, recorded in one process.

The span tree is the stacked route's: one ``detect_batch`` span per
stack and one ``attribute_batch`` span per batch of declared jobs, all
parented under the one ``execute`` span (funnel jobs get no per-job
span — their cost is the stack's).  The baselines are traced job by
job: one ``job`` span each, also directly under ``execute``.  Counters and histogram observation counts follow from the
job list, and attaching obs never changes an outcome.
"""

import math
from collections import Counter as TallyCounter

import pytest

from repro.engine import (AssessmentEngine, EngineConfig, FleetScenarioSpec,
                          SyntheticFleetSource, execute_jobs,
                          plan_detect_batches, reset_shared_cache,
                          spec_for_method)
from repro.obs import ObsContext


@pytest.fixture(scope="module")
def fleet_jobs():
    """One funnel job per fleet KPI — baseline keys unique per job, so
    every job misses the cold cache once."""
    source = SyntheticFleetSource(FleetScenarioSpec(
        n_services=4, n_servers=20, n_changes=3, history_days=1, seed=3))
    return list(source.plan_jobs((spec_for_method("funnel"),)))


@pytest.fixture(autouse=True)
def _clean_state():
    reset_shared_cache()
    yield
    reset_shared_cache()


def _observed_run(jobs):
    """Run ``jobs`` with obs attached, from a cold cache."""
    reset_shared_cache()
    obs = ObsContext()
    results = execute_jobs(jobs, config=EngineConfig(batch_size=4), obs=obs)
    return results, obs


def _counter_values(obs):
    snap = obs.metrics.snapshot()
    return {name: {tuple(sorted(entry["labels"].items())): entry["value"]
                   for entry in doc["values"]}
            for name, doc in snap["counters"].items()}


def _histogram_counts(obs):
    """Observation counts per metric/label-set (durations vary run to
    run, so bucket placement and sums are not test material)."""
    snap = obs.metrics.snapshot()
    return {name: {tuple(sorted(entry["labels"].items())): entry["count"]
                   for entry in doc["values"]}
            for name, doc in snap["histograms"].items()}


class TestSerialSpanTree:
    def test_counters_histograms_and_spans(self, fleet_jobs):
        results, obs = _observed_run(fleet_jobs)
        positives = sum(r.positive for r in results)
        assert positives >= 1
        funnel = (("detector", "funnel"),)

        counters = _counter_values(obs)
        assert counters["repro_engine_jobs_total"] == {
            funnel: len(fleet_jobs)}
        assert counters["repro_engine_positives_total"] == {
            funnel: positives}
        assert counters["repro_engine_baseline_cache_misses_total"] == {
            (): len(fleet_jobs)}
        assert "repro_engine_baseline_cache_hits_total" not in counters
        assert "repro_engine_inflight_batches" not in \
            obs.metrics.snapshot()["gauges"]

        # Detect-stage latency per job; attribution per declared job.
        assert _histogram_counts(obs) == {"repro_engine_detect_seconds": {
            funnel + (("stage", "attribute"),): positives,
            funnel + (("stage", "detect"),): len(fleet_jobs)}}

        names = TallyCounter(s.name for s in obs.spans())
        stacks, passthrough = plan_detect_batches(fleet_jobs, batch_size=4)
        assert not passthrough
        assert names == {"execute": 1, "detect_batch": len(stacks),
                         "attribute_batch": math.ceil(positives / 4)}
        assert obs.span_count == sum(names.values())

    def test_batch_spans_parent_under_execute(self, fleet_jobs):
        _, obs = _observed_run(fleet_jobs[:8])
        spans = obs.spans()
        execute = [s for s in spans if s.name == "execute"]
        assert len(execute) == 1
        assert execute[0].attrs == (("batch_size", 4),)
        batches = [s for s in spans
                   if s.name in ("detect_batch", "attribute_batch")]
        assert {s.name for s in batches} == {"detect_batch",
                                             "attribute_batch"}
        assert {s.parent_id for s in batches} == {execute[0].span_id}
        assert {s.trace_id for s in spans} == {obs.tracer.trace_id}

    def test_mixed_run_traces_baseline_jobs_under_execute(self):
        source = SyntheticFleetSource(FleetScenarioSpec(
            n_services=2, n_servers=8, n_changes=2, history_days=1, seed=3))
        jobs = list(source.plan_jobs((spec_for_method("funnel"),
                                      spec_for_method("cusum"))))
        _, obs = _observed_run(jobs)
        spans = obs.spans()
        execute = [s for s in spans if s.name == "execute"]
        assert len(execute) == 1
        baseline_jobs = [s for s in spans if s.name == "job"]
        per_detector = TallyCounter(job.detector.name for job in jobs)
        assert len(baseline_jobs) == per_detector["cusum"] > 0
        assert {s.parent_id for s in baseline_jobs} == {execute[0].span_id}
        assert {dict(s.attrs)["detector"] for s in baseline_jobs} == \
            {"cusum"}
        assert "batch" not in {s.name for s in spans}
        assert _counter_values(obs)["repro_engine_jobs_total"] == {
            (("detector", name),): count
            for name, count in per_detector.items()}

    def test_outcomes_identical_with_obs_off(self, fleet_jobs):
        reset_shared_cache()
        plain = execute_jobs(fleet_jobs, config=EngineConfig(batch_size=4))
        observed, _ = _observed_run(fleet_jobs)
        for a, b in zip(plain, observed):
            assert a.outcome == b.outcome
            assert a.verdict == b.verdict
            assert a.did_estimate == b.did_estimate


class TestEngineObsSummary:
    def test_report_carries_obs_summary(self):
        source = SyntheticFleetSource(FleetScenarioSpec(
            n_services=2, n_servers=8, n_changes=2, history_days=1, seed=3))
        obs = ObsContext()
        engine = AssessmentEngine(detectors=("funnel",), obs=obs)
        report, _, _ = engine.assess_fleet(source)
        doc = report.as_dict()
        assert doc["obs"]["trace_id"] == obs.tracer.trace_id
        assert doc["obs"]["span_count"] == obs.span_count > 0
        assert [s.name for s in obs.spans()][-1] == "assess_fleet"

    def test_report_omits_obs_when_unobserved(self):
        source = SyntheticFleetSource(FleetScenarioSpec(
            n_services=2, n_servers=8, n_changes=2, history_days=1, seed=3))
        report, _, _ = AssessmentEngine(
            detectors=("funnel",)).assess_fleet(source)
        assert "obs" not in report.as_dict()
