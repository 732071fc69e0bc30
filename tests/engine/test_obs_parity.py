"""Serial vs process-pool observability parity (the worker channel).

Metric registries are process-local, so a pooled run would historically
drop every worker-side event.  The executor routes worker telemetry
(spans + metric snapshots) back with the batch results and absorbs it
in the parent — these tests pin the contract: aggregate counters,
histogram counts and span counts are identical whether the batches ran
inline or across a pool.

The span tree is the stacked route's: one ``detect_batch`` span per
stack and one ``attribute_batch`` span per batch of declared jobs under
the ``execute`` root (funnel jobs get no per-job span — their cost is
the stack's; only passthrough baselines are traced job by job).

Gauges and transport counters are deliberately excluded: the
in-flight-batches gauge and the packed-payload row counters only exist
for pooled runs (serial pickles nothing), so parity is defined over the
remaining counters + histograms + spans.
"""

from collections import Counter as TallyCounter

import pytest

from repro.engine import (AssessmentEngine, EngineConfig, FleetScenarioSpec,
                          SyntheticFleetSource, execute_jobs,
                          plan_detect_batches, reset_shared_cache,
                          spec_for_method)
from repro.engine.batching import (PACKED_ROWS_METRIC,
                                   PACKED_UNIQUE_ROWS_METRIC)
from repro.engine.executor import INFLIGHT_GAUGE
from repro.obs import ObsContext

#: Pool-transport bookkeeping: present only when batches are pickled.
TRANSPORT_COUNTERS = (PACKED_ROWS_METRIC, PACKED_UNIQUE_ROWS_METRIC)


@pytest.fixture(scope="module")
def fleet_jobs():
    """One funnel job per fleet KPI — baseline keys unique per job, so
    cache hit/miss counters are stable across worker counts."""
    source = SyntheticFleetSource(FleetScenarioSpec(
        n_services=4, n_servers=20, n_changes=3, history_days=1, seed=3))
    return list(source.plan_jobs((spec_for_method("funnel"),)))


@pytest.fixture(autouse=True)
def _clean_state():
    reset_shared_cache()
    yield
    reset_shared_cache()


def _observed_run(jobs, workers):
    """Run ``jobs`` with obs attached, from a cold cache."""
    reset_shared_cache()
    obs = ObsContext()
    results = execute_jobs(
        jobs, config=EngineConfig(workers=workers, batch_size=4), obs=obs)
    return results, obs


def _counter_values(obs):
    snap = obs.metrics.snapshot()
    return {name: {tuple(sorted(entry["labels"].items())): entry["value"]
                   for entry in doc["values"]}
            for name, doc in snap["counters"].items()
            if name not in TRANSPORT_COUNTERS}


def _histogram_counts(obs):
    """Observation counts per metric/label-set (durations vary run to
    run, so bucket placement and sums are not parity material)."""
    snap = obs.metrics.snapshot()
    return {name: {tuple(sorted(entry["labels"].items())): entry["count"]
                   for entry in doc["values"]}
            for name, doc in snap["histograms"].items()}


class TestWorkerChannelParity:
    def test_metrics_spans_and_hook_events_match(self, fleet_jobs):
        serial_results, serial_obs = _observed_run(fleet_jobs, workers=0)
        pooled_results, pooled_obs = _observed_run(fleet_jobs, workers=2)

        # Outcomes first: obs must not perturb the engine's parity.
        assert [r.outcome for r in serial_results] == \
            [r.outcome for r in pooled_results]

        # Aggregate counters — jobs, positives, cache hits/misses.
        assert _counter_values(serial_obs) == _counter_values(pooled_obs)
        jobs_total = _counter_values(serial_obs)[
            "repro_engine_jobs_total"]
        assert sum(jobs_total.values()) == len(fleet_jobs)

        # Histogram observation counts (detect-stage latency per job).
        assert _histogram_counts(serial_obs) == \
            _histogram_counts(pooled_obs)

        # Same span tree size and composition.
        assert serial_obs.span_count == pooled_obs.span_count
        serial_names = TallyCounter(s.name for s in serial_obs.spans())
        pooled_names = TallyCounter(s.name for s in pooled_obs.spans())
        assert serial_names == pooled_names
        stacks, passthrough = plan_detect_batches(fleet_jobs, batch_size=4)
        assert not passthrough
        assert serial_names["detect_batch"] == len(stacks)
        assert serial_names["attribute_batch"] >= 1
        assert serial_names["execute"] == 1
        assert "job" not in serial_names

    def test_worker_spans_reparent_under_execute(self, fleet_jobs):
        _, obs = _observed_run(fleet_jobs[:8], workers=2)
        spans = obs.spans()
        execute = [s for s in spans if s.name == "execute"]
        assert len(execute) == 1
        batches = [s for s in spans
                   if s.name in ("detect_batch", "attribute_batch")]
        assert {s.name for s in batches} == {"detect_batch",
                                             "attribute_batch"}
        assert {s.parent_id for s in batches} == {execute[0].span_id}
        assert {s.trace_id for s in spans} == {obs.tracer.trace_id}

    def test_inflight_gauge_is_pooled_only(self, fleet_jobs):
        _, serial_obs = _observed_run(fleet_jobs[:8], workers=0)
        _, pooled_obs = _observed_run(fleet_jobs[:8], workers=2)
        assert INFLIGHT_GAUGE not in serial_obs.metrics.snapshot()["gauges"]
        assert pooled_obs.metrics.gauge(INFLIGHT_GAUGE).value() >= 1

    def test_packed_counters_are_pooled_only(self, fleet_jobs):
        _, serial_obs = _observed_run(fleet_jobs[:8], workers=0)
        _, pooled_obs = _observed_run(fleet_jobs[:8], workers=2)
        serial_names = serial_obs.metrics.snapshot()["counters"]
        for name in TRANSPORT_COUNTERS:
            assert name not in serial_names
        referenced = pooled_obs.metrics.counter(PACKED_ROWS_METRIC).value()
        pickled = pooled_obs.metrics.counter(
            PACKED_UNIQUE_ROWS_METRIC).value()
        # This scenario treats one server per change, so nothing repeats
        # within a batch — but packing must never pickle more than the
        # jobs reference.  (The dedup win itself is pinned on a
        # multi-treated-server scenario in test_batched.py.)
        assert 0 < pickled <= referenced

    def test_outcomes_identical_with_obs_off(self, fleet_jobs):
        reset_shared_cache()
        plain = execute_jobs(fleet_jobs,
                             config=EngineConfig(workers=0, batch_size=4))
        observed, _ = _observed_run(fleet_jobs, workers=0)
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
        report = engine.assess_fleet(source)
        doc = report.as_dict()
        assert doc["obs"]["trace_id"] == obs.tracer.trace_id
        assert doc["obs"]["span_count"] == obs.span_count > 0
        assert [s.name for s in obs.spans()][-1] == "assess_fleet"

    def test_report_omits_obs_when_unobserved(self):
        source = SyntheticFleetSource(FleetScenarioSpec(
            n_services=2, n_servers=8, n_changes=2, history_days=1, seed=3))
        report = AssessmentEngine(detectors=("funnel",)).assess_fleet(source)
        assert "obs" not in report.as_dict()
