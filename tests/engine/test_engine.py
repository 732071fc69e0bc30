"""Tests for the fleet-scale assessment engine.

The load-bearing property is serial/parallel parity: the executor must
return bit-identical outcomes whatever the worker count or batch size,
because every detector is rebuilt per job with a seed derived from the
job's identity alone.
"""

import pytest

from repro.engine import (AssessmentEngine, AssessmentJob, Detector,
                          DetectorSpec, EngineConfig, FleetScenarioSpec,
                          ItemOutcome, SyntheticFleetSource, build_detector,
                          detector_names, execute_jobs, job_from_item,
                          job_seed, jobs_from_items, reset_shared_cache,
                          run_job, shared_cache, spec_for_method)
from repro.engine.planner import ENTITY_METRICS
from repro.eval.runner import evaluate_corpus, make_method
from repro.exceptions import EngineError
from repro.synthetic.dataset import CorpusSpec, EvaluationCorpus


@pytest.fixture(scope="module")
def tiny_corpus():
    return list(EvaluationCorpus(CorpusSpec(scale=0.012, seed=99)))


@pytest.fixture(scope="module")
def fleet_source():
    return SyntheticFleetSource(FleetScenarioSpec(
        n_services=4, n_servers=20, n_changes=3, history_days=1, seed=3))


@pytest.fixture(autouse=True)
def _clean_state():
    reset_shared_cache()
    yield
    reset_shared_cache()


class TestRegistry:
    def test_builtin_detectors_registered(self):
        names = detector_names()
        for expected in ("funnel", "improved_sst", "cusum", "mrls", "wow"):
            assert expected in names

    def test_built_detectors_satisfy_protocol(self):
        for name in detector_names():
            detector = build_detector(spec_for_method(name), seed=1)
            assert isinstance(detector, Detector)
            assert detector.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(EngineError):
            build_detector(DetectorSpec.create("prophet"))
        with pytest.raises(EngineError):
            spec_for_method("prophet")
        with pytest.raises(EngineError, match="at least one detector"):
            AssessmentEngine(detectors=())

    def test_spec_drops_none_options(self):
        spec = DetectorSpec.create("funnel", funnel_config=None)
        assert spec.options == ()
        assert spec == spec_for_method("funnel")


class TestJobSeed:
    def test_depends_only_on_identity(self, tiny_corpus):
        spec = spec_for_method("cusum")
        job = job_from_item(tiny_corpus[0], spec)
        assert job_seed(job) == job_seed(job)
        other = job_from_item(tiny_corpus[1], spec)
        assert job_seed(job) != job_seed(other)

    def test_differs_across_detectors(self, tiny_corpus):
        a = job_from_item(tiny_corpus[0], spec_for_method("cusum"))
        b = job_from_item(tiny_corpus[0], spec_for_method("funnel"))
        assert job_seed(a) != job_seed(b)


class TestParity:
    """Parallel execution must be bit-identical to serial."""

    def _jobs(self, items, methods=("funnel", "cusum")):
        jobs = []
        for name in methods:
            jobs.extend(jobs_from_items(items, spec_for_method(name)))
        return jobs

    def test_parallel_identical_to_serial(self, tiny_corpus):
        jobs = self._jobs(tiny_corpus[:24])
        serial = execute_jobs(jobs, EngineConfig(workers=0, batch_size=7))
        parallel = execute_jobs(jobs, EngineConfig(workers=2, batch_size=5))
        assert len(serial) == len(parallel) == len(jobs)
        for a, b in zip(serial, parallel):
            assert a.job_id == b.job_id
            assert a.detector == b.detector
            assert a.outcome == b.outcome
            assert a.verdict == b.verdict
            assert a.did_estimate == b.did_estimate

    def test_batch_size_does_not_matter(self, tiny_corpus):
        jobs = self._jobs(tiny_corpus[:12], methods=("funnel",))
        small = execute_jobs(jobs, EngineConfig(workers=0, batch_size=1))
        large = execute_jobs(jobs, EngineConfig(workers=0, batch_size=64))
        assert [r.outcome for r in small] == [r.outcome for r in large]

    def test_evaluate_corpus_parallel_parity(self, tiny_corpus):
        methods = {"funnel": make_method("funnel")}
        serial = evaluate_corpus(tiny_corpus[:24], methods)
        parallel = evaluate_corpus(tiny_corpus[:24], methods, workers=2,
                                   batch_size=4)
        assert serial.strata.keys() == parallel.strata.keys()
        for key, matrix in serial.strata.items():
            other = parallel.strata[key]
            assert (matrix.tp, matrix.tn, matrix.fp, matrix.fn) == \
                (other.tp, other.tn, other.fp, other.fn)

    def test_single_item_path_matches_executor(self, tiny_corpus):
        adapter = make_method("cusum")
        item = tiny_corpus[0]
        via_adapter = adapter(item)
        via_engine = run_job(job_from_item(item, adapter.spec)).outcome
        assert via_adapter == via_engine

    def test_invalid_config(self):
        with pytest.raises(EngineError):
            EngineConfig(workers=-1)
        with pytest.raises(EngineError):
            EngineConfig(batch_size=0)


class TestBaselineCache:
    def test_second_spec_hits_cache(self, tiny_corpus):
        items = tiny_corpus[:6]
        execute_jobs(jobs_from_items(items, spec_for_method("funnel")))
        assert shared_cache().hits == 0
        assert shared_cache().misses == len(items)
        execute_jobs(jobs_from_items(items, spec_for_method("improved_sst")))
        assert shared_cache().hits == len(items)

    def test_cache_does_not_change_outcomes(self, tiny_corpus):
        spec = spec_for_method("funnel")
        items = tiny_corpus[:6]
        cold = execute_jobs(jobs_from_items(items, spec))
        warm = execute_jobs(jobs_from_items(items, spec))
        assert shared_cache().hits > 0
        assert [r.outcome for r in cold] == [r.outcome for r in warm]


class TestReportStages:
    def test_stages_fold_job_timings_and_wall_clocks(self, fleet_source):
        def run(**config):
            reset_shared_cache()
            return AssessmentEngine(
                detectors=("funnel",),
                config=EngineConfig(**config)).assess_fleet(fleet_source)

        report = run()
        stages = report.stages
        assert stages["plan"]["calls"] == stages["execute"]["calls"] == 1
        assert stages["detect"]["calls"] == report.jobs
        assert stages["attribute"]["calls"] == \
            report.detectors["funnel"]["positives"] > 0
        assert all(stage["seconds"] > 0 for stage in stages.values())
        assert report.throughput_jobs_per_second == \
            report.jobs / stages["execute"]["seconds"]
        pooled = run(workers=2, batch_size=4).stages
        assert {name: stage["calls"] for name, stage in pooled.items()} == \
            {name: stage["calls"] for name, stage in stages.items()}


class TestFleetPlanning:
    def test_jobs_cover_impact_sets(self, fleet_source):
        spec = spec_for_method("funnel")
        jobs = list(fleet_source.plan_jobs([spec]))
        assert jobs
        assert len({j.job_id for j in jobs}) == len(jobs)
        for job in jobs:
            assert job.entity_type in ENTITY_METRICS
            assert job.metric in ENTITY_METRICS[job.entity_type]
            assert job.truth_positive is not None
            assert job.baseline_key

    def test_assess_fleet_report(self, fleet_source):
        engine = AssessmentEngine(detectors=("funnel",))
        report = engine.assess_fleet(fleet_source)
        doc = report.as_dict()
        assert doc["jobs"] > 0
        stats = doc["detectors"]["funnel"]
        assert stats["labelled_jobs"] == doc["jobs"]
        # The injected shifts are 8 sigma on clean windows: FUNNEL must
        # recover them essentially perfectly.
        assert stats["precision"] == 1.0
        assert stats["recall"] == 1.0
        assert doc["throughput_jobs_per_second"] > 0

    def test_fleet_windows_deterministic(self):
        spec = FleetScenarioSpec(n_services=4, n_servers=20, n_changes=2,
                                 history_days=1, seed=11)
        a, b = SyntheticFleetSource(spec), SyntheticFleetSource(spec)
        change_a, change_b = a.changes[0], b.changes[0]
        assert change_a.change_id == change_b.change_id
        win_a = a.fetch(change_a, "server", change_a.hostnames[0],
                        "memory_utilization")
        win_b = b.fetch(change_b, "server", change_b.hostnames[0],
                        "memory_utilization")
        assert (win_a.treated == win_b.treated).all()

    def test_bad_scenario_spec(self):
        with pytest.raises(EngineError):
            FleetScenarioSpec(n_changes=0)
        with pytest.raises(EngineError):
            FleetScenarioSpec(impact_fraction=1.5)


class TestJobModel:
    def test_item_outcome_delay(self):
        assert ItemOutcome(True, detection_index=75).delay(60) == 15
        assert ItemOutcome(False).delay(60) is None

    def test_job_is_picklable(self, tiny_corpus):
        import pickle
        job = job_from_item(tiny_corpus[0], spec_for_method("funnel"))
        clone = pickle.loads(pickle.dumps(job))
        assert isinstance(clone, AssessmentJob)
        assert clone.job_id == job.job_id
        assert (clone.treated == job.treated).all()
