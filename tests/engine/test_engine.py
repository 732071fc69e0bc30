"""Tests for the fleet-scale assessment engine.

The load-bearing property is parity: the executor must return
bit-identical results whatever the batch size, and equal to the core
pipeline on each job alone (``tests/engine/oracle.py``) — stacked
scoring is bitwise the per-series pipeline, and a baseline job's
detector is built with a seed derived from the job's identity alone.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.engine import (AssessmentEngine, AssessmentJob, DetectorSpec,
                          EngineConfig, FleetScenarioSpec, ItemOutcome,
                          SyntheticFleetSource, execute_jobs, job_from_item,
                          job_seed, reset_shared_cache,
                          shared_cache, spec_for_method)
from repro.engine.planner import ENTITY_METRICS
from repro.eval.runner import evaluate_corpus, make_method
from repro.exceptions import EngineError
from repro.synthetic.dataset import CorpusSpec, EvaluationCorpus

from .oracle import assert_identical, oracle_results

#: Every method name the engine runs.
METHODS = ("funnel", "improved_sst", "cusum", "mrls", "wow")


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
    """Method names, their specs, and the executor's answer per name."""

    def test_every_method_runs_under_its_own_name(self, tiny_corpus):
        """... and answers what the core pipeline does on each job alone,
        for a positive item and a negative one."""
        items = [next(i for i in tiny_corpus if i.truth.positive),
                 next(i for i in tiny_corpus if not i.truth.positive)]
        jobs = [job_from_item(item, spec_for_method(name))
                for name in METHODS for item in items]
        results = execute_jobs(jobs)
        assert [r.detector for r in results] == [name for name in METHODS
                                                 for _ in items]
        assert [r.job_id for r in results] == [j.job_id for j in jobs]
        assert_identical(results, oracle_results(jobs))

    def test_unknown_name_raises(self, tiny_corpus):
        job = job_from_item(tiny_corpus[0], DetectorSpec.create("prophet"))
        with pytest.raises(EngineError):
            execute_jobs([job])
        with pytest.raises(EngineError):
            spec_for_method("prophet")
        with pytest.raises(EngineError, match="at least one detector"):
            AssessmentEngine(detectors=())

    def test_spec_drops_none_options(self):
        spec = DetectorSpec.create("funnel", funnel_config=None)
        assert spec.options == ()
        assert spec == spec_for_method("funnel")


class TestFunnelAnswer:
    """A ``funnel`` job's result is ``Funnel.assess``'s whole
    ``Assessment``: verdict, declared change, DiD estimate, control kind
    and notes."""

    def test_corpus_slice_through_the_runner(self, tiny_corpus,
                                             monkeypatch):
        """The jobs ``evaluate_corpus`` plans and runs, held to the
        oracle: its FUNNEL jobs answer against peers and history."""
        runs = []

        def recording(jobs, config=None, obs=None):
            results = execute_jobs(jobs, config=config, obs=obs)
            runs.append((jobs, results))
            return results

        monkeypatch.setattr("repro.eval.runner.execute_jobs", recording)
        methods = {name: make_method(name)
                   for name in ("funnel", "improved_sst", "cusum")}
        evaluate_corpus(tiny_corpus[:40], methods, batch_size=4)
        assert [len(jobs) for jobs, _ in runs] == [48, 48, 24]
        for jobs, results in runs:
            assert_identical(results, oracle_results(jobs))
        controls = Counter(r.control for _, results in runs
                           for r in results if r.detector == "funnel")
        assert controls == {None: 35, "history": 3, "peers": 2}

    def test_no_control_group_is_noted(self, tiny_corpus):
        """Neither peers nor history: the change is attributed with a
        note that other factors were not excluded."""
        spec = spec_for_method("funnel")
        jobs = [replace(job_from_item(item, spec), control=None,
                        history=None)
                for item in tiny_corpus if item.truth.positive]
        results = execute_jobs(jobs)
        assert_identical(results, oracle_results(jobs))
        noted = [r for r in results if r.positive]
        assert noted and all(r.control is None and r.assessment.notes
                             for r in noted)


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
    """Results must not depend on how the jobs are batched."""

    def _jobs(self, items, methods=("funnel", "cusum")):
        jobs = []
        for name in methods:
            spec = spec_for_method(name)
            jobs.extend(job_from_item(item, spec) for item in items)
        return jobs

    def test_batch_size_does_not_matter(self, tiny_corpus):
        jobs = self._jobs(tiny_corpus[:12], methods=("funnel",))
        small = execute_jobs(jobs, EngineConfig(batch_size=1))
        large = execute_jobs(jobs, EngineConfig(batch_size=64))
        assert [r.outcome for r in small] == [r.outcome for r in large]

    def test_evaluate_corpus_chunking_parity(self, tiny_corpus):
        """One chunk of 24 items against six chunks of 4 (batch size 1)."""
        methods = {"funnel": make_method("funnel")}
        whole = evaluate_corpus(tiny_corpus[:24], methods)
        chunked = evaluate_corpus(tiny_corpus[:24], methods, batch_size=1)
        assert whole.strata.keys() == chunked.strata.keys()
        for key, matrix in whole.strata.items():
            other = chunked.strata[key]
            assert (matrix.tp, matrix.tn, matrix.fp, matrix.fn) == \
                (other.tp, other.tn, other.fp, other.fn)

    def test_invalid_config(self):
        with pytest.raises(EngineError):
            EngineConfig(batch_size=0)
        with pytest.raises(TypeError):
            EngineConfig(workers=2)     # the engine runs in one process


class TestBaselineCache:
    """The shared cache serves fleet jobs, whose keys name a change,
    entity and KPI; corpus items carry no key (their ids restart at 0 in
    every corpus), so whatever ran before, each item gets the answer
    per-item ``Funnel.assess`` gives it."""

    @pytest.mark.parametrize("seeds", [(99, 7), (7, 99)])
    def test_corpora_with_overlapping_ids_match_funnel(self, tiny_corpus,
                                                       seeds):
        corpora = {99: tiny_corpus,
                   7: list(EvaluationCorpus(CorpusSpec(scale=0.012,
                                                       seed=7)))}
        spec = spec_for_method("funnel")
        for seed in seeds:
            jobs = [job_from_item(item, spec) for item in corpora[seed]]
            assert_identical(execute_jobs(jobs), oracle_results(jobs))

    def test_second_spec_hits_cache(self, fleet_source):
        fleet_jobs = list(fleet_source.plan_jobs([spec_for_method("funnel")]))
        execute_jobs(fleet_jobs)
        assert shared_cache().hits == 0
        assert shared_cache().misses == len(fleet_jobs)
        execute_jobs(fleet_source.plan_jobs(
            [spec_for_method("improved_sst")]))
        assert shared_cache().hits == len(fleet_jobs)

    def test_cache_does_not_change_outcomes(self, fleet_source):
        fleet_jobs = list(fleet_source.plan_jobs([spec_for_method("funnel")]))
        cold = execute_jobs(fleet_jobs)
        warm = execute_jobs(fleet_jobs)
        assert shared_cache().hits == len(fleet_jobs)
        assert_identical(cold, warm)
        assert_identical(warm, oracle_results(fleet_jobs))


class TestReportStages:
    def test_stages_fold_job_timings_and_wall_clocks(self, fleet_source):
        def run(**config):
            reset_shared_cache()
            return AssessmentEngine(
                detectors=("funnel",),
                config=EngineConfig(**config)).assess_fleet(fleet_source)[0]

        report = run()
        stages = report.stages
        assert stages["plan"]["calls"] == stages["execute"]["calls"] == 1
        assert stages["detect"]["calls"] == report.jobs
        assert stages["attribute"]["calls"] == \
            report.detectors["funnel"]["positives"] > 0
        assert all(stage["seconds"] > 0 for stage in stages.values())
        assert report.throughput_jobs_per_second == \
            report.jobs / stages["execute"]["seconds"]
        small = run(batch_size=4).stages
        assert {name: stage["calls"] for name, stage in small.items()} == \
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
        report, jobs, results = engine.assess_fleet(fleet_source)
        assert [r.job_id for r in results] == [j.job_id for j in jobs]
        doc = report.as_dict()
        assert doc["jobs"] > 0
        stats = doc["detectors"]["funnel"]
        assert stats["labelled_jobs"] == doc["jobs"]
        # The injected shifts are 8 sigma on clean windows: FUNNEL must
        # recover them essentially perfectly.
        assert stats["precision"] == 1.0
        assert stats["recall"] == 1.0
        assert doc["throughput_jobs_per_second"] > 0

    def test_every_funnel_job_has_a_verdict(self):
        """Detect negatives count as ``no_change``, as ``Funnel.assess``
        gives them: the funnel verdict histogram sums to its jobs."""
        source = SyntheticFleetSource(FleetScenarioSpec(
            n_services=2, n_servers=8, n_changes=2, history_days=1))
        report, _, results = AssessmentEngine(
            detectors=("funnel", "improved_sst")).assess_fleet(source)
        stats = report.as_dict()["detectors"]
        funnel = stats["funnel"]
        assert sum(funnel["verdicts"].values()) == funnel["jobs"]
        negatives = sum(r.outcome.detection_index is None
                        for r in results if r.detector == "funnel")
        assert funnel["verdicts"]["no_change"] == negatives > 0
        assert stats["improved_sst"]["verdicts"] == {}
        assert all(r.verdict is None for r in results
                   if r.detector == "improved_sst")

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
