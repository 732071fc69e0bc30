"""Self-tests of the benchmark suite (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

import pytest

import repro.core.funnel
import repro.core.scoring
from repro.core.ika import IkaSST

from . import cli, compare, timing, trace, workloads

HERE = os.path.dirname(os.path.abspath(__file__))


# -- timing --------------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    assert timing.percentile(range(199), 95) is None
    assert timing.percentile(range(200), 95) == pytest.approx(189.05)
    assert timing.percentile(range(20), 50) == pytest.approx(9.5)
    assert timing.percentile(range(19), 50) is None


def test_tail_is_the_highest_supported_percentile():
    assert timing.tail(range(1000))[0] == 99
    assert timing.tail(range(240))[0] == 95
    assert timing.tail(range(120))[0] == 90
    assert timing.tail(range(20))[0] == 50
    assert timing.tail(range(19)) == (None, None)


def test_step_medians_vote_out_a_slow_phase():
    rng = random.Random(5)
    true_steps = [rng.uniform(0.001, 0.02) for _ in range(300)]
    repeats = []
    for repeat in range(5):
        # A 2x slow phase covers 40% of the run, somewhere else each time.
        begin = repeat * 60
        repeats.append([
            step * (2.0 if begin <= index < begin + 120 else 1.0)
            * rng.uniform(1.0, 1.02)
            for index, step in enumerate(true_steps)])
    truth = sum(true_steps)
    whole_run = statistics.median(sum(steps) for steps in repeats)
    by_step = sum(timing.step_medians(repeats))
    assert whole_run > 1.25 * truth
    assert by_step == pytest.approx(truth, rel=0.03)


def test_step_medians_refuse_repeats_of_different_length():
    with pytest.raises(ValueError):
        timing.step_medians([[1.0, 2.0], [1.0]])


# -- trace ---------------------------------------------------------------------

def test_self_times_sum_to_the_root():
    spans = [
        ["suite", "repeat", -1, 0.0, 10.0],
        ["a", "outer", 0, 1.0, 7.0],
        ["b", "inner", 1, 2.0, 3.0],
        ["b", "inner", 1, 4.0, 6.5],
        ["a", "outer", 0, 8.0, 9.0],
    ]
    agg = trace.aggregate(spans)
    assert agg.root_s == 10.0
    assert agg.targets[("suite", "repeat")] == [3.0, 1]
    assert agg.targets[("a", "outer")] == [3.5, 2]
    assert agg.targets[("b", "inner")] == [3.5, 2]
    assert sum(entry[0] for entry in agg.targets.values()) == agg.root_s
    assert agg.folded["suite.repeat;a.outer;b.inner"] == 3500000
    assert sum(agg.folded.values()) == 10000000


def test_one_root_span_is_required():
    with pytest.raises(ValueError):
        trace.aggregate([["a", "x", -1, 0.0, 1.0], ["a", "x", -1, 1.0, 2.0]])


def test_wrappers_install_and_restore():
    scores_batch = IkaSST.__dict__["scores_batch"]
    declare = repro.core.scoring.declare_changes
    # funnel.py imported it by name: the caller the rebinding is for.
    assert repro.core.funnel.declare_changes is declare
    table = (
        trace.Target("core.ika", "repro.core.ika:IkaSST.scores_batch"),
        trace.Target("core.scoring", "repro.core.scoring:declare_changes"),
        trace.Target("core.scoring", "repro.core.scoring:deleted_later"),
        trace.Target("gone", "repro.no_such_module:function"),
    )
    recorder = trace.Recorder()
    with trace.installed(recorder, table):
        assert IkaSST.__dict__["scores_batch"].__wrapped__ is scores_batch
        traced = repro.core.scoring.declare_changes
        assert traced.__wrapped__ is declare
        assert repro.core.funnel.declare_changes is traced
        with recorder.span(trace.ROOT_LAYER, "repeat"):
            series = [float(i % 7) for i in range(120)]
            IkaSST().scores_batch([series])
    assert IkaSST.__dict__["scores_batch"] is scores_batch
    assert repro.core.scoring.declare_changes is declare
    assert repro.core.funnel.declare_changes is declare
    assert recorder.missing == ["repro.core.scoring:deleted_later",
                                "repro.no_such_module:function"]
    metrics, detail = trace.layer_metrics(recorder, 1.0, 1.0, {})
    assert metrics["core.ika.calls"] == 1
    assert metrics["trace.missing"] == 2
    assert detail["unhit"] == ["repro.core.scoring:declare_changes"]
    assert detail["self_sum_s"] == pytest.approx(detail["root_s"])


def test_originals_return_even_when_the_repeat_raises():
    original = IkaSST.__dict__["scores_batch"]
    with pytest.raises(RuntimeError):
        with trace.installed(trace.Recorder()):
            raise RuntimeError("repeat failed")
    assert IkaSST.__dict__["scores_batch"] is original


def test_generator_functions_are_refused():
    table = (trace.Target("live.queues",
                          "repro.live.queues:IngestQueues.drain"),)
    with pytest.raises(ValueError):
        with trace.installed(trace.Recorder(), table):
            pass


def test_every_table_layer_is_a_reported_layer():
    assert {target.layer for target in trace.TABLE} <= set(trace.LAYERS)
    names = [metric["name"] for metric in trace.per_layer_spec()]
    assert len(names) == len(set(names)) <= 128


# -- compare -------------------------------------------------------------------

@pytest.mark.parametrize("base, new, better, expected", [
    ([10.0, 10.1, 9.9], [10.2, 10.0, 10.1], "lower", "same"),
    ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "lower", "worse"),
    ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "higher", "better"),
    ([10.0, 13.0, 8.0], [11.5, 9.0, 14.0], "lower", "unresolved"),
    ([10.0, 13.0, 8.0], [7.0, 6.0, 7.5], "lower", "better"),
])
def test_compare_reading(base, new, better, expected):
    assert compare.judge(base, new, better, 0.08)[0] == expected


# -- the suite -----------------------------------------------------------------

def test_benchmark_json_lists_what_the_suite_reports():
    with open(os.path.join(cli.ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert contract["paths"] == ["benchmarks/suite"]
    assert contract["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in cli.END_TO_END]
    assert contract["per_layer"] == trace.per_layer_spec()
    assert contract["workloads"] == [
        {"name": workload.name, "why": workload.why}
        for workload in workloads.WORKLOADS]
    assert contract["run_seconds"] == cli.DEFAULT_SECONDS


def test_same_seed_same_scenario_with_the_workload_signature():
    workload = workloads.BY_NAME["live_deep"]
    spec = workloads.scenario(workload, 3)
    assert spec == workloads.scenario(workload, 3)
    assert spec != workloads.scenario(workload, 4)
    assert workloads.signature(
        workloads.SyntheticFleetSource(spec)) == workload.signature


def test_quick_suite_runs_all_checks(tmp_path):
    out = str(tmp_path / "quick.json")
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--out", out], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.perf_counter() - started < 30
    with open(out) as handle:
        suite = json.load(handle)
    assert sorted(suite["workloads"]) == sorted(workloads.BY_NAME)
    assert suite["fingerprint"]["thread_pins"] == {
        name: "1" for name in cli.THREAD_PINS}
    layer_names = [metric["name"] for metric in trace.per_layer_spec()]
    for name, doc in suite["workloads"].items():
        assert doc["correct"] and doc["problems"] == []
        assert doc["info"]["ops_attempted"] > 0
        assert doc["info"]["ops_failed"] == 0
        assert sorted(doc["layers"]) == sorted(layer_names)
        assert doc["trace"]["self_sum_s"] == pytest.approx(
            doc["trace"]["root_s"])
        assert doc["trace"]["missing"] == []
        assert (doc["layers"]["live.checkpoint.busy_s"] > 0) == (
            name == "live_recover")
    assert os.path.exists(out + ".live_deep.folded")
    # A/A through the compare command: identical files read "same".
    assert cli.main(["compare", "--base", out, "--new", out]) == 0
