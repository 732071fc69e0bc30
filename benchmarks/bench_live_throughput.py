"""Live-service throughput: fragments/sec and detection lag vs. fleet size.

Replays the same synthetic scenario through
:func:`repro.live.replay_scenario` at 1x / 4x / 16x the base fleet size
(servers scale; so do the subscribed KPI streams), once on the default
ingest plane and once with the fused ingest plane
(``fused_ingest=True``: store→queue→arena moves whole tick batches and
the arena scatter-writes + broadcast-normalises them), and writes
``benchmarks/BENCH_live.json`` with fragments/sec, p50/p99 detection
lag in bins, per-scale wall time, and the fused-vs-default speedup per
scale.  The numbers are one round on whatever host ran them; claims
about speed go through ``python -m benchmarks.suite``.  A final forced-overload
round (tiny queues, throttled drain budget) verifies that backpressure
keeps the peak queue depth bounded while the shed counters account for
every dropped fragment.

A second round sweeps the **shards axis** of the multi-process cluster
runtime (:mod:`repro.cluster`) on the 16x fleet and writes
``benchmarks/BENCH_cluster.json``.  Throughput there is scenario
fragments over the **critical path** — the slowest shard's CPU seconds
(``time.process_time``, measured inside each worker) plus the fan-in
merge — because shards burn CPU concurrently: on a many-core host the
elapsed wall converges to the critical path, while on a single-core CI
host the shards timeshare and elapsed stays flat even though the
per-shard work reduction is real.  Both accountings plus the host's CPU
count are recorded.

Scale with ``REPRO_BENCH_LIVE_CHANGES`` (changes per scenario, default
2) and ``REPRO_BENCH_CLUSTER_CHANGES`` (cluster round, default 4).
Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_live_throughput.py
"""

import json
import os
import pathlib
import tempfile

from repro.cluster import cluster_replay_scenario
from repro.engine import FleetScenarioSpec
from repro.live import ClusterConfig, parity_live_config, replay_scenario
from repro.live.assessor import FUSED_BATCHES_METRIC, FUSED_ROWS_METRIC
from repro.live.pool import POOLED_BATCHES_METRIC, POOLED_SERIES_METRIC
from repro.live.queues import SHED_FRAGMENTS_METRIC
from repro.obs.metrics import Histogram

OUT_PATH = pathlib.Path(__file__).parent / "BENCH_live.json"
CLUSTER_OUT_PATH = pathlib.Path(__file__).parent / "BENCH_cluster.json"

BASE_SERVICES = 2
BASE_SERVERS = 8
SCALES = (1, 4, 16)

#: Cluster round: shard counts swept on the 16x fleet.
SHARD_COUNTS = (1, 2, 4)
CLUSTER_SCALE = 16
#: 128 virtual nodes spread the 16x fleet's entities evenly enough that
#: the slowest shard stays close to the mean (the speedup ceiling).
CLUSTER_RING_REPLICAS = 128


def _spec(scale: int) -> FleetScenarioSpec:
    n_changes = int(os.environ.get("REPRO_BENCH_LIVE_CHANGES", "2"))
    return FleetScenarioSpec(
        n_services=BASE_SERVICES * scale,
        n_servers=BASE_SERVERS * scale,
        n_changes=n_changes,
        window_bins=120,
        change_offset=60,
        history_days=1,
        seed=7,
    )


#: Detection-lag buckets (bins): single-bin resolution through the
#: interesting low range, then coarser out to a full window.
LAG_BUCKETS = tuple(float(b) for b in range(1, 33)) + (
    48.0, 64.0, 96.0, 128.0, 192.0, 256.0)


def _percentile(values, q):
    """Bucketed estimate, same estimator the health telemetry reports."""
    if not values:
        return None
    hist = Histogram("bench_detection_lag_bins", buckets=LAG_BUCKETS)
    for value in values:
        hist.observe(float(value))
    return round(hist.percentile(q), 2)


def _measure(scale: int, fused: bool = False) -> dict:
    spec = _spec(scale)
    config = parity_live_config(spec, score_chunk_bins=8,
                                fused_ingest=fused)
    report = replay_scenario(spec, live_config=config, flush_bins=4)
    lags = list(report.detection_lag_bins)
    counters = report.service_report["counters"]
    doc = {
        "scale": scale,
        "services": spec.n_services,
        "servers": spec.n_servers,
        "ingest": "fused" if fused else "default",
        "fragments_streamed": report.fragments_streamed,
        "fragments_per_second": round(report.fragments_per_second, 1),
        "wall_seconds": round(report.wall_seconds, 4),
        "verdicts": len(report.verdicts),
        "detection_lag_bins_p50": _percentile(lags, 50),
        "detection_lag_bins_p99": _percentile(lags, 99),
        "peak_queue_depth": report.service_report["peak_queue_depth"],
    }
    batches = counters.get(POOLED_BATCHES_METRIC, 0)
    doc["pooled_batches"] = batches
    doc["pooled_series"] = counters.get(POOLED_SERIES_METRIC, 0)
    doc["pooled_mean_batch"] = (
        round(doc["pooled_series"] / batches, 2) if batches else None)
    if fused:
        doc["fused_batches"] = counters.get(FUSED_BATCHES_METRIC, 0)
        doc["fused_rows"] = counters.get(FUSED_ROWS_METRIC, 0)
    return doc


def _measure_overload() -> dict:
    spec = _spec(1)
    config = parity_live_config(spec, queue_capacity=2,
                                max_fragments_per_tick=8)
    report = replay_scenario(spec, live_config=config)
    counters = report.service_report["counters"]
    return {
        "queue_capacity": 2,
        "drain_budget": 8,
        "fragments_streamed": report.fragments_streamed,
        "shed_fragments": counters.get(SHED_FRAGMENTS_METRIC, 0),
        "peak_queue_depth": report.service_report["peak_queue_depth"],
        "closed_changes": report.service_report["closed_changes"],
        "verdicts": len(report.verdicts),
    }


def _cluster_spec() -> FleetScenarioSpec:
    n_changes = int(os.environ.get("REPRO_BENCH_CLUSTER_CHANGES", "4"))
    base = _spec(CLUSTER_SCALE)
    return FleetScenarioSpec(
        n_services=base.n_services, n_servers=base.n_servers,
        n_changes=n_changes, window_bins=base.window_bins,
        change_offset=base.change_offset,
        history_days=base.history_days, seed=base.seed)


def _measure_cluster(n_shards: int, workdir: str):
    spec = _cluster_spec()
    config = parity_live_config(spec, score_chunk_bins=8)
    report = cluster_replay_scenario(
        spec=spec, live_config=config, flush_bins=4,
        cluster=ClusterConfig(n_shards=n_shards,
                              replicas=CLUSTER_RING_REPLICAS),
        workdir=os.path.join(workdir, "shards-%d" % n_shards))
    doc = {
        "shards": n_shards,
        "services": spec.n_services,
        "servers": spec.n_servers,
        "changes": spec.n_changes,
        "scenario_fragments": report.scenario_fragments,
        "fragments_streamed": report.fragments_streamed,
        "verdicts": len(report.verdicts),
        "shard_cpu_seconds": {key: round(value, 4) for key, value
                              in sorted(report.shard_cpu_seconds.items())},
        "critical_path_seconds": round(report.critical_path_seconds, 4),
        "merge_seconds": round(report.merge_seconds, 4),
        "elapsed_seconds": round(report.elapsed_seconds, 4),
        "fragments_per_second": round(report.fragments_per_second, 1),
        "elapsed_fragments_per_second": round(
            report.scenario_fragments / report.elapsed_seconds, 1),
        "restarts": sum(report.restarts.values()),
        "duplicate_verdicts": report.duplicate_verdicts,
    }
    return report, doc


def run_cluster_bench() -> dict:
    workdir = tempfile.mkdtemp(prefix="repro-bench-cluster-")
    runs, reference, identical = [], None, True
    for n_shards in SHARD_COUNTS:
        report, doc = _measure_cluster(n_shards, workdir)
        if reference is None:
            reference = report.verdicts
        else:
            identical = identical and report.verdicts == reference
        runs.append(doc)
    by_shards = {run["shards"]: run for run in runs}
    out = {
        "cpus": os.cpu_count() or 1,
        "scale": CLUSTER_SCALE,
        "ring_replicas": CLUSTER_RING_REPLICAS,
        "accounting": "fragments_per_second = scenario_fragments / "
                      "critical_path_seconds (slowest shard's CPU time "
                      "+ merge); elapsed_* records the wall clock, "
                      "which only shows the speedup when cpus >= shards",
        "runs": runs,
        "merged_identical": identical,
        "speedup_4_vs_1": round(
            by_shards[4]["fragments_per_second"]
            / by_shards[1]["fragments_per_second"], 3),
        "elapsed_speedup_4_vs_1": round(
            by_shards[4]["elapsed_fragments_per_second"]
            / by_shards[1]["elapsed_fragments_per_second"], 3),
    }
    CLUSTER_OUT_PATH.write_text(
        json.dumps(out, indent=2, sort_keys=True) + "\n")
    return out


def run_bench() -> dict:
    runs = [_measure(scale) for scale in SCALES]
    fused_runs = [_measure(scale, fused=True) for scale in SCALES]
    overload = _measure_overload()
    report = {
        "runs": runs,
        "fused_runs": fused_runs,
        "fused_speedup": {
            str(scale): round(fused["fragments_per_second"]
                              / plain["fragments_per_second"], 3)
            for scale, plain, fused in zip(SCALES, runs, fused_runs)
        },
        "overload": overload,
    }
    OUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def test_live_throughput(benchmark):
    report = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    print()
    print("Live replay throughput:")
    for run in report["runs"] + report["fused_runs"]:
        print("  %2dx fleet (%3d servers, %-7s): %9.0f frag/s, "
              "lag p50=%s p99=%s bins"
              % (run["scale"], run["servers"], run["ingest"],
                 run["fragments_per_second"],
                 run["detection_lag_bins_p50"],
                 run["detection_lag_bins_p99"]))
    overload = report["overload"]
    print("  fused speedup by scale:  %s" % report["fused_speedup"])
    print("  overload: shed=%d peak_depth=%d"
          % (overload["shed_fragments"], overload["peak_queue_depth"]))

    for plain, fused in zip(report["runs"], report["fused_runs"]):
        for run in (plain, fused):
            assert run["fragments_per_second"] > 0
            assert run["verdicts"] > 0
            # Each pooled batch must actually stack several detectors.
            assert run["pooled_mean_batch"] is None or \
                run["pooled_mean_batch"] >= 1.0
        # Fusing changes how bins reach the trackers, never what they
        # say: identical verdict counts and detection-lag quantiles.
        assert fused["verdicts"] == plain["verdicts"]
        assert fused["detection_lag_bins_p50"] == \
            plain["detection_lag_bins_p50"]
        assert fused["detection_lag_bins_p99"] == \
            plain["detection_lag_bins_p99"]
        # The fused path must actually take the tensor scatter.
        assert fused["fused_batches"] > 0
        assert fused["fused_rows"] > 0
    # Backpressure: shedding happened, yet memory stayed bounded and
    # every admitted change still closed with verdicts.
    assert overload["shed_fragments"] > 0
    assert overload["peak_queue_depth"] <= 2 * 64
    assert overload["closed_changes"] > 0
    assert overload["verdicts"] > 0


def test_cluster_throughput(benchmark):
    report = benchmark.pedantic(run_cluster_bench, rounds=1, iterations=1)

    print()
    print("Cluster replay throughput (16x fleet, critical-path):")
    for run in report["runs"]:
        print("  %d shard(s): %9.0f frag/s critical-path "
              "(%.0f elapsed), crit=%.3fs, verdicts=%d"
              % (run["shards"], run["fragments_per_second"],
                 run["elapsed_fragments_per_second"],
                 run["critical_path_seconds"], run["verdicts"]))
    print("  speedup 4 vs 1: %.2fx critical-path, %.2fx elapsed "
          "(on %d cpu(s))"
          % (report["speedup_4_vs_1"],
             report["elapsed_speedup_4_vs_1"], report["cpus"]))

    # The contract: identical merged verdicts at every shard count,
    # no restarts or duplicates in a clean run.
    assert report["merged_identical"]
    first = report["runs"][0]
    for run in report["runs"]:
        assert run["verdicts"] == first["verdicts"] > 0
        assert run["restarts"] == 0
        assert run["duplicate_verdicts"] == 0
        assert run["fragments_streamed"] >= run["scenario_fragments"]
    # Sharding must genuinely cut the critical path (the committed
    # BENCH_cluster.json shows > 2.5x; 2.0 is the noise-tolerant floor).
    assert report["speedup_4_vs_1"] >= 2.0


if __name__ == "__main__":
    print(json.dumps(run_bench(), indent=2, sort_keys=True))
    print(json.dumps(run_cluster_bench(), indent=2, sort_keys=True))
