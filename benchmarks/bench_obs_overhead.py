"""Observability overhead: engine and live throughput, obs off vs. on.

Two rounds, both best-of-``ROUNDS`` with modes interleaved so clock
drift hits them equally:

* **engine** — the same synthetic fleet job set through
  :func:`repro.engine.execute_jobs` with no observability attached and
  with a full :class:`repro.obs.ObsContext` (spans, metrics, worker
  telemetry channel), serially — the serial path pays the channel on
  every batch, so it upper-bounds the per-job cost.
* **live health** — a 16x-fleet pooled live replay with no health
  telemetry vs. a full :class:`repro.obs.HealthMonitor` (per-tick
  heartbeat JSONL, SLO burn tracking, FUNNEL-on-FUNNEL
  self-assessment).  The fault-free replay must also self-detect
  nothing — the zero-false-positive half of the health contract.

Writes ``benchmarks/BENCH_obs.json``; the acceptance target is <5%
overhead for each round.

Scale with ``REPRO_BENCH_OBS_CHANGES`` (changes in the engine fleet
scenario, default 6) and ``REPRO_BENCH_OBS_LIVE_SCALE`` (live fleet
multiplier, default 16).  Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
"""

import json
import os
import pathlib
import tempfile
import time

from repro.engine import (EngineConfig, FleetScenarioSpec,
                          SyntheticFleetSource, execute_jobs,
                          reset_shared_cache, spec_for_method)
from repro.live import parity_live_config, replay_scenario
from repro.obs import HealthConfig, HealthMonitor, ObsContext

OUT_PATH = pathlib.Path(__file__).parent / "BENCH_obs.json"

ROUNDS = 3
#: The live replay is sub-second at bench scale and its wall time has a
#: long noise tail (GC, heartbeat flushes hitting disk), so its best-of
#: needs more rounds to converge than the engine round does.
LIVE_ROUNDS = 5
OVERHEAD_BUDGET = 0.05


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                        # non-Linux fallback
        return os.cpu_count() or 1


def _fleet_jobs():
    n_changes = int(os.environ.get("REPRO_BENCH_OBS_CHANGES", "6"))
    source = SyntheticFleetSource(FleetScenarioSpec(
        n_services=5, n_servers=40, n_changes=n_changes,
        history_days=1, seed=13))
    return list(source.plan_jobs([spec_for_method("funnel"),
                                  spec_for_method("improved_sst")]))


def _one_round(jobs, config, observed: bool):
    reset_shared_cache()
    obs = ObsContext() if observed else None
    started = time.perf_counter()
    results = execute_jobs(jobs, config=config, obs=obs)
    elapsed = time.perf_counter() - started
    return elapsed, len(results), (obs.span_count if obs else 0)


def _measure(jobs):
    """Both modes, rounds interleaved so clock drift (CPU warm-up,
    frequency scaling) hits them equally; best-of per mode."""
    config = EngineConfig(workers=0, batch_size=8)
    _one_round(jobs, config, observed=True)       # shared warm-up
    best = {False: float("inf"), True: float("inf")}
    span_count = 0
    n_jobs = 0
    for _ in range(ROUNDS):
        for observed in (False, True):
            elapsed, n_jobs, spans = _one_round(jobs, config, observed)
            best[observed] = min(best[observed], elapsed)
            span_count = max(span_count, spans)
    return [{
        "observed": observed,
        "jobs": n_jobs,
        "rounds": ROUNDS,
        "best_seconds": round(best[observed], 4),
        "items_per_second": round(n_jobs / best[observed], 2),
        "span_count": span_count if observed else 0,
    } for observed in (False, True)]


def _live_spec() -> FleetScenarioSpec:
    scale = int(os.environ.get("REPRO_BENCH_OBS_LIVE_SCALE", "16"))
    return FleetScenarioSpec(
        n_services=2 * scale, n_servers=8 * scale, n_changes=2,
        window_bins=120, change_offset=60, history_days=1, seed=7)


def _one_live_round(spec, with_health: bool, heartbeat_dir):
    config = parity_live_config(spec, score_chunk_bins=8)
    health = None
    if with_health:
        health = HealthMonitor(HealthConfig(heartbeat_path=os.path.join(
            heartbeat_dir, "heartbeat.jsonl")))
    report = replay_scenario(spec, live_config=config, flush_bins=4,
                             health=health)
    detections = (len(report.service_report["health"]["self_detections"])
                  if with_health else 0)
    return report.wall_seconds, report.fragments_streamed, detections


def _measure_live():
    """Live replay with and without health telemetry, interleaved."""
    spec = _live_spec()
    best = {False: float("inf"), True: float("inf")}
    fragments = 0
    detections = 0
    with tempfile.TemporaryDirectory() as heartbeat_dir:
        _one_live_round(spec, True, heartbeat_dir)    # shared warm-up
        for _ in range(LIVE_ROUNDS):
            for with_health in (False, True):
                elapsed, fragments, found = _one_live_round(
                    spec, with_health, heartbeat_dir)
                best[with_health] = min(best[with_health], elapsed)
                if with_health:
                    detections = max(detections, found)
    return [{
        "health": with_health,
        "servers": spec.n_servers,
        "fragments_streamed": fragments,
        "rounds": LIVE_ROUNDS,
        "best_seconds": round(best[with_health], 4),
        "fragments_per_second": round(fragments / best[with_health], 1),
        "self_detections": detections if with_health else 0,
    } for with_health in (False, True)]


def run_bench() -> dict:
    jobs = _fleet_jobs()
    baseline, observed = _measure(jobs)
    overhead = (observed["best_seconds"] / baseline["best_seconds"]) - 1.0
    live_baseline, live_health = _measure_live()
    live_overhead = (live_health["best_seconds"]
                     / live_baseline["best_seconds"]) - 1.0
    report = {
        "cpus": _usable_cpus(),
        "job_count": len(jobs),
        "baseline": baseline,
        "observed": observed,
        "overhead_fraction": round(overhead, 4),
        "live_baseline": live_baseline,
        "live_health": live_health,
        "live_overhead_fraction": round(live_overhead, 4),
        "overhead_budget": OVERHEAD_BUDGET,
    }
    OUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def test_obs_overhead(benchmark):
    report = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    print()
    print("Observability overhead (%d jobs, serial, best of %d):"
          % (report["job_count"], ROUNDS))
    print("  obs off  %8.1f items/s" %
          report["baseline"]["items_per_second"])
    print("  obs on   %8.1f items/s  (%d spans)" %
          (report["observed"]["items_per_second"],
           report["observed"]["span_count"]))
    print("  overhead %+7.2f%%" % (100 * report["overhead_fraction"]))
    print("Live health overhead (%d servers, pooled, best of %d):"
          % (report["live_baseline"]["servers"], LIVE_ROUNDS))
    print("  health off %8.0f frag/s" %
          report["live_baseline"]["fragments_per_second"])
    print("  health on  %8.0f frag/s" %
          report["live_health"]["fragments_per_second"])
    print("  overhead %+7.2f%%" % (100 * report["live_overhead_fraction"]))

    assert report["baseline"]["jobs"] == report["job_count"]
    assert report["observed"]["span_count"] > report["job_count"]
    assert report["overhead_fraction"] < OVERHEAD_BUDGET
    assert report["live_overhead_fraction"] < OVERHEAD_BUDGET
    # The health contract's zero-false-positive half: a fault-free
    # replay's self-assessment must declare nothing.
    assert report["live_health"]["self_detections"] == 0


if __name__ == "__main__":
    print(json.dumps(run_bench(), indent=2, sort_keys=True))
