"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``detect``   — declare behaviour changes in one KPI series CSV.
* ``assess``   — full FUNNEL assessment: treated (+ optional control /
  history) wide CSVs around a change minute; prints the verdict.
* ``generate`` — write a synthetic treated/control pair to CSV, for
  trying the tool without production data.
* ``cost``     — measure the Table 2 per-window costs on this machine.
* ``assess-fleet`` — run the batched assessment engine over a synthetic
  fleet scenario (changes x impact sets x KPIs) and print the report,
  including per-stage calls and seconds and precision/recall against the
  scenario's ground truth.  With ``--obs-dir <d>`` the run also records
  structured observability artifacts (``events.jsonl`` + ``run.json``).
* ``live-replay`` — stream the same synthetic fleet scenario through
  the live assessment service (``repro.live``) in accelerated virtual
  time; optionally verify the verdict stream against the offline engine
  (``--check-offline``) and write it as JSONL (``--verdicts``).
  ``--checkpoint``/``--resume-from`` snapshot and restore the session
  state mid-stream; ``--kill-after-ticks`` simulates a crash.
* ``chaos-replay`` — ``live-replay`` under a named fault plan
  (``repro.faults``): delayed/dropped/duplicated/reordered pushes,
  transient history errors, agent silence.  Asserts the live verdicts
  still match the offline engine; exits 1 on a parity failure.
* ``obs report`` — profile a recorded ``--obs-dir`` run: per-stage /
  per-detector time breakdown (self vs. child time, slowest jobs) as an
  ASCII table plus the run's counters (including the live pipeline's
  shed/gap counters), optionally exporting flamegraph ``folded``
  stacks.
* ``obs health-report`` — render a live run's heartbeat stream
  (``live-replay --health <path>``): SLO attainment, burn alerts, lag
  percentiles over time, and the self-assessment's detections;
  ``--min/--max-self-detections`` turn it into a CI gate.

All commands emit JSON on stdout so they compose with shell tooling —
except ``obs report``, whose default output is the human-readable
table (pass ``--json`` for a machine-readable profile).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .core.funnel import Funnel, FunnelConfig
from .core.rsst import ImprovedSSTParams
from .exceptions import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FUNNEL: impact assessment of software changes "
                    "(CoNEXT'15 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version="repro %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="declare behaviour changes in "
                            "one series CSV (timestamp,value)")
    detect.add_argument("series", help="long-format CSV path")
    detect.add_argument("--change-minute", type=int, default=0,
                        help="bin index of the software change "
                             "(default: 0 = scan everything)")
    _add_funnel_options(detect)

    assess = sub.add_parser("assess", help="assess one change with "
                            "treated/control wide CSVs")
    assess.add_argument("treated", help="wide CSV of treated units")
    assess.add_argument("--control", help="wide CSV of control units "
                        "(cservers/cinstances)")
    assess.add_argument("--history", help="wide CSV whose columns are "
                        "historical days (same clock window)")
    assess.add_argument("--change-minute", type=int, required=True,
                        help="bin index of the software change")
    _add_funnel_options(assess)

    generate = sub.add_parser("generate", help="write a synthetic "
                              "treated/control pair to CSV")
    generate.add_argument("--out-treated", required=True)
    generate.add_argument("--out-control", required=True)
    generate.add_argument("--character", default="stationary",
                          choices=("seasonal", "stationary", "variable"))
    generate.add_argument("--effect-sigmas", type=float, default=6.0)
    generate.add_argument("--minutes", type=int, default=240)
    generate.add_argument("--change-minute", type=int, default=120)
    generate.add_argument("--seed", type=int, default=0)

    cost = sub.add_parser("cost", help="measure per-window costs "
                          "(Table 2) on this machine")
    cost.add_argument("--seconds", type=float, default=0.5,
                      help="measurement budget per method")

    fleet = sub.add_parser("assess-fleet", help="assess a synthetic fleet "
                           "scenario through the batched engine")
    _add_scenario_options(fleet)
    fleet.add_argument("--detectors", default="funnel",
                       help="comma-separated methods "
                            "(funnel,improved_sst,cusum,mrls,wow)")
    fleet.add_argument("--batch-size", type=int, default=16,
                       help="jobs per executor batch")
    fleet.add_argument("--obs-dir",
                       help="directory to write run artifacts "
                            "(events.jsonl + run.json) into")
    fleet.add_argument("--verdicts",
                       help="also write one JSON line per "
                            "(change, entity, KPI) verdict here")
    _add_funnel_options(fleet)

    live = sub.add_parser(
        "live-replay",
        help="stream a synthetic fleet scenario through the live "
             "assessment service in accelerated virtual time")
    _add_live_replay_options(live)
    live.add_argument("--check-offline", action="store_true",
                      help="also run the offline engine and verify the "
                           "verdict sets match")
    _add_funnel_options(live)

    chaos = sub.add_parser(
        "chaos-replay",
        help="live-replay under an injected fault plan, asserting "
             "live-vs-offline verdict parity survives")
    _add_live_replay_options(chaos)
    chaos.add_argument("--plan", default="drop-delay-dup",
                       help="named fault plan: %s" % ", ".join(
                           _chaos_plan_names()))
    chaos.add_argument("--fault-seed", type=int, default=0,
                       help="seed of the fault plan's deterministic coin")
    chaos.add_argument("--fault-offset-bins", type=int, default=0,
                       help="push windowed faults (agent-silence) this "
                            "many bins into the stream — a mid-run "
                            "outage instead of a cold-start one")
    _add_funnel_options(chaos)

    obs = sub.add_parser("obs", help="observability tooling")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report", help="profile a recorded --obs-dir run")
    report.add_argument("obs_dir", help="directory written by --obs-dir")
    report.add_argument("--top", type=int, default=10,
                        help="slowest jobs to list")
    report.add_argument("--folded",
                        help="also write flamegraph folded stacks here")
    report.add_argument("--json", action="store_true",
                        help="emit the profile as JSON instead of a table")
    health = obs_sub.add_parser(
        "health-report",
        help="render a live run's heartbeat stream: SLO attainment, "
             "burn alerts, lag over time, self-assessment verdicts")
    health.add_argument("heartbeat",
                        help="heartbeat JSONL written by --health")
    health.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    health.add_argument("--out",
                        help="also write the JSON report here "
                             "(dashboard export)")
    health.add_argument("--min-self-detections", type=int, default=None,
                        help="exit 1 unless at least this many "
                             "self-assessment detections were recorded")
    health.add_argument("--max-self-detections", type=int, default=None,
                        help="exit 1 when more than this many "
                             "self-assessment detections were recorded")

    return parser


def _chaos_plan_names() -> tuple:
    from .faults import PRESET_NAMES
    return PRESET_NAMES


def _add_scenario_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--services", type=int, default=6,
                     help="services in the generated fleet")
    sub.add_argument("--servers", type=int, default=48,
                     help="servers in the generated fleet")
    sub.add_argument("--changes", type=int, default=8,
                     help="software changes to assess")
    sub.add_argument("--impact-fraction", type=float, default=0.5,
                     help="fraction of changes with genuine impact")
    sub.add_argument("--history-days", type=int, default=2,
                     help="days of lead telemetry (historical control)")
    sub.add_argument("--seed", type=int, default=7)


def _add_live_replay_options(live: argparse.ArgumentParser) -> None:
    _add_scenario_options(live)
    live.add_argument("--window-bins", type=int, default=240,
                      help="bins per change window")
    live.add_argument("--change-offset", type=int, default=80,
                      help="change bin inside its window")
    live.add_argument("--flush-bins", type=int, default=1,
                      help="bins per streamed fragment")
    live.add_argument("--score-chunk", type=int, default=6,
                      help="bins batched per streaming scoring call "
                           "(throughput knob; verdicts are unaffected)")
    live.add_argument("--queue-capacity", type=int, default=64,
                      help="per-KPI ingest queue bound, in fragments")
    live.add_argument("--drain-budget", type=int, default=0,
                      help="fragments drained per tick across all "
                           "changes (0 = unlimited)")
    live.add_argument("--max-active-changes", type=int, default=0,
                      help="cap on concurrently assessed changes "
                           "(0 = unlimited)")
    live.add_argument("--checkpoint",
                      help="write a session checkpoint (JSONL) here "
                           "periodically")
    live.add_argument("--checkpoint-every", type=int, default=25,
                      help="ticks between checkpoints")
    live.add_argument("--resume-from",
                      help="restore session state from this checkpoint "
                           "and continue the replay")
    live.add_argument("--kill-after-ticks", type=int, default=0,
                      help="stop mid-stream after N ticks without "
                           "shutdown (crash simulation; 0 = run to "
                           "completion)")
    live.add_argument("--verdicts",
                      help="write the verdict stream as JSONL here")
    live.add_argument("--obs-dir",
                      help="directory to write run artifacts into")
    live.add_argument("--health",
                      help="write a per-tick health heartbeat stream "
                           "(JSONL) here; enables SLO tracking and the "
                           "self-assessment of the assessor's own KPIs "
                           "(verdict output is unaffected)")


def _add_funnel_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--omega", type=int, default=9,
                     help="SST window (5=quick, 9=default, 15=precise)")
    sub.add_argument("--did-threshold", type=float, default=0.5,
                     help="normalised DiD attribution threshold")


def _funnel_config(args: argparse.Namespace) -> FunnelConfig:
    return FunnelConfig(sst=ImprovedSSTParams(omega=args.omega),
                        did_threshold=args.did_threshold)


def _scenario_spec(args: argparse.Namespace, **windows: int):
    """The fleet scenario of the shared flags; the live commands add
    their ``window_bins`` / ``change_offset``."""
    from .engine import FleetScenarioSpec
    return FleetScenarioSpec(
        n_services=args.services,
        n_servers=args.servers,
        n_changes=args.changes,
        impact_fraction=args.impact_fraction,
        history_days=args.history_days,
        seed=args.seed,
        **windows,
    )


def _live_setup(args: argparse.Namespace, overrides: Optional[dict] = None):
    """Scenario spec and parity :class:`LiveConfig` of a live run."""
    from .live import parity_live_config
    spec = _scenario_spec(args, window_bins=args.window_bins,
                          change_offset=args.change_offset)
    return spec, parity_live_config(
        spec, funnel_config=_funnel_config(args),
        score_chunk_bins=args.score_chunk,
        queue_capacity=args.queue_capacity,
        max_fragments_per_tick=args.drain_budget,
        max_active_changes=args.max_active_changes,
        **(overrides or {}),
    )


def _fault_plan(args: argparse.Namespace):
    """The ``--plan`` fault plan and the live-config overrides it needs."""
    from .faults import DELAY, preset_plan
    from .telemetry.timeseries import MINUTE

    plan = preset_plan(args.plan, seed=args.fault_seed,
                       lead_time=args.history_days * 24 * 60 * MINUTE,
                       bin_seconds=MINUTE, offset_bins=args.fault_offset_bins)
    # The close grace must cover the worst injected delivery delay so
    # late releases still drain before the session settles.
    grace = max((rule.delay_bins for rule in plan.rules
                 if rule.kind == DELAY), default=0) * MINUTE
    return plan, {"repair_from_store": True, "close_grace_seconds": grace}


def _summarise_lags(out: dict) -> None:
    """Fold the raw per-verdict lag lists (for the JSONL/bench consumers)
    into one mean: the CLI summary keeps the document small."""
    lags = out.pop("detection_lag_bins")
    out["mean_detection_lag_bins"] = (
        round(float(np.mean(lags)), 2) if lags else None)
    out.pop("emission_lag_seconds")


def _cmd_detect(args: argparse.Namespace) -> dict:
    from .io.csvio import read_series
    series = read_series(args.series)
    funnel = Funnel(_funnel_config(args))
    changes = funnel.detect(series.values, change_index=args.change_minute)
    return {
        "series_bins": len(series),
        "changes": [
            {
                "declared_at_bin": c.index,
                "start_bin": c.start_index,
                "kind": c.kind,
                "direction": c.direction,
                "score": round(c.score, 4),
            }
            for c in changes
        ],
    }


def _cmd_assess(args: argparse.Namespace) -> dict:
    from .io.csvio import read_matrix
    treated, units, _, _ = read_matrix(args.treated)
    control = history = None
    if args.control:
        control, _, _, _ = read_matrix(args.control)
    if args.history:
        history, _, _, _ = read_matrix(args.history)
    funnel = Funnel(_funnel_config(args))
    result = funnel.assess(treated, args.change_minute, control=control,
                           history=history)
    out = {
        "verdict": result.verdict.value,
        "control": result.control,
        "treated_units": len(units),
    }
    if result.did_estimate is not None:
        out["did_normalised_alpha"] = round(result.did_estimate, 4)
    if result.change is not None:
        out["change"] = {
            "declared_at_bin": result.change.index,
            "start_bin": result.change.start_index,
            "kind": result.change.kind,
            "direction": result.change.direction,
        }
    if result.notes:
        out["notes"] = list(result.notes)
    return out


def _cmd_generate(args: argparse.Namespace) -> dict:
    from .io.csvio import write_matrix
    from .synthetic.effects import LevelShift
    from .synthetic.patterns import pattern_for_character
    from .synthetic.workload import GroupTraceConfig, generate_group
    from .types import KpiCharacter

    rng = np.random.default_rng(args.seed)
    pattern = pattern_for_character(KpiCharacter(args.character))
    scale = pattern.typical_scale()
    traces = generate_group(GroupTraceConfig(
        pattern=pattern,
        n_treated=4, n_control=12, n_bins=args.minutes,
        unit_offset_sigma=0.5 * scale, idiosyncratic_sigma=0.6 * scale,
        treated_effects=(LevelShift(
            start=args.change_minute,
            magnitude=args.effect_sigmas * scale),),
    ), rng)
    write_matrix(traces.treated,
                 ["treated-%d" % i for i in range(4)], 0, 60,
                 args.out_treated)
    write_matrix(traces.control,
                 ["control-%d" % i for i in range(12)], 0, 60,
                 args.out_control)
    return {
        "treated": args.out_treated,
        "control": args.out_control,
        "change_minute": args.change_minute,
        "character": args.character,
    }


def _cmd_cost(args: argparse.Namespace) -> dict:
    from .eval.cost import measure_method_costs
    reports = measure_method_costs(min_seconds=args.seconds)
    return {
        name: {
            "us_per_window": round(r.microseconds_per_window, 2),
            "cores_for_1m_kpis": r.cores_for(),
        }
        for name, r in reports.items()
    }


def _write_fleet_verdicts(fh, jobs, results) -> None:
    for job, result in zip(jobs, results):
        fh.write(json.dumps({
            "change_id": job.change_id,
            "entity_type": job.entity_type,
            "entity": job.entity,
            "metric": job.metric,
            "detector": result.detector,
            "verdict": getattr(result.verdict, "value", "no_change"),
            "declaration_bin": result.outcome.detection_index,
            "did_estimate": result.did_estimate,
            "control": result.control,
        }, sort_keys=True) + "\n")


def _cmd_assess_fleet(args: argparse.Namespace) -> dict:
    from .engine import AssessmentEngine, EngineConfig, SyntheticFleetSource
    from .obs import ObsContext, write_run_artifacts

    source = SyntheticFleetSource(_scenario_spec(args))
    obs = ObsContext() if args.obs_dir else None
    engine = AssessmentEngine(
        detectors=tuple(name.strip()
                        for name in args.detectors.split(",") if name.strip()),
        config=EngineConfig(batch_size=args.batch_size),
        funnel_config=_funnel_config(args),
        obs=obs,
    )
    if args.verdicts:
        # Opened before the run: a bad path costs milliseconds, not jobs.
        os.makedirs(os.path.dirname(args.verdicts) or ".", exist_ok=True)
        with open(args.verdicts, "w", encoding="utf-8") as fh:
            report, jobs, results = engine.assess_fleet(source)
            _write_fleet_verdicts(fh, jobs, results)
    else:
        report, _, _ = engine.assess_fleet(source)
    detectors = sorted(spec.name for spec in engine.specs)
    out = report.as_dict()
    if args.verdicts:
        out["verdicts_path"] = args.verdicts
    out["scenario"] = scenario = {
        "services": args.services,
        "servers": args.servers,
        "changes": args.changes,
        "detectors": detectors,
    }
    if obs is not None:
        written = write_run_artifacts(
            args.obs_dir, obs,
            config=dict(scenario, impact_fraction=args.impact_fraction,
                        history_days=args.history_days,
                        batch_size=args.batch_size, omega=args.omega,
                        did_threshold=args.did_threshold),
            seeds={"scenario": args.seed},
            stages=report.stages,
        )
        out["obs"] = dict(out.get("obs", {}), **written)
    return out


def _run_live_replay(args: argparse.Namespace, command: str,
                     fault_plan=None, check_offline: bool = False,
                     config_overrides: Optional[dict] = None) -> dict:
    from .live import JsonlVerdictSink, replay_scenario
    from .obs import ObsContext, write_run_artifacts

    spec, live_config = _live_setup(args, config_overrides)
    obs = ObsContext() if args.obs_dir else None
    sink = JsonlVerdictSink(args.verdicts) if args.verdicts else None
    health = None
    if args.health:
        from .obs import HealthMonitor
        health = HealthMonitor(heartbeat_path=args.health)
    try:
        report = replay_scenario(
            spec, live_config=live_config, flush_bins=args.flush_bins,
            check_offline=check_offline, obs=obs, sink=sink,
            fault_plan=fault_plan,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume_from=args.resume_from,
            kill_after_ticks=args.kill_after_ticks or None,
            health=health)
    finally:
        if sink is not None:
            sink.close()
    out = report.as_dict()
    _summarise_lags(out)
    if args.verdicts:
        out["verdicts_path"] = args.verdicts
    if health is not None:
        out["health_path"] = args.health
    if args.checkpoint:
        out["checkpoint_path"] = args.checkpoint
    if obs is not None:
        written = write_run_artifacts(
            args.obs_dir, obs,
            config={
                "command": command,
                "services": args.services,
                "servers": args.servers,
                "changes": args.changes,
                "flush_bins": args.flush_bins,
                "score_chunk": args.score_chunk,
                "queue_capacity": args.queue_capacity,
                "drain_budget": args.drain_budget,
                "max_active_changes": args.max_active_changes,
                "omega": args.omega,
                "did_threshold": args.did_threshold,
            },
            seeds={"scenario": args.seed},
        )
        out["obs"] = written
    return out


def _cmd_live_replay(args: argparse.Namespace) -> dict:
    return _run_live_replay(args, "live-replay",
                            check_offline=args.check_offline)


def _cmd_chaos_replay(args: argparse.Namespace):
    plan, overrides = _fault_plan(args)
    out = _run_live_replay(args, "chaos-replay", fault_plan=plan,
                           check_offline=True, config_overrides=overrides)
    parity = out.get("parity")
    parity_ok = None if parity is None else parity["ok"]
    out["chaos"] = {
        "plan": args.plan,
        "fault_seed": args.fault_seed,
        "parity_ok": parity_ok,
    }
    # A killed run has no parity verdict to enforce; anything else must
    # match the offline engine exactly.
    return out, (0 if parity_ok or out.get("killed") else 1)


def _cmd_obs(args: argparse.Namespace):
    if args.obs_command == "health-report":
        return _cmd_obs_health_report(args)
    return _cmd_obs_report(args)


def _cmd_obs_health_report(args: argparse.Namespace):
    from .obs import (build_health_report, load_heartbeat,
                      render_health_report)

    report = build_health_report(load_heartbeat(args.heartbeat))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    detections = len(report["self_detections"])
    code = 0
    if args.min_self_detections is not None \
            and detections < args.min_self_detections:
        code = 1
    if args.max_self_detections is not None \
            and detections > args.max_self_detections:
        code = 1
    if args.json:
        return dict(report, exit_reason=(
            None if code == 0 else
            "self-detection count %d outside the required bounds"
            % detections)), code
    text = render_health_report(report)
    if code:
        text += ("ERROR: self-detection count %d outside the required "
                 "bounds (min=%s, max=%s)\n"
                 % (detections, args.min_self_detections,
                    args.max_self_detections))
    return text, code


def _cmd_obs_report(args: argparse.Namespace):
    from .obs import (build_profile, folded_stacks, load_run, render_report,
                      report_document)

    run = load_run(args.obs_dir)
    profile = build_profile(run.spans, top_jobs=args.top)
    if args.folded:
        lines = folded_stacks(profile)
        with open(args.folded, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    if args.json:
        doc = report_document(run, profile)
        if args.folded:
            doc["folded"] = args.folded
        return doc
    text = render_report(run, profile)
    if args.folded:
        text += "\nFolded stacks written to %s\n" % args.folded
    return text


_COMMANDS = {
    "detect": _cmd_detect,
    "assess": _cmd_assess,
    "generate": _cmd_generate,
    "cost": _cmd_cost,
    "assess-fleet": _cmd_assess_fleet,
    "live-replay": _cmd_live_replay,
    "chaos-replay": _cmd_chaos_replay,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    code = 0
    if isinstance(result, tuple):
        result, code = result
    if isinstance(result, str):
        print(result, end="" if result.endswith("\n") else "\n")
    else:
        print(json.dumps(result, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
