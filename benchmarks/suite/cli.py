"""The suite's protocol and command line (entered through ``run.py``).

::

    run.py --workload NAME --seed N --seconds S --trace 0|1   one workload
    run.py [--seconds S] [--out result.json] [--quick]        all four
    run.py compare A.json B.json [...]                        A/A or A/B

One workload runs in this process on one thread.  Without ``--workload``
each workload gets an OS process of its own (so ``peak_rss_mb`` is its
own) and is run traced, which yields both metric families.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Iterator

_IMPORT_STARTED = time.perf_counter()
import numpy  # noqa: E402

from . import compare, trace, workloads  # noqa: E402
from .run import THREAD_PINS  # noqa: E402
from .timing import (host_slowdown, percentile, probe_block,  # noqa: E402
                     step_medians, tail)

IMPORT_S = time.perf_counter() - _IMPORT_STARTED

#: ``(name, unit, better, bound)`` — the ``end_to_end`` list of
#: ``BENCHMARK.json``.  Every workload reports every one of them.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("step_ms_p50", "ms", "lower", 0.25),
    ("step_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.08),
    ("detect_lag_bins_p50", "bins", "lower", 0.10),
    ("precision", "ratio", "higher", 0.05),
    ("recall", "ratio", "higher", 0.05),
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

MIN_REPEATS = 3
DEFAULT_SECONDS = 20
QUICK_SECONDS = 1


def fingerprint() -> dict:
    """The host and toolchain a result was measured on."""
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_rev": _git_rev(),
    }


def _git_rev():
    """HEAD of the checkout, read off the files; ``None`` outside git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return None


@contextmanager
def _scratch() -> Iterator[str]:
    """A scratch directory inside the checkout, removed afterwards."""
    parent = os.path.join(HERE, ".work")
    os.makedirs(parent, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=parent) as path:
            yield path
    finally:
        try:
            os.rmdir(parent)
        except OSError:          # another run's scratch is still in there
            pass


def _measure(workload, spec, seconds: float, workdir: str):
    """Repeat the step sequence for ``seconds`` (to the nearest repeat),
    probing the host before and after each; returns the repeats and the
    host's slowdown during each."""
    repeats, blocks = [], [probe_block()]
    started = time.perf_counter()
    while True:
        gc.collect()
        repeats.append(workloads.run(workload, spec, workdir))
        blocks.append(probe_block())
        elapsed = time.perf_counter() - started
        if (len(repeats) >= MIN_REPEATS
                and elapsed + elapsed / len(repeats) / 2 >= seconds):
            return repeats, [host_slowdown(before, after) for before, after
                             in zip(blocks, blocks[1:])]


def run_workload(workload, seed: int, seconds: float, traced: bool,
                 quick: bool = False) -> dict:
    """Verify, measure and (optionally) trace one workload."""
    spec = workloads.scenario(workload, seed, quick)
    with _scratch() as workdir:
        reference, problems = workloads.verify(workload, spec, workdir)
        repeats, slowdowns = _measure(workload, spec, seconds, workdir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for index, outcome in enumerate(repeats):
            problems.extend(outcome.info.get("problems", ()))
            if outcome.digest != reference.digest:
                problems.append("repeat %d: verdict digest %s != reference %s"
                                % (index, outcome.digest[:12],
                                   reference.digest[:12]))
        steps = step_medians([[step / slowdown for step in outcome.steps]
                              for outcome, slowdown in zip(repeats, slowdowns)])
        doc = _end_to_end(workload, spec, repeats, steps, reference)
        doc["metrics"]["peak_rss_mb"] = peak_rss_mb
        doc["info"].update(
            host_slowdown=statistics.median(slowdowns),
            raw_wall_s=sum(step_medians([o.steps for o in repeats])))
        if not quick:
            problems.extend("metric %s is undefined" % name
                            for name, value in doc["metrics"].items()
                            if value is None)
        if traced:
            recorder = trace.Recorder()
            before = probe_block()
            with trace.installed(recorder), recorder.span(trace.ROOT_LAYER,
                                                          "repeat"):
                outcome = workloads.run(workload, spec, workdir, recorder)
            slowdown = host_slowdown(before, probe_block())
            extra = dict(outcome.info.get("layer", ()))
            if "resume_s" in doc["info"]:
                extra["live.checkpoint.resume_s"] = doc["info"]["resume_s"]
                extra["live.checkpoint.last_kb"] = doc["info"]["checkpoint_kb"]
            doc["layers"], doc["trace"] = trace.layer_metrics(
                recorder, slowdown, doc["info"]["wall_s"], extra)
    doc.update(workload=workload.name, seed=seed, scenario_seed=spec.seed,
               quick=quick, problems=problems, correct=not problems,
               fingerprint=fingerprint())
    return doc


def _end_to_end(workload, spec, repeats, steps, reference) -> dict:
    """End-to-end metrics from the step medians of the untraced repeats."""
    wall_s = sum(steps)
    rest = steps[1:]                  # step 0 is set-up plus the first step
    tail_q, tail_s = tail(rest)
    score = workloads.quality(spec, reference.records)
    lags = score.pop("detect_lags")
    p50_s = percentile(rest, 50)
    metrics = {
        "setup_s": steps[0],
        "work_per_s": repeats[0].work / wall_s,
        "step_ms_p50": None if p50_s is None else 1e3 * p50_s,
        "step_ms_tail": None if tail_s is None else 1e3 * tail_s,
        "detect_lag_bins_p50": percentile(lags, 50),
        "precision": score.pop("precision"),
        "recall": score.pop("recall"),
    }
    info = dict(score)
    info.update(
        failed_share=info["ops_failed"] / info["ops_attempted"],
        detect_lag_bins_p95=percentile(lags, 95),
        verdicts_sha=reference.digest, wall_s=wall_s, import_s=IMPORT_S,
        repeats=len(repeats), steps=len(steps), tail_percentile=tail_q,
        work=repeats[0].work, work_unit=workload.work_unit)
    if "resume_step" in repeats[0].info:
        info["resume_s"] = steps[repeats[0].info["resume_step"]]
        info["checkpoint_kb"] = repeats[0].info["checkpoint_bytes"] / 1000
        info["checkpoints_written"] = repeats[0].info["checkpoints_written"]
    return {"metrics": metrics, "info": info, "layers": None, "trace": None}


def _units() -> dict:
    units = {name: unit for name, unit, _, _ in END_TO_END}
    units.update((m["name"], m["unit"]) for m in trace.per_layer_spec())
    return units


def report(doc: dict) -> None:
    """Every metric by name with its unit, then the driver's result line."""
    units = _units()
    info = doc["info"]
    print("== %s seed=%d scenario_seed=%d%s" % (
        doc["workload"], doc["seed"], doc["scenario_seed"],
        " (quick)" if doc["quick"] else ""))
    print("   samples: %d repeats x %d steps, %d declared verdicts, tail = p%s"
          % (info["repeats"], info["steps"], info["declared"],
             info["tail_percentile"]))
    for name, value in doc["metrics"].items():
        print("   %-24s %s %s" % (name, _show(value), units[name]))
    for name in ("ops_attempted", "ops_failed", "failed_share", "wall_s",
                 "raw_wall_s", "host_slowdown", "import_s",
                 "detect_lag_bins_p95", "resume_s", "checkpoint_kb",
                 "verdicts_sha"):
        if name in info:
            print("   %-24s %s" % (name, _show(info[name])))
    if doc["layers"] is not None:
        print("   -- layers (one traced repeat: root %.3f s, self times sum "
              "%.3f s)" % (doc["trace"]["root_s"], doc["trace"]["self_sum_s"]))
        for name, value in doc["layers"].items():
            if value:
                print("   %-34s %s %s" % (name, _show(value), units[name]))
        for key in ("missing", "unhit"):
            if doc["trace"][key]:
                print("   trace.%s: %s" % (key, ", ".join(doc["trace"][key])))
    for problem in doc["problems"]:
        print("   CHECK FAILED: %s" % problem)
    shown = doc["layers"] if doc["layers"] is not None else doc["metrics"]
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": info["ops_attempted"],
        "failed": info["ops_failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in shown.items()},
    }))


def _show(value) -> str:
    if value is None:
        return "null"
    return "%.6g" % value if isinstance(value, float) else str(value)


def _write(path: str, doc: dict) -> None:
    folded = (doc.get("trace") or {}).pop("folded", None)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if folded is not None:
        with open(path + ".folded", "w") as handle:
            for stack, micros in sorted(folded.items()):
                handle.write("%s %d\n" % (stack, micros))


def run_suite(args) -> int:
    """All workloads, one OS process each, into one result document."""
    suite = {"fingerprint": fingerprint(), "workloads": {}}
    failed = False
    with _scratch() as scratch:
        for workload in workloads.WORKLOADS:
            path = os.path.join(scratch, workload.name + ".json")
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload.name, "--trace", "1",
                       "--seconds", str(args.seconds), "--out", path]
            if args.seed is not None:
                command += ["--seed", str(args.seed)]
            if args.quick:
                command.append("--quick")
            failed |= subprocess.run(command).returncode != 0
            with open(path) as result:
                suite["workloads"][workload.name] = json.load(result)
            if args.out:
                shutil.move(path + ".folded",
                            "%s.%s.folded" % (args.out, workload.name))
    # A target no workload reaches is dead weight in the table — or a
    # default path that moved away from it.
    unhit = [set(doc["trace"]["unhit"])
             for doc in suite["workloads"].values()]
    suite["unhit_everywhere"] = sorted(set.intersection(*unhit))
    print("== unhit on every workload: %s"
          % (", ".join(suite["unhit_everywhere"]) or "none"))
    if args.out:
        _write(args.out, suite)
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare.main(argv[1:], {name: (better, bound) for
                                       name, _, better, bound in END_TO_END})
    parser = argparse.ArgumentParser(prog="benchmarks.suite",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: fixed per workload)")
    parser.add_argument("--seconds", type=float,
                        help="how long the timed repeats run (default %d)"
                        % DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced repeat and report the "
                             "per-layer metrics on the result line")
    parser.add_argument("--quick", action="store_true",
                        help="self-test scale: seconds, not minutes")
    parser.add_argument("--out", help="write the full result JSON here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.workload is None:
        return run_suite(args)
    workload = workloads.BY_NAME[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    doc = run_workload(workload, seed, args.seconds, bool(args.trace),
                       args.quick)
    report(doc)
    if args.out:
        _write(args.out, doc)
    return 0 if doc["correct"] else 1
