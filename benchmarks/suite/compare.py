"""``compare --base A.json [...] --new B.json [...]`` — A/A and A/B reading.

Each file is a result written with ``--out`` (a whole suite or a single
workload).  One row per (workload, end-to-end metric): both medians with
their quartiles over the supplied runs, the change with its base, the
bound, and a reading:

``better`` / ``worse``
    the medians differ by more than the bound;
``same``
    they do not;
``unresolved``
    the run-to-run spread is wider than the bound and the two sets
    interleave, so the runs cannot tell — not the same as unchanged.

Outputs that are a pure function of the seed (verdict digest, operation
counts, detection lag, accuracy, checkpoint size) must be identical
wherever the same workload and seed appear.  Exit code 1 on any
``worse`` or any such difference.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from .timing import quartile_spread

DETERMINISTIC_METRICS = ("detect_lag_bins_p50", "precision", "recall")
DETERMINISTIC_INFO = ("verdicts_sha", "ops_attempted", "ops_failed",
                      "declared", "detect_lag_bins_p95", "checkpoint_kb",
                      "steps", "work")


def judge(base: Sequence[float], new: Sequence[float], better: str,
          bound: float) -> Tuple[str, float, float]:
    """``(reading, change, spread)``; ``change`` is a share of the base
    median, positive when ``new`` is worse."""
    base_median, base_q1, base_q3 = quartile_spread(base)
    new_median, new_q1, new_q3 = quartile_spread(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new_median - base_median) / abs(base_median)
    spread = max((base_q3 - base_q1) / abs(base_median),
                 (new_q3 - new_q1) / abs(new_median))
    pairs = [sign * (b - a) for a in base for b in new]
    separated = all(p < 0 for p in pairs) or all(p > 0 for p in pairs)
    if spread > bound and not separated:
        return "unresolved", change, spread
    if change > bound:
        return "worse", change, spread
    if change < -bound:
        return "better", change, spread
    return "same", change, spread


def _workload_docs(paths: Sequence[str]) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = defaultdict(list)
    for path in paths:
        with open(path) as handle:
            doc = json.load(handle)
        for run in doc["workloads"].values() if "workloads" in doc else [doc]:
            runs[run["workload"]].append(run)
    return runs


def _deterministic(run: dict) -> tuple:
    return (tuple(run["metrics"].get(name) for name in DETERMINISTIC_METRICS)
            + tuple(run["info"].get(name) for name in DETERMINISTIC_INFO))


def main(argv: Sequence[str], metrics: Dict[str, Tuple[str, float]]) -> int:
    """``metrics`` maps each end-to-end metric to ``(better, bound)``."""
    parser = argparse.ArgumentParser(prog="benchmarks.suite compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, metavar="JSON")
    parser.add_argument("--new", nargs="+", required=True, metavar="JSON")
    args = parser.parse_args(argv)
    base, new = _workload_docs(args.base), _workload_docs(args.new)
    bad = False
    print("%-13s %-20s %28s %28s %9s %6s %7s  %s" % (
        "workload", "metric", "base median [q1, q3] (n)",
        "new median [q1, q3] (n)", "change", "bound", "spread", "reading"))
    for workload in sorted(set(base) & set(new)):
        for name, (better, bound) in metrics.items():
            a = [run["metrics"][name] for run in base[workload]]
            b = [run["metrics"][name] for run in new[workload]]
            if None in a or None in b:
                continue
            reading, change, spread = judge(a, b, better, bound)
            bad |= reading == "worse"
            print("%-13s %-20s %28s %28s %+8.1f%% %5.0f%% %6.1f%%  %s" % (
                workload, name, _cell(a), _cell(b), 100 * change,
                100 * bound, 100 * spread, reading))
        by_seed = defaultdict(set)
        for run in base[workload] + new[workload]:
            by_seed[run["seed"]].add(_deterministic(run))
        differing = sorted(seed for seed, seen in by_seed.items()
                           if len(seen) > 1)
        bad |= bool(differing)
        print("%-13s deterministic outputs: %s" % (
            workload, "DIFFER for seed %s" % differing if differing
            else "identical per seed (%d seeds)" % len(by_seed)))
    print("change: share of the base median, + is worse; spread: widest "
          "(q3 - q1) / median of the two sets")
    return 1 if bad else 0


def _cell(values: Sequence[float]) -> str:
    median, q1, q3 = quartile_spread(values)
    return "%.5g [%.5g, %.5g] (%d)" % (median, q1, q3, len(values))
