"""Outside-in layer trace: spans around the public callables of each layer.

The program is not edited.  For one extra repeat the callables listed in
:data:`TABLE` are replaced by closures that record a span (layer, name,
parent, start, end) and a few counts read off arguments and return
values; every original is put back afterwards.  A layer's busy time is
its *self* time — span duration minus the part covered by child spans —
so the layers of one repeat add up to the root span exactly.

A target that no longer exists is skipped and reported as *missing*; one
that was never called is reported as *unhit*.  Neither is an error, so a
later change may delete a mode without editing this table.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

#: ``counts(args, result)`` returns ``{counter name: increment}``; ``args``
#: includes ``self`` for methods.
Counts = Callable[[tuple, object], Dict[str, int]]

ROOT_LAYER = "suite"


class Target(NamedTuple):
    layer: str
    path: str                     # "module:function" or "module:Class.method"
    counts: Optional[Counts] = None

    @property
    def name(self) -> str:
        return self.path.split(":")[1]


def _sessions(args, result):
    return {"live.watcher.admitted": len(result),
            "live.watcher.trackers": sum(len(s.trackers) for s in result)}


def _scores(args, result):
    return {"core.ika.points": int(np.isfinite(result).sum()),
            "core.ika.rows": len(result)}


TABLE: Tuple[Target, ...] = (
    Target("telemetry.store", "repro.telemetry.store:MetricStore.append",
           lambda a, r: {"telemetry.store.fragments": 1}),
    Target("telemetry.store", "repro.telemetry.store:MetricStore.append_batch",
           lambda a, r: {"telemetry.store.fragments": len(a[1])}),
    Target("telemetry.store", "repro.telemetry.store:MetricStore.subscribe"),
    Target("telemetry.store", "repro.telemetry.store:MetricStore.range"),
    Target("telemetry.store", "repro.telemetry.store:MetricStore.series"),
    Target("telemetry.store", "repro.telemetry.store:MetricStore.window_matrix"),
    Target("live.queues", "repro.live.queues:IngestQueues.offer",
           lambda a, r: {"live.queues.offered": 1,
                         "live.queues.shed": 0 if r else 1}),
    Target("live.queues", "repro.live.queues:IngestQueues.offer_batch",
           lambda a, r: {"live.queues.offered": len(a[1]),
                         "live.queues.shed": len(a[1]) - r}),
    Target("live.watcher", "repro.live.watcher:ChangeWatcher.poll", _sessions),
    Target("live.watcher", "repro.live.watcher:ChangeWatcher.finish"),
    Target("live.scheduler", "repro.live.scheduler:EventTimeScheduler.tick"),
    Target("live.assessor", "repro.live.assessor:LiveAssessor.on_fragment",
           lambda a, r: {"live.assessor.fragments": 1}),
    Target("live.assessor", "repro.live.assessor:LiveAssessor.on_fragment_batch",
           lambda a, r: {"live.assessor.fragments": len(a[2])}),
    Target("live.assessor", "repro.live.assessor:LiveAssessor.pool_score"),
    Target("live.assessor", "repro.live.assessor:LiveAssessor.reconcile_session"),
    Target("live.assessor", "repro.live.assessor:LiveAssessor.close_session"),
    Target("live.detector", "repro.live.detector:IncrementalDetector.extend"),
    Target("live.detector", "repro.live.detector:IncrementalDetector.flush"),
    Target("live.detector", "repro.live.detector:IncrementalDetector.scan"),
    Target("live.detector", "repro.live.detector:IncrementalDetector.apply_scores"),
    Target("live.pool", "repro.live.pool:DetectorPool.score_pending",
           lambda a, r: {"live.pool.rows": len(a[1])}),
    Target("core.ika", "repro.core.ika:IkaSST.scores_batch", _scores),
    Target("core.scoring", "repro.core.scoring:robust_normalise"),
    Target("core.scoring", "repro.core.scoring:robust_normalise_batch"),
    Target("core.scoring", "repro.core.scoring:declare_changes"),
    Target("core.funnel", "repro.core.funnel:Funnel.detect"),
    Target("core.funnel", "repro.core.funnel:Funnel.detect_batch"),
    Target("core.funnel", "repro.core.funnel:Funnel.attribute"),
    Target("core.funnel", "repro.core.funnel:Funnel.assess"),
    Target("core.did", "repro.core.did:DiDEstimator.fit"),
    Target("live.bus", "repro.live.bus:VerdictBus.publish",
           lambda a, r: {"live.bus.published": 1 if r else 0,
                         "live.bus.duplicates": 0 if r else 1}),
    Target("live.checkpoint", "repro.live.checkpoint:Checkpointer.on_tick",
           lambda a, r: {"live.checkpoint.written": 1 if r else 0}),
    Target("live.checkpoint", "repro.live.checkpoint:load_checkpoint"),
    Target("live.checkpoint", "repro.live.checkpoint:restore_service"),
    Target("engine.fleet", "repro.engine.fleet:SyntheticFleetSource.__init__"),
    Target("engine.fleet", "repro.engine.fleet:SyntheticFleetSource.observed_series"),
    Target("engine.fleet", "repro.engine.fleet:SyntheticFleetSource.history"),
    Target("engine.fleet", "repro.engine.fleet:SyntheticFleetSource.fetch"),
    Target("engine.executor", "repro.engine.executor:execute_jobs"),
    Target("engine.executor", "repro.engine.executor:run_job"),
    Target("engine.executor", "repro.engine.batching:run_detect_batch"),
    Target("engine.executor", "repro.engine.batching:run_attribution_batch"),
)

#: Every layer, outermost first.  The spans of ``live.replay`` and
#: ``engine.planner`` are opened by the benchmark's own driver (see
#: workloads.py); the rest come from :data:`TABLE`.
LAYERS = (
    "live.replay", "telemetry.store", "live.queues", "live.watcher",
    "live.scheduler", "live.assessor", "live.detector", "live.pool",
    "core.ika", "core.scoring", "core.funnel", "core.did", "live.bus",
    "live.checkpoint", "engine.fleet", "engine.planner", "engine.executor",
)

#: ``(name, unit, better)`` of every per-layer metric beyond
#: ``<layer>.busy_s`` / ``<layer>.calls``.
EXTRA_METRICS = (
    ("live.replay.self_share", "ratio", "lower"),
    ("telemetry.store.read_s", "s", "lower"),
    ("telemetry.store.read_calls", "count", "lower"),
    ("telemetry.store.fragments", "count", "lower"),
    ("telemetry.store.us_per_fragment", "us", "lower"),
    ("live.queues.offered", "count", "lower"),
    ("live.queues.shed", "count", "lower"),
    ("live.queues.peak_depth", "count", "lower"),
    ("live.watcher.admitted", "count", "higher"),
    ("live.watcher.trackers", "count", "higher"),
    ("live.assessor.fragments", "count", "lower"),
    ("live.assessor.close_s", "s", "lower"),
    ("live.detector.us_per_extend", "us", "lower"),
    ("live.pool.rows_per_call", "count", "higher"),
    ("core.ika.points", "count", "lower"),
    ("core.ika.us_per_point", "us", "lower"),
    ("core.ika.rows_per_call", "count", "higher"),
    ("core.scoring.declare_s", "s", "lower"),
    ("core.did.fits", "count", "lower"),
    ("live.bus.published", "count", "higher"),
    ("live.bus.duplicates", "count", "lower"),
    ("live.checkpoint.snapshot_s", "s", "lower"),
    ("live.checkpoint.restore_s", "s", "lower"),
    ("live.checkpoint.written", "count", "lower"),
    ("live.checkpoint.resume_s", "s", "lower"),
    ("live.checkpoint.last_kb", "kB", "lower"),
    ("engine.fleet.fetch_s", "s", "lower"),
    ("engine.planner.jobs", "count", "higher"),
    ("engine.cache.hit_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.missing", "count", "lower"),
    ("trace.unhit", "count", "lower"),
)


def per_layer_spec() -> List[dict]:
    """The ``per_layer`` list of ``BENCHMARK.json``."""
    spec = []
    for layer in LAYERS:
        spec.append({"name": layer + ".busy_s", "unit": "s", "better": "lower"})
        spec.append({"name": layer + ".calls", "unit": "count",
                     "better": "lower"})
    spec.extend({"name": name, "unit": unit, "better": better}
                for name, unit, better in EXTRA_METRICS)
    return spec


class Recorder:
    """In-memory spans and counters of one traced repeat."""

    def __init__(self) -> None:
        #: ``[layer, name, parent index, start, end]`` in start order.
        self.spans: List[list] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self.installed: List[Target] = []
        self._stack: List[int] = []

    def _open(self, layer: str, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, parent, time.perf_counter(), None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """A span the benchmark's own driver opens around a call."""
        index = self._open(layer, name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, target: Target, original: Callable) -> Callable:
        """``original`` with a span around it; arguments and result pass
        through untouched."""
        layer, name, counts = target.layer, target.name, target.counts
        counters = self.counters

        def traced(*args, **kwargs):
            index = self._open(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if counts is not None:
                for key, increment in counts(args, result).items():
                    counters[key] += increment
            return result

        traced.__wrapped__ = original
        return traced


def _resolve(path: str) -> Optional[Tuple[object, str, Callable]]:
    """``(owner, attribute, plain function)`` of a target, else ``None``."""
    module_name, _, dotted = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = dotted.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    original = inspect.getattr_static(owner, attribute, None)
    if not isinstance(original, types.FunctionType):
        return None
    if inspect.isgeneratorfunction(original):
        raise ValueError("%s is a generator function: a span around the call "
                         "would end before its body runs" % path)
    return owner, attribute, original


@contextmanager
def installed(recorder: Recorder,
              table: Tuple[Target, ...] = TABLE) -> Iterator[Recorder]:
    """Wrap every resolvable target of ``table``; restore all on exit.

    A module-level function is also rebound in every loaded ``repro``
    module that imported it by name, or those callers would keep calling
    the original.
    """
    patched: List[Tuple[object, str, object]] = []
    try:
        for target in table:
            resolved = _resolve(target.path)
            if resolved is None:
                recorder.missing.append(target.path)
                continue
            owner, attribute, original = resolved
            traced = recorder.wrap(target, original)
            recorder.installed.append(target)
            if inspect.ismodule(owner):
                for module_name, module in list(sys.modules.items()):
                    if module is None or not (
                            module_name == "repro"
                            or module_name.startswith("repro.")):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, key, original))
                            setattr(module, key, traced)
            else:
                patched.append((owner, attribute, original))
                setattr(owner, attribute, traced)
        yield recorder
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


class Aggregate(NamedTuple):
    root_s: float
    #: ``{(layer, name): [self seconds, calls]}``
    targets: Dict[Tuple[str, str], List[float]]
    #: ``{"root;layer.name;...": self microseconds}`` for flame graphs.
    folded: Dict[str, int]


def aggregate(spans: List[list], slowdown: float = 1.0) -> Aggregate:
    """Self time per target and per stack, every duration divided by the
    host's ``slowdown`` during the repeat; one root span is required."""
    roots = [i for i, span in enumerate(spans) if span[2] < 0]
    if len(roots) != 1:
        raise ValueError("expected one root span, found %d" % len(roots))
    covered = [0.0] * len(spans)
    spans = [[layer, name, parent, start / slowdown, end / slowdown]
             for layer, name, parent, start, end in spans]
    for layer, name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    targets: Dict[Tuple[str, str], List[float]] = defaultdict(
        lambda: [0.0, 0])
    folded: Dict[str, float] = defaultdict(float)
    stacks: List[str] = []
    for index, (layer, name, parent, start, end) in enumerate(spans):
        self_s = (end - start) - covered[index]
        entry = targets[(layer, name)]
        entry[0] += self_s
        entry[1] += 1
        frame = "%s.%s" % (layer, name)
        stacks.append(frame if parent < 0 else stacks[parent] + ";" + frame)
        folded[stacks[index]] += self_s
    root = spans[roots[0]]
    return Aggregate(root[4] - root[3], dict(targets),
                     {stack: int(round(value * 1e6))
                      for stack, value in folded.items()})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


STORE_READS = ("MetricStore.range", "MetricStore.series",
               "MetricStore.window_matrix")


def layer_metrics(recorder: Recorder, slowdown: float, untraced_wall_s: float,
                  extra: Dict[str, float]) -> Tuple[Dict[str, float], dict]:
    """Every per-layer metric of one traced repeat, absent layers as 0.

    Times are normalised by the host's ``slowdown`` during the repeat,
    like the end-to-end metrics ``untraced_wall_s`` comes from.
    ``extra`` carries what a span cannot see (queue peak depth, cache hit
    ratio, the untraced resume time).  Also returns a detail document:
    per-target self times, the missing and unhit targets, folded stacks.
    """
    agg = aggregate(recorder.spans, slowdown)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[layer + ".busy_s"] = 0.0
        metrics[layer + ".calls"] = 0
    for name, _, _ in EXTRA_METRICS:
        metrics[name] = 0.0
    for (layer, name), (self_s, calls) in agg.targets.items():
        if layer != ROOT_LAYER:
            metrics[layer + ".busy_s"] += self_s
            metrics[layer + ".calls"] += calls

    def self_s(layer, *names):
        return sum(agg.targets.get((layer, n), (0.0, 0))[0] for n in names)

    def calls(layer, *names):
        return sum(agg.targets.get((layer, n), (0.0, 0))[1] for n in names)

    counters = recorder.counters
    for name in ("telemetry.store.fragments", "live.queues.offered",
                 "live.queues.shed", "live.watcher.admitted",
                 "live.watcher.trackers", "live.assessor.fragments",
                 "core.ika.points", "live.bus.published",
                 "live.bus.duplicates", "live.checkpoint.written"):
        metrics[name] = counters.get(name, 0)
    metrics["live.replay.self_share"] = _ratio(
        metrics["live.replay.busy_s"], agg.root_s)
    read_s = self_s("telemetry.store", *STORE_READS)
    metrics["telemetry.store.read_s"] = read_s
    metrics["telemetry.store.read_calls"] = calls("telemetry.store",
                                                  *STORE_READS)
    metrics["telemetry.store.us_per_fragment"] = 1e6 * _ratio(
        metrics["telemetry.store.busy_s"] - read_s,
        metrics["telemetry.store.fragments"])
    metrics["live.assessor.close_s"] = self_s(
        "live.assessor", "LiveAssessor.close_session")
    metrics["live.detector.us_per_extend"] = 1e6 * _ratio(
        self_s("live.detector", "IncrementalDetector.extend"),
        calls("live.detector", "IncrementalDetector.extend"))
    metrics["live.pool.rows_per_call"] = _ratio(
        counters.get("live.pool.rows", 0), metrics["live.pool.calls"])
    metrics["core.ika.us_per_point"] = 1e6 * _ratio(
        metrics["core.ika.busy_s"], metrics["core.ika.points"])
    metrics["core.ika.rows_per_call"] = _ratio(
        counters.get("core.ika.rows", 0), metrics["core.ika.calls"])
    metrics["core.scoring.declare_s"] = self_s("core.scoring",
                                               "declare_changes")
    metrics["core.did.fits"] = metrics["core.did.calls"]
    metrics["live.checkpoint.snapshot_s"] = self_s(
        "live.checkpoint", "Checkpointer.on_tick")
    metrics["live.checkpoint.restore_s"] = self_s(
        "live.checkpoint", "load_checkpoint", "restore_service")
    metrics["engine.fleet.fetch_s"] = self_s("engine.fleet",
                                             "SyntheticFleetSource.fetch")
    metrics.update(extra)
    metrics["trace.overhead_ratio"] = _ratio(agg.root_s, untraced_wall_s)
    metrics["trace.unattributed_share"] = _ratio(
        sum(entry[0] for (layer, _), entry in agg.targets.items()
            if layer == ROOT_LAYER), agg.root_s)
    unhit = [target.path for target in recorder.installed
             if (target.layer, target.name) not in agg.targets]
    metrics["trace.missing"] = len(recorder.missing)
    metrics["trace.unhit"] = len(unhit)
    detail = {
        "root_s": agg.root_s,
        "host_slowdown": slowdown,
        "self_sum_s": sum(entry[0] for entry in agg.targets.values()),
        "spans": len(recorder.spans),
        "targets": {"%s %s" % key: {"self_s": entry[0], "calls": entry[1]}
                    for key, entry in sorted(agg.targets.items())},
        "missing": list(recorder.missing),
        "unhit": unhit,
        "folded": agg.folded,
    }
    return metrics, detail
