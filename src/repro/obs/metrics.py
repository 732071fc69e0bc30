"""A small metrics registry: counters, gauges, fixed-bucket histograms.

The registry backs the engine's runtime metrics — jobs assessed per
detector, per-stage latency histograms, fetched bytes, baseline-cache
hits — exported by :meth:`MetricsRegistry.snapshot` as a JSON-safe dict,
written into run artifacts.

Everything is plain dicts keyed by sorted label tuples; there is no
locking because each engine run owns its registry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "LATENCY_BUCKETS", "BYTE_BUCKETS"]

LabelKey = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds): ~0.1 ms to 10 s, log-ish spacing.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Default size buckets (bytes): 256 B to 16 MiB, powers of four.
BYTE_BUCKETS: Tuple[float, ...] = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
    1048576.0, 4194304.0, 16777216.0)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    if not labels:         # the hot form: a label-free ``inc()``
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.values: Dict[LabelKey, float] = {}

    def inc(self, n: float = 1, **labels: str) -> None:
        key = _label_key(labels)
        self.values[key] = self.values.get(key, 0) + n

    def value(self, **labels: str) -> float:
        return self.values.get(_label_key(labels), 0)

    def total(self) -> float:
        return sum(self.values.values())


class Gauge:
    """A point-in-time value (e.g. a queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self.values[_label_key(labels)] = value

    def inc(self, n: float = 1, **labels: str) -> None:
        key = _label_key(labels)
        self.values[key] = self.values.get(key, 0) + n

    def value(self, **labels: str) -> float:
        return self.values.get(_label_key(labels), 0)


class Histogram:
    """Fixed-bucket histogram, one row of bucket counts per label set.

    ``buckets`` are upper bounds, strictly increasing; an implicit
    ``+Inf`` bucket always exists.  Counts are stored per bucket
    (non-cumulative), as :meth:`MetricsRegistry.snapshot` reports them.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2
                             in zip(bounds, bounds[1:])):
            raise ValueError(
                "histogram buckets must be non-empty and strictly "
                "increasing: %r" % (buckets,))
        self.name = name
        self.help = help
        self.buckets = bounds
        #: label key -> [per-bucket counts..., overflow count]
        self.counts: Dict[LabelKey, List[int]] = {}
        self.sums: Dict[LabelKey, float] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        row = self.counts.get(key)
        if row is None:
            row = [0] * (len(self.buckets) + 1)
            self.counts[key] = row
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        row[index] += 1
        self.sums[key] = self.sums.get(key, 0.0) + value

    def count(self, **labels: str) -> int:
        row = self.counts.get(_label_key(labels))
        return sum(row) if row else 0

    def percentile(self, q: float, **labels: str) -> Optional[float]:
        """Estimate the ``q``-th percentile from the bucket counts.

        Linear interpolation within the bucket holding the target rank:
        observations inside a bucket are assumed uniform between the
        previous bound and the bucket's own upper bound (the first
        bucket interpolates from ``min(0, buckets[0])``).  The estimate
        is exact at bucket boundaries and never worse than one bucket
        width off; overflow observations clamp to the top finite bound,
        which *understates* the tail — pick buckets that cover it.
        Returns ``None`` when nothing was observed for the label set.
        """
        row = self.counts.get(_label_key(labels))
        total = sum(row) if row else 0
        if not total:
            return None
        rank = (q / 100.0) * total
        cumulative = 0.0
        lower = min(0.0, self.buckets[0])
        for bound, n in zip(self.buckets, row):
            if n and cumulative + n >= rank:
                fraction = min(1.0, max(0.0, (rank - cumulative) / n))
                return lower + (bound - lower) * fraction
            cumulative += n
            lower = bound
        return self.buckets[-1]


class MetricsRegistry:
    """Named metrics for one run."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, kind: type, **kwargs) -> object:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ValueError("metric %r already registered as %s"
                             % (name, metric.kind))
        return metric

    def get(self, name: str) -> Optional[object]:
        """Peek at a metric without creating it (``None`` if absent)."""
        return self._metrics.get(name)

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._get(name, Histogram, help=help, buckets=buckets)

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe dump of every metric, labels flattened to dicts."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = {
                    "help": metric.help,
                    "values": [{"labels": dict(key), "value": value}
                               for key, value
                               in sorted(metric.values.items())],
                }
            elif isinstance(metric, Gauge):
                out["gauges"][name] = {
                    "help": metric.help,
                    "values": [{"labels": dict(key), "value": value}
                               for key, value
                               in sorted(metric.values.items())],
                }
            else:
                out["histograms"][name] = {
                    "help": metric.help,
                    "buckets": list(metric.buckets),
                    "values": [{"labels": dict(key),
                                "counts": list(metric.counts[key]),
                                "sum": metric.sums.get(key, 0.0),
                                "count": sum(metric.counts[key])}
                               for key in sorted(metric.counts)],
                }
        return out
