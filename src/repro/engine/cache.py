"""Process-local cache of per-entity pre-change baseline statistics.

FUNNEL normalises every series by the robust median/MAD of its
pre-change baseline (:func:`repro.core.scoring.robust_normalise`).  When
the same entity's window is assessed repeatedly — several detectors over
one impact set, rolling re-assessments, the SST-only ablation next to
full FUNNEL — those statistics are identical every time.  This cache
memoises them per ``baseline_key`` so repeated windows never recompute.

The cache is an *optimisation only*: a hit returns exactly what the
recomputation would (same inputs, same ``median_and_mad`` call), so
results are bit-identical whether or not the entry is present.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Tuple

import numpy as np

from ..core.robust import median_and_mad

__all__ = ["BaselineStatsCache", "shared_cache", "reset_shared_cache"]


class BaselineStatsCache:
    """Bounded memo of ``baseline key -> (median, MAD)`` statistics."""

    def __init__(self, max_entries: int = 8192) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._stats: "OrderedDict[Hashable, Tuple[float, float]]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0

    def stats(self, key: Hashable, series: np.ndarray,
              baseline: int) -> Tuple[float, float]:
        """Median/MAD of ``series[:baseline]``, memoised under ``key``.

        The caller owns the contract that ``key`` uniquely identifies
        the baseline *content* — two calls with one key must pass
        bit-identical prefixes.
        """
        cached = self._stats.get(key)
        if cached is not None:
            self.hits += 1
            # True LRU: a hit refreshes the entry, so under fleet-scale
            # churn the hottest baselines outlive one-shot keys instead
            # of being evicted at the same age (FIFO).
            self._stats.move_to_end(key)
            return cached
        self.misses += 1
        computed = median_and_mad(np.asarray(series,
                                             dtype=np.float64)[:baseline])
        if len(self._stats) >= self.max_entries:
            self._stats.popitem(last=False)  # least recently used
        self._stats[key] = (float(computed[0]), float(computed[1]))
        return self._stats[key]

    def clear(self) -> None:
        self._stats.clear()
        self.hits = 0
        self.misses = 0

    def counters(self) -> Tuple[int, int]:
        """Current ``(hits, misses)`` — snapshot before a batch, diff
        after, and you have the batch's cache traffic (the executor's
        cache counters)."""
        return self.hits, self.misses

    def info(self) -> dict:
        """JSON-safe cache statistics."""
        return {"entries": len(self._stats), "hits": self.hits,
                "misses": self.misses, "max_entries": self.max_entries}


_SHARED = BaselineStatsCache()


def shared_cache() -> BaselineStatsCache:
    """The process-wide cache engine detectors use by default."""
    return _SHARED


def reset_shared_cache() -> None:
    """Empty the process-wide cache (test isolation helper)."""
    _SHARED.clear()
