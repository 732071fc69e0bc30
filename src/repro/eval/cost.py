"""Computational-cost measurement — paper section 4.3 and Table 2.

Each method's deployed per-window work is timed single-threaded and
converted to the paper's capacity metric: the number of CPU cores needed
to keep up with one million KPIs collected and assessed every minute.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from ..baselines.cusum import CusumDetector, CusumParams
from ..baselines.mrls import MrlsDetector, MrlsParams
from ..core.ika import IkaSST
from ..core.rsst import ImprovedSST, ImprovedSSTParams
from ..exceptions import EvaluationError

__all__ = ["CostReport", "time_callable", "measure_method_costs",
           "cores_for_kpis"]


@dataclass(frozen=True)
class CostReport:
    """Per-window runtime and the derived capacity figure."""

    method: str
    seconds_per_window: float
    windows_timed: int

    @property
    def microseconds_per_window(self) -> float:
        return self.seconds_per_window * 1e6

    def cores_for(self) -> int:
        return cores_for_kpis(self.seconds_per_window)


def cores_for_kpis(seconds_per_window: float) -> int:
    """Cores needed to assess one million KPIs every minute.

    Table 2's last row: each KPI needs one window evaluation per
    collection interval, so a single core sustains
    ``60 s / seconds_per_window`` KPIs.
    """
    if seconds_per_window <= 0:
        raise EvaluationError("seconds_per_window must be positive")
    return int(math.ceil(1_000_000 * seconds_per_window / 60.0))


def time_callable(work: Callable[[], int],
                  min_seconds: float = 0.5) -> CostReport:
    """Repeat ``work`` until ``min_seconds`` of wall time accumulates (at
    most 1,000 rounds).

    ``work`` returns the number of windows it evaluated; the report's
    per-window time is total time over total windows.
    """
    total_windows = 0
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < min_seconds and rounds < 1000:
        total_windows += int(work())
        rounds += 1
    elapsed = time.perf_counter() - start
    if total_windows == 0:
        raise EvaluationError("work() evaluated zero windows")
    return CostReport(method="", seconds_per_window=elapsed / total_windows,
                      windows_timed=total_windows)


def measure_method_costs(seed: int = 5, min_seconds: float = 0.5,
                         include_exact_sst: bool = False
                         ) -> Dict[str, CostReport]:
    """Time every method's deployed per-window path on one 2,048-sample
    noise series.

    Returns a mapping method name -> :class:`CostReport`:

    * ``funnel`` — the batched IKA scorer's amortised per-window cost
      (scoring + Eq. 11 gates), the path the online tool runs;
    * ``cusum`` — one CUSUM statistic + the bootstrap significance test
      (the MERCURY deployment evaluates both per analysis window);
    * ``mrls`` — one multiscale robust-local-subspace statistic
      (iterated-SVD Robust PCA at every scale);
    * optionally ``exact_sst`` — the SVD reference path, to quantify the
      IKA speedup.
    """
    rng = np.random.default_rng(seed)
    series = 50.0 + rng.normal(0.0, 1.0, size=2048)

    reports: Dict[str, CostReport] = {}

    ika = IkaSST()
    n_windows = series.size - ika.params.window_length + 1

    def funnel_work() -> int:
        ika.scores(series)
        return n_windows

    report = time_callable(funnel_work, min_seconds)
    reports["funnel"] = CostReport("funnel", report.seconds_per_window,
                                   report.windows_timed)

    cusum = CusumDetector(CusumParams())
    cusum_window = series[:cusum.params.window]

    def cusum_work() -> int:
        cusum.statistic_for_window(cusum_window)
        cusum._bootstrap_significant(cusum_window)
        return 1

    report = time_callable(cusum_work, min_seconds)
    reports["cusum"] = CostReport("cusum", report.seconds_per_window,
                                  report.windows_timed)

    mrls = MrlsDetector(MrlsParams())
    mrls_window = series[:mrls.params.window]

    def mrls_work() -> int:
        mrls.statistic_for_window(mrls_window)
        return 1

    report = time_callable(mrls_work, min_seconds)
    reports["mrls"] = CostReport("mrls", report.seconds_per_window,
                                 report.windows_timed)

    if include_exact_sst:
        exact = ImprovedSST(ImprovedSSTParams())
        lo = exact.params.first_index()

        def exact_work() -> int:
            exact.score_at(series, lo)
            return 1

        report = time_callable(exact_work, min_seconds)
        reports["exact_sst"] = CostReport(
            "exact_sst", report.seconds_per_window, report.windows_timed)

    return reports
