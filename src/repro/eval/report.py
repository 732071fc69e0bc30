"""Plain-text rendering of the reproduced tables and figures.

The benchmark harness prints the same rows/series the paper reports;
these helpers keep the formatting in one place.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["format_table", "format_percent", "render_table1",
           "render_table2", "render_ccdf", "render_ascii_series"]


def format_percent(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "   n/a"
    return "%6.2f%%" % (100.0 * value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 title: str = "") -> str:
    """Monospace table with per-column width fitting."""
    columns = [list(map(str, col)) for col in
               zip(headers, *rows)] if rows else [[h] for h in headers]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(str(c).ljust(w)
                                for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_table1(rows: List[Dict]) -> str:
    """Render Table 1 rows produced by ``EvaluationResult.table1``."""
    body = []
    for row in rows:
        body.append([
            row["method"], row["type"], "%d" % round(row["total"]),
            format_percent(row["precision"]),
            format_percent(row["recall"]),
            format_percent(row["tnr"]),
            format_percent(row["accuracy"]),
        ])
    return format_table(
        ["Algorithm", "Type", "Total", "Precision", "Recall", "TNR",
         "Accuracy"],
        body,
        title="Table 1: Precision, Recall, TNR and Accuracy per KPI type",
    )


def render_table2(reports: Dict[str, "CostReport"]) -> str:
    """Render Table 2 from :func:`repro.eval.cost.measure_method_costs`."""
    order = [name for name in ("funnel", "cusum", "mrls", "exact_sst")
             if name in reports]
    body = []
    for name in order:
        report = reports[name]
        us = report.microseconds_per_window
        if us < 1000:
            runtime = "%.1f us" % us
        elif us < 1e6:
            runtime = "%.3f ms" % (us / 1e3)
        else:
            runtime = "%.3f s" % (us / 1e6)
        body.append([name, runtime, "%d" % report.cores_for()])
    return format_table(
        ["Method", "Run time per window", "Cores for 1M KPIs"],
        body,
        title="Table 2: Comparison of computational time",
    )


def render_ccdf(curves: Dict[str, tuple]) -> str:
    """Tabulate CCDF curves (Fig. 5) at a coarse minute grid."""
    methods = sorted(curves)
    grid_points = [0, 5, 10, 15, 20, 25, 30, 40, 50, 60]
    rows = []
    for g in grid_points:
        row = ["%d min" % g]
        for method in methods:
            grid, fractions = curves[method]
            idx = int(np.searchsorted(grid, g))
            idx = min(idx, len(fractions) - 1)
            row.append("%5.1f%%" % fractions[idx])
        rows.append(row)
    return format_table(["Delay >", *methods], rows,
                        title="Fig. 5: CCDF of detection delay")


def render_ascii_series(values: Sequence[float], height: int = 12,
                        title: str = "") -> str:
    """Coarse ASCII plot of one series, at most 72 columns wide (for the
    Fig. 2/6/7 benches)."""
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        return "(empty series)"
    if data.size > 72:
        # Downsample by block mean to the plot width.
        usable = (data.size // 72) * 72
        data = data[:usable].reshape(72, -1).mean(axis=1)
    lo, hi = float(data.min()), float(data.max())
    span = hi - lo or 1.0
    levels = np.clip(((data - lo) / span * (height - 1)).round(), 0,
                     height - 1).astype(int)
    canvas = [[" "] * data.size for _ in range(height)]
    for x, level in enumerate(levels):
        canvas[height - 1 - level][x] = "*"
    lines = []
    if title:
        lines.append(title)
    lines.append("%10.2f +%s" % (hi, "".join(canvas[0])))
    for row in canvas[1:-1]:
        lines.append("           |%s" % "".join(row))
    lines.append("%10.2f +%s" % (lo, "".join(canvas[-1])))
    return "\n".join(lines)
