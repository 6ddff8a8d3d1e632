"""Textual reporting: render experiment results like the paper's figures.

The paper's Figures 5, 9 and 10 are bar-chart matrices — one row of
panels per metric, one bar group per (query, parameter). A terminal
harness renders the same information as tables: one table per metric,
variants as rows, (query, parameter) cells as columns.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.bench.experiments import FigureCell
from repro.bench.runner import Aggregate

#: metric label -> accessor on Aggregate.
_METRICS: dict[str, Callable[[Aggregate], float]] = {
    "timeouts (%)": lambda a: a.timeout_pct,
    "opt time (ms)": lambda a: a.avg_time_ms,
    "memory (KB)": lambda a: a.avg_memory_kb,
    "pareto plans": lambda a: a.avg_pareto_plans,
    "iterations": lambda a: a.avg_iterations,
    "w-cost (%)": lambda a: a.avg_weighted_cost_pct,
    "infeasible (%)": lambda a: a.infeasible_pct,
}

#: Metrics shown for each figure (papers' panel rows).
FIGURE5_METRICS = ("timeouts (%)", "opt time (ms)", "memory (KB)",
                   "pareto plans")
FIGURE9_METRICS = ("timeouts (%)", "opt time (ms)", "memory (KB)",
                   "pareto plans", "w-cost (%)")
FIGURE10_METRICS = ("timeouts (%)", "opt time (ms)", "memory (KB)",
                    "iterations", "w-cost (%)", "infeasible (%)")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "-"
    if value == float("inf"):
        return "inf"
    if value == 0:
        return "0"
    if abs(value) >= 1e5:
        return f"{value:.2e}"
    if abs(value) >= 100:
        return f"{value:.0f}"
    if abs(value) >= 1:
        return f"{value:.1f}"
    return f"{value:.3f}"


def format_table(
    title: str,
    column_labels: Sequence[str],
    rows: Sequence[tuple[str, Sequence[float]]],
) -> str:
    """Render one metric table with aligned columns."""
    header = ["variant", *column_labels]
    body = [
        [label, *(_format_value(v) for v in values)] for label, values in rows
    ]
    widths = [
        max(len(str(line[i])) for line in [header, *body])
        for i in range(len(header))
    ]
    lines = [title]
    lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for line in body:
        lines.append(
            "  ".join(str(cell).rjust(w) for cell, w in zip(line, widths))
        )
    return "\n".join(lines)


def format_figure(
    title: str,
    cells: Sequence[FigureCell],
    metrics: Sequence[str],
    parameter_label: str = "l",
) -> str:
    """Render a full figure: one table per metric."""
    if not cells:
        return f"{title}\n(no data)"
    column_labels = [
        f"q{cell.query_number}/{parameter_label}={cell.parameter}"
        for cell in cells
    ]
    variant_labels = list(cells[0].aggregates)
    blocks = [title, ""]
    for metric in metrics:
        accessor = _METRICS[metric]
        rows = [
            (
                variant,
                [accessor(cell.aggregates[variant]) for cell in cells],
            )
            for variant in variant_labels
        ]
        blocks.append(format_table(metric, column_labels, rows))
        blocks.append("")
    return "\n".join(blocks)


def format_series(title: str, data: dict[str, list[float]],
                  x_key: str = "n") -> str:
    """Render aligned numeric series (used for the Figure 7 curves)."""
    xs = data[x_key]
    names = [k for k in data if k != x_key]
    rows = [(name, data[name]) for name in names]
    column_labels = [f"{x_key}={x:g}" for x in xs]
    return format_table(title, column_labels, rows)


def log_scale_summary(values: Sequence[float]) -> str:
    """Order-of-magnitude summary, e.g. ``1e2..1e6`` (for quick checks)."""
    finite = [v for v in values if 0 < v < float("inf")]
    if not finite:
        return "-"
    low = math.floor(math.log10(min(finite)))
    high = math.ceil(math.log10(max(finite)))
    return f"1e{low}..1e{high}"
