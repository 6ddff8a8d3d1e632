"""Figure 9 — EXA vs RTA(1.15/1.5/2) on weighted MOQO.

Paper shape: the RTA never times out where the EXA does; it is often
orders of magnitude faster; optimization time and memory decrease as
alpha grows; and the average weighted cost of RTA plans stays far below
the worst-case guarantee (typically within a few percent of the best
plan any algorithm found).

Scale note: reduced operator space, cases per cell and timeout (see
``repro.bench.experiments``); scale up via REPRO_BENCH_* env vars.
"""

from repro.bench.experiments import figure9_experiment
from repro.bench.reporting import FIGURE9_METRICS, format_figure


def test_fig9_weighted_moqo(benchmark, report):
    cells = benchmark.pedantic(
        lambda: figure9_experiment(objective_counts=(3, 6, 9)),
        rounds=1, iterations=1,
    )
    rta_labels = ("RTA(1.15)", "RTA(1.5)", "RTA(2)")

    # Guarantee bookkeeping, reported like the paper reports its q7
    # violation: cells whose average weighted-cost percentage exceeds
    # the variant's alpha. Random objective subsets are not necessarily
    # closed under the cost model's recursive dependencies, so a few
    # violations are expected in default mode (see
    # repro.core.dp.strict_closure and the strict-mode ablation); the
    # paper observed the same on TPC-H q7.
    guarantee = {"RTA(1.15)": 115.0, "RTA(1.5)": 150.0, "RTA(2)": 200.0}
    violations = [
        (label, cell.query_number, cell.parameter,
         cell.aggregates[label].avg_weighted_cost_pct)
        for cell in cells
        for label in rta_labels
        if cell.aggregates[label].avg_weighted_cost_pct
        > guarantee[label] + 1e-6
    ]
    text = format_figure(
        "Figure 9 — weighted MOQO: EXA vs RTA", cells, FIGURE9_METRICS,
    )
    text += "\nguarantee exceedances (open objective subsets, see strict_closure):"
    if violations:
        for label, query_number, parameter, value in violations:
            text += f"\n  {label} q{query_number}/l={parameter}: {value:.0f}%"
    else:
        text += " none"
    report(text)

    # Timeouts: the RTA never times out more often than the EXA on the
    # same cell, and overall it times out far less (the paper's RTA
    # never timed out at the 2h budget; at this seconds-scale stand-in
    # the largest 6-8 table cells can still exceed it).
    for cell in cells:
        for label in rta_labels:
            assert (
                cell.aggregates[label].timeout_pct
                <= cell.aggregates["EXA"].timeout_pct + 1e-9
            )
    exa_total = sum(c.aggregates["EXA"].timeout_pct for c in cells)
    assert exa_total > 0, "expected EXA timeouts in the workload"
    for label in rta_labels:
        rta_total = sum(c.aggregates[label].timeout_pct for c in cells)
        assert rta_total < exa_total

    # Wherever the EXA times out and the RTA finishes comfortably
    # inside the budget, the RTA is clearly faster (orders of magnitude
    # at paper scale; at this seconds-scale stand-in the margin shrinks
    # on the largest cells). Cells where the RTA finished but averaged
    # close to the budget are excluded: whether such a borderline cell
    # records 0% or 33% timeouts is machine noise, and a 1.9s-vs-2.0s
    # "win" says nothing about the asymptotic separation.
    from repro.bench.experiments import DEFAULT_TIMEOUT_SECONDS

    comfortable_ms = 0.8 * DEFAULT_TIMEOUT_SECONDS * 1000.0
    for cell in cells:
        if cell.aggregates["EXA"].timeout_pct == 100.0:
            for label in rta_labels:
                if (
                    cell.aggregates[label].timeout_pct == 0.0
                    and cell.aggregates[label].avg_time_ms < comfortable_ms
                ):
                    assert (
                        cell.aggregates[label].avg_time_ms
                        < cell.aggregates["EXA"].avg_time_ms * 0.75
                    )

    # Near-optimality in practice: the large majority of cells stays
    # within the guarantee, and EXA defines the optimum when complete.
    for label in rta_labels:
        values = [
            cell.aggregates[label].avg_weighted_cost_pct
            for cell in cells
            if cell.aggregates[label].avg_weighted_cost_pct
            == cell.aggregates[label].avg_weighted_cost_pct
        ]
        within = sum(1 for v in values if v <= guarantee[label] + 1e-6)
        assert within >= 0.8 * len(values), (
            f"{label}: only {within}/{len(values)} cells within guarantee"
        )

    # Coarser alpha -> no more stored plans than finer alpha (modulo
    # timeout-distorted cells).
    for cell in cells:
        if cell.aggregates["RTA(1.15)"].timeout_pct == 0.0 and (
            cell.aggregates["RTA(2)"].timeout_pct == 0.0
        ):
            fine = cell.aggregates["RTA(1.15)"].avg_pareto_plans
            coarse = cell.aggregates["RTA(2)"].avg_pareto_plans
            assert coarse <= fine + 1e-9
