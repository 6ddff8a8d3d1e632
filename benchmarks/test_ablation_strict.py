"""Ablation — strict pruning closure vs the paper's pruning.

Reproduction finding (see ``repro.core.dp.strict_closure``): the
paper's cost-dominance pruning loses its guarantee on objective subsets
that are not closed under the cost model's recursive dependencies
(startup time reads total time; local cost terms read
sampling-dependent cardinality). This benchmark
quantifies the tradeoff on the observed TPC-H Q5 case family: the
default mode is faster but can exceed alpha by an order of magnitude,
strict mode pays more optimization time and honors the guarantee.
"""

from repro import Objective, Preferences, tpch_query
from repro.bench.experiments import make_optimizer
from repro.bench.reporting import format_table

#: Open objective subset from the observed violation.
OPEN = (
    Objective.STARTUP_TIME,
    Objective.DISK_FOOTPRINT,
    Objective.ENERGY,
)

WEIGHT_SETS = (
    (0.253, 0.283, 0.755),
    (0.8, 0.1, 0.4),
    (0.1, 0.9, 0.3),
)

ALPHA = 1.5


def run_comparison():
    optimizer = make_optimizer(timeout_seconds=60.0)
    rows = []
    for query_number in (3, 10, 5):
        for weights in WEIGHT_SETS:
            prefs = Preferences(objectives=OPEN, weights=weights)
            query = tpch_query(query_number)
            exact = optimizer.optimize(query, prefs, algorithm="exa")
            default = optimizer.optimize(
                query, prefs, algorithm="rta", alpha=ALPHA
            )
            strict = optimizer.optimize(
                query, prefs, algorithm="rta", alpha=ALPHA, strict=True
            )
            reference = min(
                exact.weighted_cost, default.weighted_cost,
                strict.weighted_cost,
            )
            rows.append({
                "query": query_number,
                "default_factor": default.weighted_cost / reference,
                "strict_factor": strict.weighted_cost / reference,
                "default_ms": default.optimization_time_ms,
                "strict_ms": strict.optimization_time_ms,
                "any_timeout": exact.timed_out or strict.timed_out,
            })
    return rows


def test_ablation_strict_mode(benchmark, report):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table = [
        (
            f"q{row['query']}",
            [
                row["default_factor"],
                row["strict_factor"],
                row["default_ms"],
                row["strict_ms"],
            ],
        )
        for row in rows
    ]
    report(format_table(
        f"Ablation — strict pruning closure (alpha = {ALPHA}, "
        "objectives: startup/disk/energy)",
        ["default factor", "strict factor", "default ms", "strict ms"],
        table,
    ))

    complete = [row for row in rows if not row["any_timeout"]]
    assert complete, "all strict runs timed out; raise the timeout"
    # Strict mode honors the guarantee on every completed case.
    for row in complete:
        assert row["strict_factor"] <= ALPHA * (1 + 1e-9)
    # The default mode violates it somewhere in this family (that is
    # the point of the ablation).
    assert any(
        row["default_factor"] > ALPHA * (1 + 1e-9) for row in complete
    )
