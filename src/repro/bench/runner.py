"""Experiment runner: execute algorithm variants over test cases.

One *variant* is an (algorithm, alpha) pair — e.g. ``EXA``, ``RTA(1.5)``.
The runner executes every variant on every test case and aggregates the
paper's metrics per (query, variant): timeout percentage, average
optimization time, average memory, average Pareto-plan count (last
completely treated table set), average iteration count, and the average
weighted cost as a percentage of the best weighted cost any variant
achieved on the same test case (the "W-Cost (%)" rows of Figures 9/10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from repro.core.optimizer import MultiObjectiveOptimizer
from repro.core.request import OptimizationRequest
from repro.core.result import OptimizationResult
from repro.core.service import OptimizerService
from repro.workload import TestCase

#: Anything that can execute an OptimizationRequest: the service (plan
#: cache + metrics) or the bare facade.
Engine = Union[OptimizerService, MultiObjectiveOptimizer]


@dataclass(frozen=True)
class Variant:
    """An algorithm configuration to benchmark."""

    label: str
    algorithm: str
    alpha: float = 1.0


#: The paper's Figure 9 line-up.
FIGURE9_VARIANTS = (
    Variant("EXA", "exa"),
    Variant("RTA(1.15)", "rta", 1.15),
    Variant("RTA(1.5)", "rta", 1.5),
    Variant("RTA(2)", "rta", 2.0),
)

#: The paper's Figure 10 line-up.
FIGURE10_VARIANTS = (
    Variant("EXA", "exa"),
    Variant("IRA(1.15)", "ira", 1.15),
    Variant("IRA(1.5)", "ira", 1.5),
    Variant("IRA(2)", "ira", 2.0),
)


@dataclass
class RunRecord:
    """Metrics of one (variant, test case) execution."""

    variant: Variant
    query_number: int
    case_index: int
    time_ms: float
    memory_kb: float
    pareto_plans: int
    plans_considered: int
    candidates_vectorized: int
    iterations: int
    timed_out: bool
    weighted_cost: float
    respects_bounds: bool

    @classmethod
    def from_result(
        cls, variant: Variant, case: TestCase, result: OptimizationResult
    ) -> "RunRecord":
        return cls(
            variant=variant,
            query_number=case.query_number,
            case_index=case.case_index,
            time_ms=result.optimization_time_ms,
            memory_kb=result.memory_kb,
            pareto_plans=result.pareto_last_complete,
            plans_considered=result.plans_considered,
            candidates_vectorized=result.candidates_vectorized,
            iterations=result.iterations,
            timed_out=result.timed_out,
            weighted_cost=result.weighted_cost,
            respects_bounds=result.respects_bounds,
        )


@dataclass
class RequestRecord:
    """Metrics of one pre-built request (workload-family batches).

    Family draws (:mod:`repro.workloads.families`) arrive as finished
    :class:`OptimizationRequest` objects keyed by name and fingerprint
    rather than TPC-H query numbers, so they get their own record type
    instead of forcing fake numbers into :class:`RunRecord`.
    """

    query_name: str
    fingerprint: str
    algorithm: str
    time_ms: float
    memory_kb: float
    pareto_plans: int
    iterations: int
    timed_out: bool
    weighted_cost: float

    @classmethod
    def from_result(
        cls, request: OptimizationRequest, result: OptimizationResult
    ) -> "RequestRecord":
        return cls(
            query_name=request.query_name,
            fingerprint=request.fingerprint(),
            algorithm=request.algorithm,
            time_ms=result.optimization_time_ms,
            memory_kb=result.memory_kb,
            pareto_plans=result.pareto_last_complete,
            iterations=result.iterations,
            timed_out=result.timed_out,
            weighted_cost=result.weighted_cost,
        )


def run_requests(
    engine: Engine, requests: Sequence[OptimizationRequest]
) -> list[RequestRecord]:
    """Execute pre-built requests (e.g. a family batch); keep order.

    Services run the batch through :meth:`OptimizerService.optimize_many`
    (plan cache, metrics hooks, batch backend); a bare optimizer
    executes sequentially.
    """
    if isinstance(engine, OptimizerService):
        results = engine.optimize_many(requests)
    else:
        results = [engine.execute(request) for request in requests]
    return [
        RequestRecord.from_result(request, result)
        for request, result in zip(requests, results)
    ]


@dataclass
class Aggregate:
    """Averages over the test cases of one (query, variant) cell."""

    variant: Variant
    query_number: int
    cases: int = 0
    timeout_pct: float = 0.0
    avg_time_ms: float = 0.0
    avg_memory_kb: float = 0.0
    avg_pareto_plans: float = 0.0
    avg_iterations: float = 0.0
    avg_weighted_cost_pct: float = 0.0
    #: Share of cases proven infeasible: the run finished and its final
    #: set held no plan within the bounds (SelectBest picks one if any).
    infeasible_pct: float = 0.0
    records: list[RunRecord] = field(default_factory=list)


def run_case(
    engine: Engine, case: TestCase, variant: Variant
) -> RunRecord:
    """Execute one variant on one test case.

    ``engine`` may be an :class:`OptimizerService` (requests go through
    the plan cache and metrics hooks) or a bare
    :class:`MultiObjectiveOptimizer`.
    """
    request = case.to_request(
        algorithm=variant.algorithm,
        alpha=variant.alpha,
        tags=(variant.label, f"q{case.query_number}",
              f"case{case.case_index}"),
    )
    if isinstance(engine, OptimizerService):
        result = engine.submit(request)
    else:
        result = engine.execute(request)
    return RunRecord.from_result(variant, case, result)


def run_comparison(
    engine: Engine,
    cases: Sequence[TestCase],
    variants: Sequence[Variant],
) -> dict[str, Aggregate]:
    """Run all variants over all cases of *one* query; aggregate.

    The weighted-cost percentage of a record is relative to the minimum
    weighted cost over all variants on the same case (100% = matched the
    best plan produced by any algorithm) — this mirrors the paper's
    "weighted cost of the generated plan (as percentage of the optimal
    value over the plans generated by all algorithms for the same test
    case)".
    """
    if not cases:
        raise ValueError("no test cases supplied")
    query_number = cases[0].query_number
    records: dict[str, list[RunRecord]] = {v.label: [] for v in variants}
    effective_costs: dict[str, list[float]] = {v.label: [] for v in variants}
    best_per_case: list[float] = []
    for case in cases:
        case_records = [run_case(engine, case, v) for v in variants]
        case_effective = [
            _effective_cost(record, case.is_bounded, case_records)
            for record in case_records
        ]
        finite = [c for c in case_effective if c != float("inf")]
        best_per_case.append(min(finite) if finite else float("inf"))
        for variant, record, effective in zip(
            variants, case_records, case_effective
        ):
            records[variant.label].append(record)
            effective_costs[variant.label].append(effective)

    aggregates: dict[str, Aggregate] = {}
    for variant in variants:
        variant_records = records[variant.label]
        aggregates[variant.label] = _aggregate(
            variant, query_number, variant_records,
            effective_costs[variant.label], best_per_case,
        )
    return aggregates


def _effective_cost(
    record: RunRecord, bounded: bool, case_records: list[RunRecord]
) -> float:
    """Weighted cost under the paper's relative-cost semantics.

    For bounded instances, a plan violating the bounds has infinite
    relative cost whenever *any* variant found a bound-respecting plan
    (Definition 3); if no variant did, plain weighted cost is compared.
    """
    if not bounded:
        return record.weighted_cost
    if record.respects_bounds:
        return record.weighted_cost
    if any(r.respects_bounds for r in case_records):
        return float("inf")
    return record.weighted_cost


def _aggregate(
    variant: Variant,
    query_number: int,
    records: list[RunRecord],
    effective: list[float],
    best_per_case: list[float],
) -> Aggregate:
    count = len(records)
    cost_percentages = []
    for cost, best in zip(effective, best_per_case):
        if best > 0 and best != float("inf") and cost != float("inf"):
            cost_percentages.append(100.0 * cost / best)
    return Aggregate(
        variant=variant,
        query_number=query_number,
        cases=count,
        timeout_pct=100.0 * sum(r.timed_out for r in records) / count,
        avg_time_ms=_mean(r.time_ms for r in records),
        avg_memory_kb=_mean(r.memory_kb for r in records),
        avg_pareto_plans=_mean(r.pareto_plans for r in records),
        avg_iterations=_mean(r.iterations for r in records),
        avg_weighted_cost_pct=(
            _mean(cost_percentages) if cost_percentages else float("nan")
        ),
        infeasible_pct=100.0 * sum(
            not (r.timed_out or r.respects_bounds) for r in records
        ) / count,
        records=records,
    )


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
