"""High-level optimizer facade — the "extended Postgres optimizer".

:class:`MultiObjectiveOptimizer` wires the substrates together (catalog,
cost model, plan space) and executes :class:`OptimizationRequest`s by
dispatching through the pluggable algorithm registry
(:mod:`repro.core.registry`). Like the paper's prototype it optimizes
the blocks of a query with subqueries *separately* (Postgres heuristic
ii) — which, as the paper notes, weakens the formal approximation
guarantee for queries containing subqueries, while rarely mattering in
practice.

The keyword-style :meth:`MultiObjectiveOptimizer.optimize` call is kept
as a thin backwards-compatible shim over :meth:`execute`; new code
should build requests explicitly and submit them through
:class:`repro.core.service.OptimizerService`, which adds plan caching,
batching and metrics on top of this facade.
"""

from __future__ import annotations

import dataclasses
import time as _time
from typing import Sequence

from repro.catalog.schema import Schema
from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.core.preferences import Preferences
from repro.core.registry import get_algorithm
from repro.core.request import OptimizationRequest
from repro.core.result import OptimizationResult
from repro.core.rta import start_clock
from repro.cost.model import CostModel
from repro.cost.objectives import Objective
from repro.cost.postgres_params import DEFAULT_PARAMS, CostParams
from repro.exceptions import OptimizerError
from repro.query.query import MultiBlockQuery, Query


def combine_block_costs(
    costs: Sequence[tuple[float, ...]], objectives: tuple[Objective, ...]
) -> tuple[float, ...]:
    """Combine per-block cost vectors into a whole-query vector.

    Blocks execute sequentially, so accumulative objectives (times, IO,
    CPU, disk, energy) add up, occupancy objectives (cores, buffer) take
    the maximum, and tuple loss combines with ``1 - prod(1 - a_i)``.
    """
    if not costs:
        raise OptimizerError("no block costs to combine")
    combined: list[float] = []
    for position, objective in enumerate(objectives):
        values = [cost[position] for cost in costs]
        if objective in (Objective.CORES, Objective.BUFFER_FOOTPRINT):
            combined.append(max(values))
        elif objective is Objective.TUPLE_LOSS:
            surviving = 1.0
            for value in values:
                surviving *= 1.0 - value
            combined.append(1.0 - surviving)
        else:
            combined.append(sum(values))
    return tuple(combined)


class MultiObjectiveOptimizer:
    """Facade over the catalog, cost model and registered algorithms."""

    def __init__(
        self,
        schema: Schema,
        config: OptimizerConfig = DEFAULT_CONFIG,
        params: CostParams = DEFAULT_PARAMS,
        cost_model: CostModel | None = None,
    ) -> None:
        self.schema = schema
        self.config = config
        # An injected cost model lets callers swap in calibrated
        # statistics (CostModel(schema, calibration=...)) without
        # touching the facade; by default a fresh catalog-only model is
        # built.
        self.cost_model = (
            cost_model if cost_model is not None
            else CostModel(schema, params)
        )

    # ------------------------------------------------------------------
    def execute(self, request: OptimizationRequest) -> OptimizationResult:
        """Execute one validated request and return its result.

        Results are treated as immutable: single-block queries get an
        updated *copy* carrying the query's name rather than a mutation
        of the block-level result, so results can safely be cached and
        shared.
        """
        spec = get_algorithm(request.algorithm)
        preferences = spec.prepare_preferences(request.preferences)
        config = request.effective_config(self.config)
        start, deadline = start_clock(config, None)
        block_results = tuple(
            spec.runner(
                block,
                self.cost_model,
                preferences,
                alpha=request.alpha,
                config=config,
                deadline=deadline,
                strict=request.strict,
            )
            for block in request.query.blocks
        )
        if len(block_results) == 1:
            return dataclasses.replace(
                block_results[0], query_name=request.query.name
            )
        return self._merge_block_results(request.query, block_results, start)

    # ------------------------------------------------------------------
    def optimize(
        self,
        query: MultiBlockQuery | Query,
        preferences: Preferences,
        algorithm: str = "rta",
        alpha: float = 1.5,
        config: OptimizerConfig | None = None,
        strict: bool = False,
    ) -> OptimizationResult:
        """Optimize a query with the chosen algorithm (legacy shim).

        Thin wrapper that packs the arguments into an
        :class:`OptimizationRequest` and calls :meth:`execute`.
        ``alpha`` is the user precision for the approximation schemes
        (``rta``/``ira``) and ignored for the exact algorithms.
        ``selinger`` requires exactly one selected objective. ``strict``
        enables the strict pruning closure that restores the formal
        guarantees for objective subsets that are not closed under the
        cost model's recursive dependencies (see
        :func:`repro.core.dp.strict_closure`).
        """
        request = OptimizationRequest(
            query=query,
            preferences=preferences,
            algorithm=algorithm,
            alpha=alpha,
            strict=strict,
            config=config,
        )
        return self.execute(request)

    # ------------------------------------------------------------------
    def _merge_block_results(
        self,
        query: MultiBlockQuery,
        block_results: tuple[OptimizationResult, ...],
        start: float,
    ) -> OptimizationResult:
        """Aggregate per-block results into a whole-query result.

        The reported plan and frontier belong to the main block; the
        cost vector combines all blocks so weighted-cost comparisons
        across algorithms stay consistent.
        """
        main = block_results[0]
        phase_totals: dict[str, float] = {}
        for block_result in block_results:
            for phase, spent_ms in block_result.phase_ms.items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + spent_ms
        costs = [r.plan_cost for r in block_results if r.plan_cost is not None]
        combined_cost = (
            combine_block_costs(costs, main.preferences.objectives)
            if len(costs) == len(block_results)
            else None
        )
        elapsed_ms = (_time.perf_counter() - start) * 1000.0
        return OptimizationResult(
            algorithm=main.algorithm,
            query_name=query.name,
            preferences=main.preferences,
            plan=main.plan,
            plan_cost=combined_cost,
            frontier=main.frontier,
            optimization_time_ms=elapsed_ms,
            memory_kb=max(r.memory_kb for r in block_results),
            pareto_last_complete=max(
                r.pareto_last_complete for r in block_results
            ),
            plans_considered=sum(r.plans_considered for r in block_results),
            candidates_vectorized=sum(
                r.candidates_vectorized for r in block_results
            ),
            timed_out=any(r.timed_out for r in block_results),
            iterations=max(r.iterations for r in block_results),
            alpha=main.alpha,
            block_results=block_results,
            deadline_hit=any(r.deadline_hit for r in block_results),
            phase_ms=phase_totals,
        )
