"""RTA — the representative-tradeoffs algorithm (Algorithm 2, Section 6).

An approximation scheme for *weighted* MOQO: the EXA's pruning is
relaxed so a new plan is only kept if no stored plan **approximately**
dominates it with the internal precision

    alpha_internal = alpha_U ** (1 / |Q|)

By the principle of near-optimality (PONO), approximation factors
multiply along the |Q| levels of bottom-up construction, so the final
plan set is an ``alpha_U``-approximate Pareto set (Theorem 3) and the
selected plan an ``alpha_U``-approximate solution (Corollary 1).
"""

from __future__ import annotations

import time as _time

from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.core.dp import (
    DPRun,
    PlanSetFactory,
    deadline_exceeded,
    strict_closure,
    strip_entries,
)
from repro.core.instrumentation import Counters
from repro.core.preferences import Preferences
from repro.core.result import OptimizationResult
from repro.core.select_best import select_best
from repro.cost.model import CostModel
from repro.exceptions import InvalidPrecisionError, OptimizerError
from repro.query.query import Query


def internal_precision(alpha_u: float, num_tables: int) -> float:
    """Per-level precision ``|Q|-th root of alpha_U`` used while pruning."""
    if alpha_u < 1.0:
        raise InvalidPrecisionError(alpha_u)
    if num_tables < 1:
        raise OptimizerError(f"num_tables must be >= 1, got {num_tables}")
    return alpha_u ** (1.0 / num_tables)


def rta(
    query: Query,
    cost_model: CostModel,
    preferences: Preferences,
    alpha_u: float,
    config: OptimizerConfig = DEFAULT_CONFIG,
    deadline: float | None = None,
    plan_set_factory: PlanSetFactory | None = None,
    strict: bool = False,
    _algorithm_label: str = "rta",
) -> OptimizationResult:
    """Optimize one query block to within factor ``alpha_u``.

    The RTA targets weighted MOQO; finite bounds require the IRA
    (Section 7) and are rejected here.

    ``strict`` enables the strict pruning closure (see
    :func:`repro.core.dp.strict_closure`): the formal alpha_U guarantee
    of Theorem 3 requires the objective selection to be closed under
    the cost model's recursive dependencies (startup time reads total time; all local cost terms
    read the sub-plans' cardinality, which sampling makes
    plan-dependent). Strict mode augments the pruning key with these
    dimensions so the guarantee holds for *any* objective subset, at
    the price of larger plan sets. The default reproduces the paper's
    pruning exactly.

    ``plan_set_factory`` injects a custom pruning structure; it exists
    for the ablation study of the paper's pruning-variant warning and
    should not be used otherwise.
    """
    if preferences.has_bounds:
        raise OptimizerError(
            "the RTA handles weighted MOQO only; use the IRA for bounds"
        )
    start = _time.perf_counter()
    if deadline is None and config.timeout_seconds is not None:
        deadline = start + config.timeout_seconds
    alpha_internal = internal_precision(alpha_u, query.num_tables)
    counters = Counters()
    run = DPRun(
        query=query,
        cost_model=cost_model,
        config=config,
        indices=preferences.indices,
        weights=preferences.weights,
        alpha_internal=alpha_internal,
        plan_set_factory=plan_set_factory,
        deadline=deadline,
        counters=counters,
        extra_indices=strict_closure(preferences.indices) if strict else (),
        include_rows=strict,
    )
    sets = run.run()
    final_set = strip_entries(sets[run.graph.full_mask],
                              run.projection_width)
    best = select_best(final_set, preferences)
    elapsed_ms = (_time.perf_counter() - start) * 1000.0
    return OptimizationResult(
        algorithm=_algorithm_label,
        query_name=query.name,
        preferences=preferences,
        plan=best[1] if best else None,
        plan_cost=best[0] if best else None,
        frontier=tuple(final_set),
        optimization_time_ms=elapsed_ms,
        memory_kb=counters.memory_kb,
        pareto_last_complete=counters.pareto_last_complete,
        plans_considered=counters.plans_considered,
        candidates_vectorized=counters.candidates_vectorized,
        timed_out=counters.timed_out,
        alpha=alpha_u,
        deadline_hit=counters.timed_out or deadline_exceeded(deadline),
        phase_ms=counters.phase_ms() if config.phase_timers else {},
    )
