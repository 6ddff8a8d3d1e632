"""RTA — the representative-tradeoffs algorithm (Algorithm 2, Section 6).

An approximation scheme for *weighted* MOQO: the EXA's pruning is
relaxed so a new plan is only kept if no stored plan **approximately**
dominates it with the internal precision

    alpha_internal = alpha_U ** (1 / |Q|)

By the principle of near-optimality (PONO), approximation factors
multiply along the |Q| levels of bottom-up construction, so the final
plan set is an ``alpha_U``-approximate Pareto set (Theorem 3) and the
selected plan an ``alpha_U``-approximate solution (Corollary 1).

The RTA is the general scheme, so this module also holds the one
code path every algorithm runs through (:func:`optimize_block`): the EXA
is the RTA at precision 1 (``internal_precision(1.0, n) == 1.0``), the
Selinger and weighted-sum baselines only swap what a plan set keeps,
and the IRA and IDP fold several :func:`find_pareto_plans` runs before
they package their result with :func:`package_result`.
"""

from __future__ import annotations

import time as _time

from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.core.dp import DPRun, PlanSetFactory, strict_closure, strip_entries
from repro.core.instrumentation import Counters
from repro.core.preferences import Preferences
from repro.core.pruning import Entry
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


def start_clock(
    config: OptimizerConfig, deadline: float | None
) -> tuple[float, float | None]:
    """A run's start instant and its deadline.

    ``deadline`` (a ``time.perf_counter`` instant) wins when given —
    the facade shares one deadline across the blocks of a multi-block
    query; otherwise ``config.timeout_seconds`` counts from now.
    """
    start = _time.perf_counter()
    if deadline is None and config.timeout_seconds is not None:
        deadline = start + config.timeout_seconds
    return start, deadline


def find_pareto_plans(
    query: Query, cost_model: CostModel, preferences: Preferences,
    alpha_u: float, config: OptimizerConfig, deadline: float | None,
    plan_set_factory: PlanSetFactory | None = None, strict: bool = False,
) -> tuple[list[Entry], Counters]:
    """One ``FindParetoPlans`` run at precision ``alpha_u``: the full
    table set's entries, stripped to the preference dimensions, and the
    run's counters."""
    counters = Counters()
    run = DPRun(
        query=query,
        cost_model=cost_model,
        config=config,
        indices=preferences.indices,
        weights=preferences.weights,
        alpha_internal=internal_precision(alpha_u, query.num_tables),
        plan_set_factory=plan_set_factory,
        deadline=deadline,
        counters=counters,
        extra_indices=strict_closure(preferences.indices) if strict else (),
        include_rows=strict,
    )
    sets = run.run()
    frontier = strip_entries(sets[run.graph.full_mask], run.projection_width)
    return frontier, counters


def package_result(
    algorithm: str, query: Query, preferences: Preferences,
    config: OptimizerConfig, start: float, deadline: float | None,
    frontier: list[Entry], best: Entry | None, counters: Counters,
    alpha: float | None, iterations: int = 1,
) -> OptimizationResult:
    """The result of a run that started at ``start``.

    ``counters`` may fold several DP runs (the IRA's iterations, the
    IDP's rounds). ``deadline_hit`` is set whenever the deadline has
    passed by now, even if the enumeration's periodic check (every
    ``timeout_check_interval`` candidates) never tripped into fallback
    mode.
    """
    now = _time.perf_counter()
    return OptimizationResult(
        algorithm=algorithm,
        query_name=query.name,
        preferences=preferences,
        plan=best[1] if best else None,
        plan_cost=best[0] if best else None,
        frontier=tuple(frontier),
        optimization_time_ms=(now - start) * 1000.0,
        memory_kb=counters.memory_kb,
        pareto_last_complete=counters.pareto_last_complete,
        plans_considered=counters.plans_considered,
        candidates_vectorized=counters.candidates_vectorized,
        timed_out=counters.timed_out,
        iterations=iterations,
        alpha=alpha,
        deadline_hit=counters.timed_out or (
            deadline is not None and now > deadline
        ),
        phase_ms=counters.phase_ms() if config.phase_timers else {},
    )


def optimize_block(
    algorithm: str, query: Query, cost_model: CostModel,
    preferences: Preferences, alpha_u: float, config: OptimizerConfig,
    deadline: float | None, alpha: float | None,
    plan_set_factory: PlanSetFactory | None = None, strict: bool = False,
) -> OptimizationResult:
    """Run one DP at precision ``alpha_u`` and select the best plan;
    the result reports ``alpha`` (``None`` for the guarantee-free
    baselines)."""
    start, deadline = start_clock(config, deadline)
    frontier, counters = find_pareto_plans(
        query, cost_model, preferences, alpha_u, config, deadline,
        plan_set_factory=plan_set_factory, strict=strict,
    )
    best = select_best(frontier, preferences)
    return package_result(
        algorithm, query, preferences, config, start, deadline,
        frontier, best, counters, alpha,
    )


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
    return optimize_block(
        _algorithm_label, query, cost_model, preferences, alpha_u, config,
        deadline, alpha=alpha_u, plan_set_factory=plan_set_factory,
        strict=strict,
    )
