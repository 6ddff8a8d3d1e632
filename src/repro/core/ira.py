"""IRA — the iterative-refinement algorithm (Algorithm 3, Section 7).

An approximation scheme for *bounded-weighted* MOQO. An approximate
Pareto set does not necessarily contain a near-optimal plan once bounds
are present (Figure 8), so the IRA iterates: each iteration generates an
``alpha``-approximate Pareto set (via the RTA machinery) with precision

    alpha(i) = alpha_U ** (2 ** (-i / (3l - 3)))

and stops once the certified stopping condition holds: no generated plan
both respects the bounds relaxed by factor ``alpha`` and has weighted
cost below ``C_W(p_opt) * alpha / alpha_U``. The refinement policy makes
the worst-case time bound of an iteration roughly double from one
iteration to the next, so redundant work across iterations is a
vanishing fraction of the worst-case total (Theorem 7 and Section 7.2).

That is a statement about the bound, not about measured time. With nine
objectives the exponent denominator ``3l - 3`` is 24, the precision
shrinks slowly, and many iterations can run before the stopping
condition holds: IRA(2) averages about 30 iterations on TPC-H q10 with
six bounds, and under a seconds-scale timeout it can time out on a case
the EXA finishes in about a second. The IRA is therefore not faster
than the EXA on every case, which is why the Figure 10 benchmark
(``benchmarks/test_fig10_bounded.py``) counts the cases each side wins
and loses on timeouts instead of assuming IRA <= EXA.
"""

from __future__ import annotations

import time as _time
from typing import Callable

from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.core.dp import DPRun, deadline_exceeded, strict_closure, strip_entries
from repro.core.instrumentation import Counters
from repro.core.preferences import Preferences
from repro.core.result import OptimizationResult
from repro.core.rta import internal_precision
from repro.core.select_best import select_best
from repro.cost.model import CostModel
from repro.cost.vector import respects_relaxed_bounds, weighted_cost
from repro.exceptions import InvalidPrecisionError
from repro.query.query import Query

#: Precisions below 1 + EPSILON run an exact final iteration.
_EXACT_THRESHOLD = 1e-9

#: Hard cap on iterations (Theorem 8 guarantees termination; this guards
#: against pathological floating-point stalls).
DEFAULT_MAX_ITERATIONS = 64


def iteration_precision(alpha_u: float, iteration: int, num_objectives: int) -> float:
    """Precision used in the given (1-based) iteration.

    The exponent denominator ``3l - 3`` vanishes for a single objective;
    it is clamped to 1 (a single-objective bounded instance is degenerate
    but supported).
    """
    denominator = max(3 * num_objectives - 3, 1)
    return alpha_u ** (2.0 ** (-iteration / denominator))


#: Signature of a precision-refinement policy:
#: ``policy(alpha_u, iteration, num_objectives) -> alpha``.
PrecisionPolicy = Callable[[float, int, int], float]


def halving_policy(alpha_u: float, iteration: int, num_objectives: int) -> float:
    """Ablation policy: halve the approximation margin each iteration.

    Decreases much faster than the paper's policy — iterations quickly
    become exact-algorithm expensive, so early-iteration work is not
    amortized (violates the paper's second policy requirement from the
    opposite side: the *last* iteration dwarfs everything, including
    what a coarser precision would have needed).
    """
    return 1.0 + (alpha_u - 1.0) / (2.0**iteration)


def slow_policy(alpha_u: float, iteration: int, num_objectives: int) -> float:
    """Ablation policy: refine very slowly (tenth-root steps).

    Violates the paper's second requirement — consecutive iterations
    cost almost the same, so redundant work accumulates across many
    near-identical iterations.
    """
    return alpha_u ** (0.9**iteration)


def ira(
    query: Query,
    cost_model: CostModel,
    preferences: Preferences,
    alpha_u: float,
    config: OptimizerConfig = DEFAULT_CONFIG,
    deadline: float | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    precision_policy: PrecisionPolicy = iteration_precision,
    strict: bool = False,
) -> OptimizationResult:
    """Optimize one query block with bounds to within factor ``alpha_u``.

    ``precision_policy`` selects the per-iteration precision; the
    default is the paper's ``alpha_U ** (2 ** (-i / (3l - 3)))``.
    Alternative policies exist for the Section 7.2 ablation study — the
    near-optimality guarantee holds for any policy that decreases to 1.

    ``strict`` enables the strict pruning closure (see
    :func:`repro.core.dp.strict_closure`).
    """
    if alpha_u < 1.0:
        raise InvalidPrecisionError(alpha_u)
    start = _time.perf_counter()
    if deadline is None and config.timeout_seconds is not None:
        deadline = start + config.timeout_seconds

    num_tables = query.num_tables
    bounds = preferences.bounds
    weights = preferences.weights
    total_considered = 0
    total_vectorized = 0
    # Counters are reset each iteration (memory is reported for the
    # last one), but phase time is spent across *all* iterations.
    phase_totals: dict[str, float] = {}
    counters = Counters()
    best = None
    final_set = None
    iteration = 0
    timed_out = False

    while iteration < max_iterations:
        iteration += 1
        alpha = precision_policy(alpha_u, iteration, preferences.num_objectives)
        exact_iteration = alpha - 1.0 < _EXACT_THRESHOLD
        if exact_iteration:
            alpha = 1.0
        counters = Counters()
        run = DPRun(
            query=query,
            cost_model=cost_model,
            config=config,
            indices=preferences.indices,
            weights=weights,
            alpha_internal=internal_precision(alpha, num_tables),
            deadline=deadline,
            counters=counters,
            extra_indices=(
                strict_closure(preferences.indices) if strict else ()
            ),
            include_rows=strict,
        )
        sets = run.run()
        final_set = strip_entries(sets[run.graph.full_mask],
                                  run.projection_width)
        total_considered += counters.plans_considered
        total_vectorized += counters.candidates_vectorized
        if config.phase_timers:
            for phase, spent_ms in counters.phase_ms().items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + spent_ms
        best = select_best(final_set, preferences)
        timed_out = counters.timed_out
        if timed_out or exact_iteration:
            break
        if best is not None and _stopping_condition_met(
            final_set, best[0], bounds, weights, alpha, alpha_u
        ):
            break

    elapsed_ms = (_time.perf_counter() - start) * 1000.0
    return OptimizationResult(
        algorithm="ira",
        query_name=query.name,
        preferences=preferences,
        plan=best[1] if best else None,
        plan_cost=best[0] if best else None,
        frontier=tuple(final_set) if final_set is not None else (),
        optimization_time_ms=elapsed_ms,
        # Paper: memory reported for the last iteration (earlier
        # allocations can be reused).
        memory_kb=counters.memory_kb,
        pareto_last_complete=counters.pareto_last_complete,
        plans_considered=total_considered,
        candidates_vectorized=total_vectorized,
        timed_out=timed_out,
        iterations=iteration,
        alpha=alpha_u,
        deadline_hit=timed_out or deadline_exceeded(deadline),
        phase_ms=phase_totals,
    )


def _stopping_condition_met(
    final_set,
    best_cost: tuple[float, ...],
    bounds: tuple[float, ...],
    weights: tuple[float, ...],
    alpha: float,
    alpha_u: float,
) -> bool:
    """Line 13 of Algorithm 3, with a feasibility strengthening.

    The paper's condition: terminate unless some plan respects the
    *relaxed* bounds ``alpha * B`` and its weighted cost divided by
    ``alpha`` undercuts ``C_W(p_opt) / alpha_U`` — i.e. unless relaxing
    the bounds could still reveal a plan proving ``p_opt`` more than
    ``alpha_U`` from optimal.

    Strengthening: when ``p_opt`` itself violates the bounds,
    ``SelectBest`` fell back to the unconstrained weighted minimum,
    whose (small) weighted cost can satisfy the paper's condition even
    though a bound-respecting plan exists — the returned plan would
    then have infinite relative cost under Definition 3. We therefore
    also require that either ``p_opt`` respects the bounds or
    no generated plan respects even the relaxed bounds (which proves
    that no feasible plan exists at all: any feasible plan's
    alpha-cover in the set would respect ``alpha * B``). Termination is
    preserved by the finite-plan-space argument of Theorem 8.
    """
    from repro.cost.vector import respects_bounds

    relaxed_feasible = [
        cost
        for cost, _ in final_set
        if respects_relaxed_bounds(cost, bounds, alpha)
    ]
    if not respects_bounds(best_cost, bounds) and relaxed_feasible:
        return False
    threshold = weighted_cost(best_cost, weights) / alpha_u
    for cost in relaxed_feasible:
        if weighted_cost(cost, weights) / alpha < threshold:
            return False
    return True
