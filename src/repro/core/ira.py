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
objectives the exponent denominator ``3l - 3`` is 24 and the precision
shrinks slowly. On jointly infeasible bounds (Figure 10's q10 cases at
six and nine bounds) no plan respects the bounds in any iteration, and
the stopping condition holds only once no plan respects even
``alpha * B``. Stepping through the schedule one index at a time took
IRA(2) up to 61 DP runs there, or timed out, while the set's smallest
bound violation stayed the same; :func:`ira` therefore jumps the
schedule past it, and two or three DP runs reach the same stopping
index and plan. Cases with feasible bounds can still refine for many
iterations, which is why the Figure 10 benchmark
(``benchmarks/test_fig10_bounded.py``) counts the cases each side wins
and loses on timeouts instead of assuming IRA <= EXA.
"""

from __future__ import annotations

from typing import Callable

from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.core.instrumentation import Counters
from repro.core.preferences import Preferences
from repro.core.result import OptimizationResult
from repro.core.rta import find_pareto_plans, package_result, start_clock
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

    Schedule jump: when an iteration does not stop and its final set
    holds no plan within the bounds, the schedule skips every index
    whose precision is still at least the set's smallest bound
    violation (:func:`_bound_violation_gap`), so the next DP run uses
    the first precision below it. Skipping indices keeps the precision
    sequence decreasing, so the guarantee above is unchanged, and the
    ``max_iterations`` cap still bounds the schedule. The result's
    ``iterations`` is the **schedule index** of the last run, not the
    number of DP runs: it stays comparable with the paper's iteration
    counts (Figure 10 prints it), and a skipped index counts as done.

    ``strict`` enables the strict pruning closure (see
    :func:`repro.core.dp.strict_closure`).
    """
    if alpha_u < 1.0:
        raise InvalidPrecisionError(alpha_u)
    start, deadline = start_clock(config, deadline)
    # Plans considered and phase time add up over all iterations;
    # memory and the Pareto count are the last iteration's (the paper
    # reports memory for the last one: earlier allocations can be
    # reused).
    counters = Counters()
    best = None
    frontier = []
    iteration = 0

    while iteration < max_iterations:
        iteration += 1
        alpha = precision_policy(alpha_u, iteration, preferences.num_objectives)
        exact_iteration = alpha - 1.0 < _EXACT_THRESHOLD
        if exact_iteration:
            alpha = 1.0
        frontier, run_counters = find_pareto_plans(
            query, cost_model, preferences, alpha, config, deadline,
            strict=strict,
        )
        run_counters.add_work(counters)
        counters = run_counters
        best = select_best(frontier, preferences)
        if counters.timed_out or exact_iteration:
            break
        if best is not None and _stopping_condition_met(
            frontier, best[0], preferences.bounds, preferences.weights,
            alpha, alpha_u,
        ):
            break
        gap = _bound_violation_gap(frontier, preferences.bounds)
        # Skip the precisions the smallest violation cannot pass under:
        # the next turn runs the first one below the gap.
        while (
            iteration + 1 < max_iterations
            and precision_policy(
                alpha_u, iteration + 1, preferences.num_objectives
            ) >= gap
        ):
            iteration += 1

    return package_result(
        "ira", query, preferences, config, start, deadline, frontier,
        best, counters, alpha_u, iterations=iteration,
    )


def _bound_violation_gap(final_set, bounds: tuple[float, ...]) -> float:
    """Smallest bound violation ``min_p max_j c_j / B_j`` of a set that
    holds no plan within the bounds ``B``; infinity if one respects them.

    A plan respects the relaxed bounds ``alpha * B`` iff its violation
    is at most ``alpha``. Unbounded objectives are skipped; a zero bound
    gives a zero cost the ratio 0 and any other cost an infinite one.
    """
    gap = float("inf")
    for cost, _ in final_set:
        violation = 0.0
        for c, b in zip(cost, bounds):
            if b == float("inf"):
                continue
            ratio = c / b if b else (0.0 if c == 0 else float("inf"))
            violation = max(violation, ratio)
        if violation <= 1.0:
            return float("inf")
        gap = min(gap, violation)
    return gap


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
