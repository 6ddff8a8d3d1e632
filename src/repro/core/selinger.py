"""Single-objective dynamic programming (Selinger-style baseline).

Classic bottom-up join ordering over bushy plans with a scalar pruning
metric: each table set keeps only the plan(s) minimizing the chosen
objective. This is the degenerate case the EXA generalizes — and the
baseline whose complexity Figure 7 compares against. It is also used by
the workload generator to find per-objective minimum costs for bound
generation (Section 8).

Soundness note: startup time is the one objective whose recursive cost
formula reads a *different* objective of the sub-plans (a hash join's
startup depends on the inner's total time). Minimizing startup therefore
prunes with 2-dimensional dominance over (startup, total) and selects
the minimum-startup plan at the top. All other objectives recurse only
on themselves, so 1-dimensional pruning is exact for them (up to the
cardinality interaction introduced by sampling scans, which the paper's
single-objective baseline shares).
"""

from __future__ import annotations

from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.core.preferences import Preferences
from repro.core.result import OptimizationResult
from repro.core.rta import optimize_block
from repro.cost.model import CostModel
from repro.cost.objectives import Objective
from repro.query.query import Query


def _pruning_preferences(objective: Objective) -> Preferences:
    """Objectives to prune over when minimizing ``objective``."""
    if objective is Objective.STARTUP_TIME:
        return Preferences(
            objectives=(Objective.STARTUP_TIME, Objective.TOTAL_TIME),
            weights=(1.0, 0.0),
        )
    return Preferences(objectives=(objective,), weights=(1.0,))


def selinger(
    query: Query,
    cost_model: CostModel,
    objective: Objective,
    config: OptimizerConfig = DEFAULT_CONFIG,
    deadline: float | None = None,
) -> OptimizationResult:
    """Optimize one query block for a single objective.

    Plan sets stay tiny (a single plan per table set, two-dimensional
    frontiers for startup time), so the run's complexity is independent
    of the number of Pareto plans — the advantage the paper notes
    vanishes for the multi-objective EXA.

    Sampling scans are excluded from the plan space: they make output
    cardinality plan-dependent, which breaks the classic setting scalar
    pruning relies on (the original single-objective Postgres optimizer
    has no sampling scan either). Tuple loss consequently has minimum 0
    here, which is its true minimum in the full space as well.
    """
    return optimize_block(
        "selinger", query, cost_model, _pruning_preferences(objective), 1.0,
        config.without_sampling(), deadline, alpha=1.0,
    )


def minimum_cost(
    query: Query,
    cost_model: CostModel,
    objective: Objective,
    config: OptimizerConfig = DEFAULT_CONFIG,
) -> float:
    """Minimal achievable cost of one objective for ``query``."""
    result = selinger(query, cost_model, objective, config)
    if result.plan_cost is None:
        return float("inf")
    return result.plan_cost[0]
