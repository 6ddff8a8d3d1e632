"""Optimization results: chosen plan, approximate frontier, run metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.preferences import Preferences
from repro.cost.objectives import Objective
from repro.plans.plan import Plan

CostTuple = tuple[float, ...]


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of optimizing one query (or one query block).

    ``frontier`` is the (approximate) Pareto set for the full table set
    — the by-product all of the paper's algorithms expose for tradeoff
    visualization (Figure 4).

    ``timed_out`` and ``deadline_hit`` are related but distinct:
    ``timed_out`` means the enumeration's periodic check tripped and the
    run switched to the paper's single-plan fallback mode, while
    ``deadline_hit`` means the deadline had passed by the time the run
    finished — even when the coarse-grained check never fired (small
    queries finish a full level between checks). Deadline enforcement
    (e.g. the parallel backend's scheduler) keys on ``deadline_hit`` so
    a late answer is never reported as an on-time one.

    Results are immutable: the optimizer service caches and shares them
    across requests (and threads), so derived variants are produced
    with :func:`dataclasses.replace` rather than in-place edits.
    """

    algorithm: str
    query_name: str
    preferences: Preferences
    plan: Plan | None
    plan_cost: CostTuple | None
    frontier: tuple[tuple[CostTuple, Plan], ...]
    optimization_time_ms: float
    memory_kb: float
    pareto_last_complete: int
    plans_considered: int
    timed_out: bool
    #: Candidates costed through the batched kernels (out of
    #: ``plans_considered``): every join candidate, not the access paths.
    candidates_vectorized: int = 0
    iterations: int = 1
    alpha: float | None = None
    block_results: tuple["OptimizationResult", ...] = field(default=())
    deadline_hit: bool = False
    #: The service answered this request with the heuristic fallback
    #: plan after exhausting every retry budget (worker crashes, broken
    #: pools). A degraded result is a *valid* plan — the paper's
    #: single-plan fallback mode — but not the full optimization the
    #: caller asked for, so it is flagged explicitly and never cached.
    degraded: bool = False
    #: Optimizer time split into the disjoint
    #: enumerate/kernel/prune/materialize phases (milliseconds); empty
    #: when phase timing is disabled. Excluded from equality so the
    #: frozen dataclass keeps its generated ``__hash__``.
    phase_ms: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def weighted_cost(self) -> float:
        """Weighted cost of the chosen plan (inf if no plan)."""
        if self.plan_cost is None:
            return float("inf")
        return self.preferences.weighted(self.plan_cost)

    @property
    def respects_bounds(self) -> bool:
        """Whether the chosen plan respects all bounds."""
        return self.plan_cost is not None and self.preferences.respects(
            self.plan_cost
        )

    @property
    def frontier_costs(self) -> list[CostTuple]:
        """Cost vectors of the final (approximate) Pareto frontier."""
        return [cost for cost, _ in self.frontier]

    @property
    def objectives(self) -> tuple[Objective, ...]:
        """Objectives the run optimized for."""
        return self.preferences.objectives

    def cost_of(self, objective: Objective) -> float:
        """Chosen plan's cost in one selected objective."""
        if self.plan_cost is None:
            return float("inf")
        position = self.preferences.objectives.index(objective)
        return self.plan_cost[position]

    def phase_summary(self) -> str:
        """One-line phase-timer breakdown ('' when phase timing is off)."""
        if not self.phase_ms:
            return ""
        parts = " ".join(
            f"{phase}={self.phase_ms.get(phase, 0.0):.1f}ms"
            for phase in ("enumerate", "kernel", "prune", "materialize")
        )
        return f"phases: {parts}"

    def summary(self) -> str:
        """One-line human-readable run summary."""
        if self.degraded:
            status = "DEGRADED"
        elif self.timed_out:
            status = "TIMEOUT"
        elif self.deadline_hit:
            status = "DEADLINE"
        else:
            status = "ok"
        return (
            f"{self.algorithm} on {self.query_name}: "
            f"weighted={self.weighted_cost:.4g} "
            f"time={self.optimization_time_ms:.1f}ms "
            f"mem={self.memory_kb:.0f}KB "
            f"frontier={len(self.frontier)} "
            f"iters={self.iterations} [{status}]"
        )
