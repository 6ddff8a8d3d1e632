"""Test-case generation replicating the paper's experimental setup.

Section 8: "Every test case is characterized by a set of considered
objectives (selected randomly out of the nine implemented objectives),
by weights on the selected objectives (chosen randomly from [0, 1] with
uniform distribution), and (only for bounded MOQO) by bounds on a subset
of the selected objectives. Bounds for objectives with a-priori bounded
value domain (e.g., tuple loss with domain [0, 1]) are chosen with
uniform distribution from that domain. Bounds for objectives with
non-bounded value domains (e.g., time) are chosen by multiplying the
minimal possible value for the given objective and query by a factor
chosen from [1, 2] with uniform distribution."

The per-objective minimal values come from single-objective Selinger
runs (combined over query blocks for multi-block queries).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.catalog.schema import Schema
from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.core.optimizer import combine_block_costs
from repro.core.preferences import INFINITY, Preferences
from repro.core.request import DEFAULT_ALPHA, OptimizationRequest
from repro.core.selinger import selinger
from repro.cost.model import CostModel
from repro.cost.objectives import ALL_OBJECTIVES, Objective
from repro.cost.postgres_params import DEFAULT_PARAMS, CostParams
from repro.exceptions import OptimizerError
from repro.query.query import MultiBlockQuery
from repro.query.tpch_queries import tpch_query


@dataclass(frozen=True)
class TestCase:
    """One randomized MOQO problem instance over a TPC-H query."""

    query_number: int
    query: MultiBlockQuery
    preferences: Preferences
    case_index: int

    @property
    def is_bounded(self) -> bool:
        """Whether the instance carries finite bounds."""
        return self.preferences.has_bounds

    def to_request(
        self,
        algorithm: str = "rta",
        alpha: float = DEFAULT_ALPHA,
        *,
        strict: bool = False,
        config: OptimizerConfig | None = None,
        timeout_seconds: float | None = None,
        tags: tuple[str, ...] | None = None,
    ) -> OptimizationRequest:
        """Package this test case for :class:`~repro.core.service.OptimizerService`.

        The default tags identify the case within a batch
        (``q<query>``/``case<index>``) so metrics hooks can attribute
        per-request records back to the workload.
        """
        if tags is None:
            tags = (f"q{self.query_number}", f"case{self.case_index}")
        return OptimizationRequest(
            query=self.query,
            preferences=self.preferences,
            algorithm=algorithm,
            alpha=alpha,
            strict=strict,
            config=config,
            timeout_seconds=timeout_seconds,
            tags=tags,
        )


class WorkloadGenerator:
    """Deterministic (seeded) generator of the paper's test cases."""

    def __init__(
        self,
        schema: Schema,
        config: OptimizerConfig = DEFAULT_CONFIG,
        params: CostParams = DEFAULT_PARAMS,
        seed: int = 0,
    ) -> None:
        self.schema = schema
        self.config = config
        self.seed = seed
        self.cost_model = CostModel(schema, params)
        self._rng = random.Random(seed)
        #: cache of per-(query, objective) minimal costs.
        self._minimums: dict[tuple[int, Objective], float] = {}

    # ------------------------------------------------------------------
    def weighted_case(
        self, query_number: int, num_objectives: int, case_index: int = 0
    ) -> TestCase:
        """A weighted MOQO test case (Figure 9 setup)."""
        objectives = self._pick_objectives(num_objectives)
        weights = tuple(self._rng.uniform(0.0, 1.0) for _ in objectives)
        preferences = Preferences(objectives=objectives, weights=weights)
        return TestCase(
            query_number=query_number,
            query=tpch_query(query_number),
            preferences=preferences,
            case_index=case_index,
        )

    def bounded_case(
        self,
        query_number: int,
        num_bounds: int,
        num_objectives: int | None = None,
        case_index: int = 0,
    ) -> TestCase:
        """A bounded-weighted MOQO test case (Figure 10 setup).

        Figure 10 always optimizes all nine objectives and varies the
        number of bounds; ``num_objectives`` can override that for
        smaller studies.
        """
        if num_objectives is None:
            num_objectives = len(ALL_OBJECTIVES)
        if num_bounds > num_objectives:
            raise OptimizerError(
                f"cannot bound {num_bounds} of {num_objectives} objectives"
            )
        objectives = self._pick_objectives(num_objectives)
        weights = tuple(self._rng.uniform(0.0, 1.0) for _ in objectives)
        bounded = self._rng.sample(range(len(objectives)), num_bounds)
        bounds = [INFINITY] * len(objectives)
        for position in bounded:
            bounds[position] = self._draw_bound(
                query_number, objectives[position]
            )
        preferences = Preferences(
            objectives=objectives, weights=weights, bounds=tuple(bounds)
        )
        return TestCase(
            query_number=query_number,
            query=tpch_query(query_number),
            preferences=preferences,
            case_index=case_index,
        )

    def weighted_cases(
        self, query_number: int, num_objectives: int, count: int
    ) -> list[TestCase]:
        """``count`` weighted test cases (the paper uses 20)."""
        return [
            self.weighted_case(query_number, num_objectives, case_index=i)
            for i in range(count)
        ]

    def bounded_cases(
        self, query_number: int, num_bounds: int, count: int,
        num_objectives: int | None = None,
    ) -> list[TestCase]:
        """``count`` bounded test cases (the paper uses 20)."""
        return [
            self.bounded_case(
                query_number, num_bounds, num_objectives, case_index=i
            )
            for i in range(count)
        ]

    # ------------------------------------------------------------------
    def _pick_objectives(self, count: int) -> tuple[Objective, ...]:
        if not 1 <= count <= len(ALL_OBJECTIVES):
            raise OptimizerError(
                f"number of objectives must be in 1..{len(ALL_OBJECTIVES)}"
            )
        chosen = self._rng.sample(ALL_OBJECTIVES, count)
        return tuple(sorted(chosen, key=lambda o: o.index))

    def _draw_bound(self, query_number: int, objective: Objective) -> float:
        domain = objective.bounded_domain
        if domain is not None:
            return self._rng.uniform(*domain)
        minimum = self.minimum_cost(query_number, objective)
        return minimum * self._rng.uniform(1.0, 2.0)

    def minimum_cost(self, query_number: int, objective: Objective) -> float:
        """Minimal combined cost of ``objective`` for one TPC-H query."""
        key = (query_number, objective)
        cached = self._minimums.get(key)
        if cached is not None:
            return cached
        query = tpch_query(query_number)
        block_costs = []
        for block in query.blocks:
            result = selinger(block, self.cost_model, objective, self.config)
            full = [0.0] * len(ALL_OBJECTIVES)
            # Selinger prunes over (objective,) or (startup, total);
            # rebuild a full vector with just this objective filled in.
            full[objective.index] = result.plan_cost[0]
            block_costs.append(tuple(full))
        combined = combine_block_costs(block_costs, ALL_OBJECTIVES)
        value = combined[objective.index]
        self._minimums[key] = value
        return value
