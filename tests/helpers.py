"""Test helpers: ground-truth enumerators.

:func:`enumerate_all_plans` generates *every* plan the DP search space
contains (same splits, operators and access paths, no pruning). Tests
compare EXA/RTA/IRA results against frontiers and optima computed from
this exhaustive set.

:class:`ReferenceDPRun` is the per-candidate DP: one scalar
``join_cost`` call and one coverage check per candidate, in the order
the batched enumerator of :mod:`repro.core.dp` promises. Its plan sets
are what the batched path must reproduce bit for bit.
:func:`reference_enumeration` swaps it into the one place the
algorithms build their DP (:func:`repro.core.rta.find_pareto_plans`),
so every entry point but the IDP runs on it.
"""

from __future__ import annotations

import importlib
from itertools import combinations
from unittest import mock

from repro.config import OptimizerConfig
from repro.core.dp import DPRun
from repro.core.pruning import PlanSet
from repro.cost import cardinality
from repro.cost.model import CostModel
from repro.plans.operators import JoinMethod
from repro.plans.plan import JoinPlan, Plan
from repro.plans.plan_space import PlanSpace
from repro.query.join_graph import JoinGraph
from repro.query.query import Query


def enumerate_all_plans(
    query: Query, cost_model: CostModel, config: OptimizerConfig
) -> list[Plan]:
    """All plans for ``query`` under the DP's search-space rules.

    Mirrors the enumeration of :class:`repro.core.dp.DPRun` (connected
    splits preferred, index-nested-loop availability, Cartesian products
    only when unavoidable) without any pruning. Exponential — only for
    small test queries.
    """
    graph = JoinGraph(query)
    plan_space = PlanSpace(cost_model, config)
    memo: dict[int, list[Plan]] = {}

    def plans_for(mask: int) -> list[Plan]:
        if mask in memo:
            return memo[mask]
        if mask.bit_count() == 1:
            alias = next(iter(graph.aliases_of(mask)))
            result = plan_space.access_paths(query, alias)
        else:
            result = []
            for left_mask, right_mask in graph.splits(mask):
                if not (
                    graph.is_connected(left_mask)
                    and graph.is_connected(right_mask)
                ) and graph.is_connected(graph.full_mask):
                    continue
                predicates = graph.predicates_between(left_mask, right_mask)
                selectivity = cardinality.join_selectivity(
                    cost_model.schema, query, predicates
                )
                for outer_mask, inner_mask in (
                    (left_mask, right_mask),
                    (right_mask, left_mask),
                ):
                    result.extend(
                        _joined(outer_mask, inner_mask, predicates,
                                selectivity)
                    )
        memo[mask] = result
        return result

    def _joined(outer_mask, inner_mask, predicates, selectivity):
        joined = []
        if predicates:
            specs = plan_space.generic_join_specs
        else:
            specs = tuple(
                s for s in plan_space.generic_join_specs
                if s.method is JoinMethod.NESTED_LOOP
            )
        for spec in specs:
            for left_plan in plans_for(outer_mask):
                for right_plan in plans_for(inner_mask):
                    joined.append(
                        cost_model.join_plan(
                            query, spec, left_plan, right_plan,
                            predicates, selectivity=selectivity,
                        )
                    )
        if predicates and inner_mask.bit_count() == 1:
            inner_alias = next(iter(graph.aliases_of(inner_mask)))
            for probe in plan_space.index_probe_inners(
                query, inner_alias, predicates
            ):
                for spec in plan_space.index_nl_specs:
                    for left_plan in plans_for(outer_mask):
                        joined.append(
                            cost_model.join_plan(
                                query, spec, left_plan, probe,
                                predicates, selectivity=selectivity,
                            )
                        )
        return joined

    return plans_for(graph.full_mask)


def all_alias_subsets(query: Query):
    """Every non-empty alias subset of a query block."""
    aliases = query.aliases
    for size in range(1, len(aliases) + 1):
        for combo in combinations(aliases, size):
            yield frozenset(combo)


class ReferenceDPRun(DPRun):
    """Per-candidate reference for the batched enumerator.

    Builds composite table sets one candidate at a time — scalar
    ``join_cost``, then ``covers`` and ``force_insert`` — over the same
    operand pairs and in the same order as the batched path. After a
    timeout, the remaining pairs join each operand's best weighted
    plan. It never counts ``candidates_vectorized``.
    """

    def _build_level(self, masks, sets):
        built = []
        for mask in masks:
            target = self._new_set()
            for pair in self._operand_pairs(mask, sets):
                self._combine_pair(target, pair)
            built.append((mask, target, self._timed_out))
        return built

    def _combine_pair(self, target: PlanSet, pair) -> None:
        if self._timed_out:
            outer_plans = [pair.outer.best_weighted(self.weights)[1]]
            inner_plans = [pair.inner.best_weighted(self.weights)[1]]
        else:
            outer_plans = [plan for _, plan in pair.outer]
            inner_plans = [plan for _, plan in pair.inner]
        candidates = [
            (spec, left, right)
            for spec in pair.specs
            for left in outer_plans
            for right in inner_plans
        ] + [
            (spec, left, probe)
            for probe in pair.probes
            for spec in pair.index_specs
            for left in outer_plans
        ]
        for spec, left, right in candidates:
            if not self._consider_join(target, spec, left, right,
                                       pair.selectivity):
                return

    def _consider_join(self, target, spec, left, right, selectivity) -> bool:
        """One candidate; returns False once the deadline check trips."""
        out_rows = left.rows * right.rows * selectivity
        cost = self.cost_model.join_cost(spec, left, right, out_rows)
        self.counters.plans_considered += 1
        projected = tuple(cost[i] for i in self._all_indices)
        if self.include_rows:
            projected += (out_rows,)
        if not target.covers(projected):
            target.force_insert(projected, JoinPlan(
                spec, left, right, out_rows, left.width + right.width,
                cost, cost[8],
            ))
        self._since_check += 1
        if self._since_check >= self._check_interval:
            self._since_check = 0
            timed_out = self._timed_out
            self._check_deadline()
            return timed_out or not self._timed_out
        return True


def reference_enumeration():
    """Run the EXA, RTA, IRA, Selinger and weighted-sum entry points on
    the reference.

    They all build their ``DPRun`` in one place,
    :func:`repro.core.rta.find_pareto_plans`, so patching that module's
    name covers them. The IDP subclasses ``DPRun`` and stays batched.
    """
    # The package re-exports ``rta`` as a function, so import the module.
    return mock.patch.object(
        importlib.import_module("repro.core.rta"), "DPRun", ReferenceDPRun
    )
