"""Baseline algorithms without multi-objective guarantees.

Two baselines the paper discusses but does not evaluate, implemented to
quantify what the approximation schemes buy:

* **Weighted-sum scalar pruning** (:func:`weighted_sum_baseline`) — the
  naive reduction of MOQO to single-objective optimization: prune each
  table set down to the plan with minimal *weighted* cost. Example 1 of
  the paper shows why this is unsound: the weighted sum of a plan is
  not monotone in the weighted sums of its sub-plans when objectives
  combine with different functions (max for parallel time, sum for
  energy). The baseline is fast — exactly Selinger-fast — but can
  return plans arbitrarily far from the weighted optimum.

* **Iterative dynamic programming** (:func:`idp_moqo`) — in the spirit
  of Kossmann & Stocker's IDP-1: when a query joins more tables than a
  block size ``k``, run (multi-objective, RTA-pruned) dynamic
  programming over the ``k``-table prefix of the join order, commit to
  the *best weighted* plan for some maximal subset, collapse it into a
  virtual operand, and repeat. Greedy commitment between blocks voids
  the formal guarantee (the committed subplan may be wrong for the
  remainder), but the search stays polynomial in the number of blocks —
  the classic heuristic tradeoff the paper's related-work section
  contrasts its schemes against.
"""

from __future__ import annotations

from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.core.dp import DPRun, strip_entries
from repro.core.instrumentation import Counters
from repro.core.preferences import Preferences
from repro.core.pruning import SingleBestPlanSet
from repro.core.result import OptimizationResult
from repro.core.rta import (
    internal_precision,
    optimize_block,
    package_result,
    start_clock,
)
from repro.core.select_best import select_best
from repro.cost.model import CostModel
from repro.cost.vector import weighted_cost
from repro.exceptions import OptimizerError
from repro.plans.plan import Plan
from repro.query.join_graph import JoinGraph
from repro.query.query import Query


def weighted_sum_baseline(
    query: Query,
    cost_model: CostModel,
    preferences: Preferences,
    config: OptimizerConfig = DEFAULT_CONFIG,
    deadline: float | None = None,
) -> OptimizationResult:
    """Scalar dynamic programming on the weighted cost (unsound).

    Keeps one plan (the weighted minimum) per table set. Fast, but the
    single-objective principle of optimality does not hold for weighted
    sums over objectives with heterogeneous combination functions
    (Example 1), so the result carries no optimality guarantee.
    """
    if preferences.has_bounds:
        raise OptimizerError(
            "the weighted-sum baseline ignores bounds; use the IRA"
        )
    return optimize_block(
        "wsum", query, cost_model, preferences, 1.0, config, deadline,
        alpha=None,
        plan_set_factory=lambda: SingleBestPlanSet(preferences.weights),
    )


#: Default block size for iterative dynamic programming.
DEFAULT_IDP_BLOCK_SIZE = 4


class _VirtualPlanLeaf(Plan):
    """A committed subplan wrapped as a leaf for the next IDP round.

    Carries the committed plan's cost/cardinality; ``describe`` and
    ``walk`` delegate so the final plan prints as the real tree.
    """

    __slots__ = ("alias", "inner",)

    def __init__(self, alias: str, inner: Plan) -> None:
        self.alias = alias
        self.inner = inner
        self.rows = inner.rows
        self.width = inner.width
        self.cost = inner.cost
        self.loss = inner.loss

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset((self.alias,))

    def walk(self):
        yield from self.inner.walk()

    def describe(self, indent: int = 0) -> str:
        return self.inner.describe(indent)


def idp_moqo(
    query: Query,
    cost_model: CostModel,
    preferences: Preferences,
    alpha_u: float = 1.5,
    block_size: int = DEFAULT_IDP_BLOCK_SIZE,
    config: OptimizerConfig = DEFAULT_CONFIG,
    deadline: float | None = None,
) -> OptimizationResult:
    """Iterative dynamic programming for MOQO (heuristic, no guarantee).

    Runs RTA-pruned DP over subsets of at most ``block_size`` tables,
    greedily commits the best weighted plan for a largest optimized
    subset, replaces it by a virtual leaf, and repeats until one plan
    covers the whole query.
    """
    if block_size < 2:
        raise OptimizerError(f"block size must be >= 2, got {block_size}")
    start, deadline = start_clock(config, deadline)
    counters = Counters()
    committed: dict[str, Plan] = {}  # virtual alias -> committed plan
    current = query
    rounds = 0
    while True:
        rounds += 1
        run = _BlockedDPRun(
            query=current,
            cost_model=cost_model,
            config=config,
            indices=preferences.indices,
            weights=preferences.weights,
            alpha_internal=internal_precision(
                alpha_u, max(current.num_tables, 1)
            ),
            deadline=deadline,
            counters=Counters(),
            block_size=block_size,
            virtual_leaves=committed,
        )
        sets = run.run()
        counters.merge_peak(run.counters)
        full_mask = run.graph.full_mask
        if full_mask in sets and len(sets[full_mask]):
            frontier = strip_entries(sets[full_mask], run.projection_width)
            best = select_best(frontier, preferences)
            break
        # Commit the best weighted plan of a largest optimized subset.
        best_mask, best_plan = _best_committable(sets, preferences)
        virtual_alias = f"__idp{rounds}"
        committed[virtual_alias] = _VirtualPlanLeaf(virtual_alias, best_plan)
        current = _collapse(
            current, run.graph, best_mask, virtual_alias, cost_model
        )

    return package_result(
        "idp", query, preferences, config, start, deadline, frontier, best,
        counters, None, iterations=rounds,
    )


class _BlockedDPRun(DPRun):
    """DP restricted to subsets of at most ``block_size`` tables,
    with virtual leaves standing in for committed subplans."""

    def __init__(self, *args, block_size: int, virtual_leaves: dict,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._block_size = block_size
        self._virtual_leaves = virtual_leaves

    def _table_sets(self) -> list[int]:
        return [
            mask
            for mask in super()._table_sets()
            if mask.bit_count() <= self._block_size
        ]

    def _build_singleton(self, mask):
        alias = next(iter(self.graph.aliases_of(mask)))
        leaf = self._virtual_leaves.get(alias)
        if leaf is None:
            return super()._build_singleton(mask)
        plan_set = self._new_set()
        self._consider(plan_set, leaf)
        return plan_set

    def _allow_index_probe(self, inner_alias: str) -> bool:
        return inner_alias not in self._virtual_leaves


def _best_committable(sets, preferences):
    """Largest optimized subset's best weighted plan."""
    best_mask = None
    best_plan = None
    best_value = float("inf")
    best_cardinality = 0
    for mask, plan_set in sets.items():
        cardinality = mask.bit_count()
        if cardinality < best_cardinality or not len(plan_set):
            continue
        entry = plan_set.best_weighted(preferences.weights)
        if entry is None:
            continue
        value = weighted_cost(entry[0], preferences.weights)
        if cardinality > best_cardinality or value < best_value:
            best_cardinality = cardinality
            best_mask = mask
            best_plan = entry[1]
            best_value = value
    if best_plan is None:
        raise OptimizerError("IDP found no committable subplan")
    return best_mask, best_plan


def _collapse(query: Query, graph: JoinGraph, mask: int,
              virtual_alias: str, cost_model: CostModel) -> Query:
    """Replace the aliases in ``mask`` by one virtual table reference.

    Join predicates between the collapsed set and the rest are rewired
    to the virtual alias with their selectivity materialized (estimated
    against the *original* query), so the rewritten predicate estimates
    exactly like the one it replaces.
    """
    from repro.cost.cardinality import join_predicate_selectivity
    from repro.query.predicate import JoinPredicate, TableRef

    collapsed = graph.aliases_of(mask)
    remaining_refs = tuple(
        ref for ref in query.table_refs if ref.alias not in collapsed
    )
    # The virtual leaf's statistics come from the committed plan; the
    # table name is irrelevant for costing (the leaf carries its own
    # rows/width/cost), but the query model requires one.
    refs = remaining_refs + (
        TableRef(virtual_alias, query.table_refs[0].table_name),
    )
    filters = tuple(f for f in query.filters if f.alias not in collapsed)
    joins = []
    for join in query.joins:
        inside = join.aliases & collapsed
        if not inside:
            joins.append(join)
        elif len(inside) == 1:
            inside_alias = next(iter(inside))
            outside_alias, outside_column = join.other_side(inside_alias)
            selectivity = join_predicate_selectivity(
                cost_model.schema, query, join
            )
            joins.append(
                JoinPredicate(
                    left_alias=outside_alias,
                    left_column=outside_column,
                    right_alias=virtual_alias,
                    right_column=join.side(inside_alias)[1],
                    selectivity=selectivity,
                )
            )
        # joins fully inside the collapsed set disappear.
    return Query(
        name=f"{query.name}+{virtual_alias}",
        table_refs=refs,
        filters=filters,
        joins=tuple(joins),
    )
