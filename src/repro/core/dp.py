"""Bottom-up dynamic-programming plan enumeration (shared skeleton).

This is the ``FindParetoPlans`` function of Algorithms 1 and 2: plans
for singleton table sets come from the access paths; plans for larger
sets are built from all splits into two (internally connected) subsets,
all applicable operator configurations, and all combinations of stored
sub-plans. Plan sets are pruned via :class:`repro.core.pruning.PlanSet`
— with internal precision 1 this is the EXA, with precision
``alpha_U ** (1/|Q|)`` the RTA.

Timeout handling follows Section 5.1 of the paper: once the deadline
passes, the run "finishes quickly by only generating one plan for all
table sets that have not been treated so far" — remaining sets keep only
the best weighted plan, built from the best weighted representative of
each operand set.

Vectorized enumeration (the default,
``OptimizerConfig.vectorized_enumeration``): instead of costing one
``(join spec, outer plan, inner plan)`` candidate at a time, the hot
loop computes whole ``outer x inner`` cost blocks per spec through the
batched kernels of :meth:`repro.cost.model.CostModel.join_cost_block`,
masks them down via :meth:`repro.core.pruning.PlanSet.block_accept`,
and only materializes :class:`~repro.plans.plan.JoinPlan` objects for
surviving rows (survivors carry flat ``(outer_idx, inner_idx)``
backpointers, so materialization is a cheap gather).
**Determinism contract:** the batch path visits candidates in exactly
the scalar loop's order (spec-major, then outer, then inner) and the
kernels mirror the scalar formulas operation for operation, so the
resulting plan sets — entry order included — are bit-for-bit identical
to the scalar path's. The scalar loop stays the reference because it
still shares runs with the block path: it handles blocks too small to
batch, every set built after a timeout, and pruning structures without
a bit-identical block mask, all inside the same enumeration. The
property tests in ``tests/test_vectorized_equivalence.py`` enforce the
contract, and ``repro lint`` rule REP001 enforces its preconditions
statically: no unseeded RNG, wall-clock reads, or unordered set
iteration may feed results in this module (the deadline checks and
phase timers below carry per-line ``lint-allow`` suppressions because
they only gate *when* enumeration stops, never *which* plan wins).
"""

from __future__ import annotations

import time as _time
from typing import Callable

import numpy as np

from repro.config import OptimizerConfig, PlanShape
from repro.core.instrumentation import Counters
from repro.core.pruning import PlanSet, SingleBestPlanSet
from repro.obs.trace import active_tracer
from repro.cost.model import CostModel
from repro.cost.vector import project
from repro.plans.operators import JoinMethod
from repro.plans.plan import JoinPlan, Plan
from repro.plans.plan_space import PlanSpace
from repro.query.join_graph import JoinGraph
from repro.query.query import Query

#: Factory signature for plan-set construction (allows the ablation
#: variant to be injected without changing the DP skeleton).
PlanSetFactory = Callable[[], PlanSet]

#: Vector positions involved in strict-mode closure (see
#: :func:`strict_closure`): startup time's recursive formula reads the
#: sub-plans' total time.
_STARTUP_INDEX = 1
_TOTAL_INDEX = 0

#: Minimum ``outer x inner`` candidates per spec for the block path;
#: below this, numpy call overhead beats the batching win and the
#: (bit-identical) scalar loop runs instead. Purely a deterministic
#: performance cutover — it never changes results.
_MIN_BLOCK_CANDIDATES = 16

#: Maximum candidate rows costed per kernel call. Large Pareto sets
#: (many-objective EXA) would otherwise allocate outer*inner*9 floats
#: per kernel temporary; chunking the *outer* axis keeps peak memory
#: bounded while preserving the outer-major enumeration order, so
#: results are unaffected.
_MAX_BLOCK_ROWS = 32768


def strict_closure(indices: tuple[int, ...]) -> tuple[int, ...]:
    """Extra objective dimensions strict mode adds to the pruning key.

    The paper's cost-dominance pruning assumes the recursive cost
    formulas read only the *selected* objectives of the sub-plans. Two
    dependencies break that once the paper's own plan-space extensions
    are in place:

    * startup time reads the sub-plans' **total time** (e.g. a hash
      join's startup includes building the inner);
    * every local cost term reads the sub-plans' **cardinality**, which
      the sampling scan makes plan-dependent.

    Selecting an objective subset that is not closed under these
    dependencies (e.g. {startup, disk, energy}) lets both the EXA and
    the RTA prune plans whose hidden dimensions would have paid off
    higher in the plan tree — observed factors of 17x beyond alpha on
    TPC-H Q5. Strict mode closes the subset: this function adds total
    time whenever startup time is selected without it, and
    :class:`DPRun` appends the output rows as an exactly compared
    dimension (``include_rows``). The default mode reproduces the
    paper's pruning unchanged.
    """
    if _STARTUP_INDEX in indices and _TOTAL_INDEX not in indices:
        return (_TOTAL_INDEX,)
    return ()


def strip_entries(entries, width: int):
    """Drop strict-mode pruning dimensions from stored (cost, plan) pairs."""
    return [(cost[:width], plan) for cost, plan in entries]


def deadline_exceeded(deadline: float | None) -> bool:
    """Whether an absolute ``perf_counter`` deadline has already passed.

    Algorithms call this once at the end of a run to report
    ``deadline_hit`` even when the enumeration's coarse periodic check
    (every ``timeout_check_interval`` candidates) never fired.
    """
    return deadline is not None and _time.perf_counter() > deadline  # lint-allow: REP001 deadline check only; never feeds plan choice


class DPRun:
    """One bottom-up enumeration over a single query block."""

    def __init__(
        self,
        query: Query,
        cost_model: CostModel,
        config: OptimizerConfig,
        indices: tuple[int, ...],
        weights: tuple[float, ...],
        alpha_internal: float = 1.0,
        plan_set_factory: PlanSetFactory | None = None,
        deadline: float | None = None,
        counters: Counters | None = None,
        extra_indices: tuple[int, ...] = (),
        include_rows: bool = False,
    ) -> None:
        """``extra_indices`` appends further objective dimensions to the
        pruning key (e.g. total time when only startup time is selected)
        and ``include_rows`` appends the plan's output cardinality as an
        exactly-compared dimension — together these form the *strict
        mode* closure described at :func:`strict_closure`. Weights are
        padded with zeros over the appended dimensions, so weighted-cost
        decisions (timeout fallback, SelectBest) are unaffected."""
        self.query = query
        self.cost_model = cost_model
        self.config = config
        self.indices = indices
        self.extra_indices = extra_indices
        self.include_rows = include_rows
        self.weights = weights + (0.0,) * (
            len(extra_indices) + (1 if include_rows else 0)
        )
        self.alpha_internal = alpha_internal
        self.plan_space = PlanSpace(cost_model, config)
        self.graph = JoinGraph(query)
        self.deadline = deadline
        self.counters = counters if counters is not None else Counters()
        exact_suffix = 1 if include_rows else 0
        self._factory: PlanSetFactory = plan_set_factory or (
            lambda: PlanSet(alpha=alpha_internal, exact_suffix=exact_suffix)
        )
        self._check_interval = config.timeout_check_interval
        self._since_check = 0
        self._timed_out = False
        self._vectorized = config.vectorized_enumeration
        # Phase timers cost a few perf_counter reads per candidate
        # *block* (never per candidate), so they default on; the scalar
        # loop's time is charged to enumeration as self time.
        self._phase_timers = config.phase_timers
        self._all_indices = indices + extra_indices
        self._indices_array = np.array(self._all_indices, dtype=np.intp)
        self._full_projection = (
            self._all_indices == tuple(range(9)) and not include_rows
        )
        self._nested_loop_specs = tuple(
            spec
            for spec in self.plan_space.generic_join_specs
            if spec.method is JoinMethod.NESTED_LOOP
        )

    @property
    def projection_width(self) -> int:
        """Number of preference dimensions (prefix of stored tuples)."""
        return len(self.indices)

    # ------------------------------------------------------------------
    def run(self) -> dict[int, PlanSet]:
        """Execute the enumeration; returns plan sets keyed by bitmask.

        When phase timing is on, the run's wall time minus whatever the
        block path charged to kernel/prune/materialize is credited to
        ``enumeration_ms`` — the phases stay disjoint and sum to the DP
        wall time. When a tracer is active, one span per DP level
        (table-set size) records where enumeration time went level by
        level.
        """
        graph = self.graph
        masks = graph.connected_subsets()
        counters = self.counters
        counters.table_sets_total = len(masks)
        tracer = active_tracer()
        timers = self._phase_timers
        run_start = _time.perf_counter() if timers else 0.0  # lint-allow: REP001 phase timer; measured, never decided on
        sub_phase_before = (
            counters.kernel_ms + counters.pruning_ms + counters.materialize_ms
        )
        level_span = None
        level_plans_before = 0
        level = 0
        sets: dict[int, PlanSet] = {}
        for mask in masks:
            size = mask.bit_count()
            if tracer is not None and size != level:
                if level_span is not None:
                    level_span.set(
                        plans_considered=(
                            counters.plans_considered - level_plans_before
                        ),
                    )
                    level_span.finish()
                level = size
                level_plans_before = counters.plans_considered
                level_span = tracer.begin(f"dp_level_{size}", "dp_level",
                                          tables=size)
            fallback_before = self._timed_out
            if size == 1:
                plan_set = self._build_singleton(mask)
            else:
                plan_set = self._build_composite(mask, sets)
            sets[mask] = plan_set
            # A set counts as "treated completely" only if the whole
            # enumeration for it ran before the timeout.
            counters.complete_table_set(
                mask, len(plan_set),
                fallback=fallback_before or self._timed_out,
            )
        if level_span is not None:
            level_span.set(
                plans_considered=(
                    counters.plans_considered - level_plans_before
                ),
            )
            level_span.finish()
        if timers:
            wall_ms = (_time.perf_counter() - run_start) * 1000.0  # lint-allow: REP001 phase timer; measured, never decided on
            sub_phase_ms = (
                counters.kernel_ms
                + counters.pruning_ms
                + counters.materialize_ms
                - sub_phase_before
            )
            counters.enumeration_ms += max(0.0, wall_ms - sub_phase_ms)
        counters.timed_out = self._timed_out
        return sets

    # ------------------------------------------------------------------
    def _new_set(self) -> PlanSet:
        if self._timed_out:
            return SingleBestPlanSet(self.weights)
        return self._factory()

    def _build_singleton(self, mask: int) -> PlanSet:
        alias = next(iter(self.graph.aliases_of(mask)))
        plan_set = self._new_set()
        for plan in self.plan_space.access_paths(self.query, alias):
            self._consider(plan_set, plan)
        return plan_set

    def _build_composite(self, mask: int, sets: dict[int, PlanSet]) -> PlanSet:
        plan_set = self._new_set()
        graph = self.graph
        left_deep = self.config.plan_shape is PlanShape.LEFT_DEEP
        for left_mask, right_mask in graph.splits(mask):
            left_set = sets.get(left_mask)
            right_set = sets.get(right_mask)
            if left_set is None or right_set is None or not left_set or not right_set:
                # Internally disconnected halves carry no plans
                # (standard connected-subgraph enumeration).
                continue
            if left_deep and not (
                left_mask.bit_count() == 1 or right_mask.bit_count() == 1
            ):
                continue
            predicates = graph.predicates_between(left_mask, right_mask)
            # Memoized on the cost model: the IRA re-enumerates the same
            # splits every refinement iteration.
            selectivity = self.cost_model.selectivities.join_selectivity(
                self.query, predicates
            )
            # Left-deep trees require a base-table inner; bushy trees
            # combine each unordered split in both operand orders.
            if not left_deep or right_mask.bit_count() == 1:
                self._combine_pair(plan_set, left_set, right_mask,
                                   right_set, predicates, selectivity)
            if not left_deep or left_mask.bit_count() == 1:
                self._combine_pair(plan_set, right_set, left_mask,
                                   left_set, predicates, selectivity)
        return plan_set

    def _combine_pair(
        self,
        target: PlanSet,
        outer_set: PlanSet,
        inner_mask: int,
        inner_set: PlanSet,
        predicates,
        selectivity: float,
    ) -> None:
        """Join plans with ``outer`` as left and ``inner`` as right operand.

        Dispatches to the batched block path (default) or the scalar
        per-candidate loop. The scalar loop remains the behavioural
        reference: it runs when ``vectorized_enumeration`` is off, after
        a timeout (single-representative fallback), and for pruning
        structures whose block semantics are not bit-for-bit equivalent
        (``vectorizable = False``, e.g. the aggressive ablation variant).
        """
        if (
            self._vectorized
            and not self._timed_out
            and target.vectorizable
            and len(outer_set) * len(inner_set) >= _MIN_BLOCK_CANDIDATES
        ):
            self._combine_pair_block(
                target, outer_set, inner_mask, inner_set, predicates,
                selectivity,
            )
        else:
            self._combine_pair_scalar(
                target, outer_set, inner_mask, inner_set, predicates,
                selectivity,
            )

    def _combine_pair_scalar(
        self,
        target: PlanSet,
        outer_set: PlanSet,
        inner_mask: int,
        inner_set: PlanSet,
        predicates,
        selectivity: float,
    ) -> None:
        """Reference per-candidate loop (one ``join_cost`` call each).

        Hot loop: for every candidate the cost vector is computed first
        and a :class:`JoinPlan` is only materialized if the target set
        does not already (approximately) dominate it.
        """
        query = self.query
        cost_model = self.cost_model
        if self._timed_out:
            # Timeout fallback: single representative per operand set.
            outer_entry = outer_set.best_weighted(self.weights)
            inner_entry = inner_set.best_weighted(self.weights)
            outer_plans = [outer_entry[1]] if outer_entry else []
            inner_plans = [inner_entry[1]] if inner_entry else []
        else:
            outer_plans = [plan for _, plan in outer_set]
            inner_plans = [plan for _, plan in inner_set]

        if predicates:
            generic_specs = self.plan_space.generic_join_specs
        else:
            # Cartesian product: only nested loops are applicable.
            generic_specs = self._nested_loop_specs

        indices = self._all_indices
        include_rows = self.include_rows
        full_projection = self._full_projection
        join_cost = cost_model.join_cost
        counters = self.counters
        for spec in generic_specs:
            for left_plan in outer_plans:
                left_rows = left_plan.rows
                for right_plan in inner_plans:
                    out_rows = left_rows * right_plan.rows * selectivity
                    cost = join_cost(spec, left_plan, right_plan, out_rows)
                    counters.plans_considered += 1
                    if full_projection:
                        projected = cost
                    else:
                        projected = tuple(cost[i] for i in indices)
                        if include_rows:
                            projected += (out_rows,)
                    if not target.covers(projected):
                        plan = JoinPlan(
                            spec, left_plan, right_plan, out_rows,
                            left_plan.width + right_plan.width,
                            cost, cost[8],
                        )
                        target.force_insert(projected, plan)
                    self._since_check += 1
                    if self._since_check >= self._check_interval:
                        self._since_check = 0
                        self._check_deadline()
                        if self._timed_out:
                            return

        # Index-nested-loop: inner must be a single base table with an
        # index on a join column.
        if predicates and inner_mask.bit_count() == 1:
            inner_alias = next(iter(self.graph.aliases_of(inner_mask)))
            if not self._allow_index_probe(inner_alias):
                return
            probes = self.plan_space.index_probe_inners(
                query, inner_alias, predicates
            )
            for probe in probes:
                probe_rows = probe.rows
                for spec in self.plan_space.index_nl_specs:
                    for left_plan in outer_plans:
                        out_rows = left_plan.rows * probe_rows * selectivity
                        cost = join_cost(spec, left_plan, probe, out_rows)
                        counters.plans_considered += 1
                        if full_projection:
                            projected = cost
                        else:
                            projected = tuple(cost[i] for i in indices)
                            if include_rows:
                                projected += (out_rows,)
                        if not target.covers(projected):
                            plan = JoinPlan(
                                spec, left_plan, probe, out_rows,
                                left_plan.width + probe.width,
                                cost, cost[8],
                            )
                            target.force_insert(projected, plan)
                        self._since_check += 1
                        if self._since_check >= self._check_interval:
                            self._since_check = 0
                            self._check_deadline()
                            if self._timed_out:
                                return

    # ------------------------------------------------------------------
    # Vectorized (block) enumeration
    # ------------------------------------------------------------------
    def _combine_pair_block(
        self,
        target: PlanSet,
        outer_set: PlanSet,
        inner_mask: int,
        inner_set: PlanSet,
        predicates,
        selectivity: float,
    ) -> None:
        """Batched ``_combine_pair``: per-spec ``outer x inner`` blocks.

        Candidates are generated in exactly the scalar loop's order
        (spec-major, then outer, then inner); each spec's block is
        costed by one kernel call, masked by
        :meth:`~repro.core.pruning.PlanSet.block_accept`, and only
        surviving rows materialize plans — see the module docstring's
        determinism contract.
        """
        cost_model = self.cost_model
        outer_block = outer_set.plan_block()
        inner_block = inner_set.plan_block()
        if predicates:
            generic_specs = self.plan_space.generic_join_specs
        else:
            # Cartesian product: only nested loops are applicable.
            generic_specs = self._nested_loop_specs

        n_outer = len(outer_block)
        n_inner = len(inner_block)
        outer_chunk = max(1, _MAX_BLOCK_ROWS // n_inner)
        timers = self._phase_timers
        counters = self.counters
        for spec in generic_specs:
            # Chunking the outer axis preserves the outer-major
            # candidate order, so chunk boundaries are invisible to the
            # pruning structure (earlier chunks insert before later
            # chunks' accept masks are computed — the sequential order).
            for start in range(0, n_outer, outer_chunk):
                stop = min(start + outer_chunk, n_outer)
                chunk = (
                    outer_block
                    if stop - start == n_outer
                    else outer_block.slice(start, stop)
                )
                kernel_start = _time.perf_counter() if timers else 0.0  # lint-allow: REP001 phase timer; measured, never decided on
                out_rows = (
                    chunk.rows[:, None] * inner_block.rows[None, :]
                ) * selectivity
                costs = cost_model.join_cost_block(
                    spec, chunk, inner_block, out_rows
                ).reshape(-1, 9)
                if timers:
                    counters.kernel_ms += (
                        _time.perf_counter() - kernel_start  # lint-allow: REP001 phase timer; measured, never decided on
                    ) * 1000.0
                if not self._insert_block(
                    target, spec, costs, out_rows.reshape(-1),
                    chunk.plans, inner_block.plans, n_inner,
                ):
                    return

        # Index-nested-loop: inner must be a single base table with an
        # index on a join column.
        if predicates and inner_mask.bit_count() == 1:
            inner_alias = next(iter(self.graph.aliases_of(inner_mask)))
            if not self._allow_index_probe(inner_alias):
                return
            probes = self.plan_space.index_probe_inners(
                self.query, inner_alias, predicates
            )
            for probe in probes:
                probe_out_rows = (
                    outer_block.rows * probe.rows
                ) * selectivity
                for spec in self.plan_space.index_nl_specs:
                    kernel_start = _time.perf_counter() if timers else 0.0  # lint-allow: REP001 phase timer; measured, never decided on
                    costs = cost_model.index_nl_cost_block(
                        spec, outer_block, probe, probe_out_rows
                    )
                    if timers:
                        counters.kernel_ms += (
                            _time.perf_counter() - kernel_start  # lint-allow: REP001 phase timer; measured, never decided on
                        ) * 1000.0
                    if not self._insert_block(
                        target, spec, costs, probe_out_rows,
                        outer_block.plans, (probe,), 1,
                    ):
                        return

    def _insert_block(
        self,
        target: PlanSet,
        spec,
        costs: np.ndarray,
        out_rows: np.ndarray,
        outer_plans,
        inner_plans,
        n_inner: int,
    ) -> bool:
        """Mask one cost block and materialize its surviving rows.

        ``costs`` is the flat ``(n, 9)`` block in enumeration order;
        row ``k`` joins ``outer_plans[k // n_inner]`` with
        ``inner_plans[k % n_inner]``. Returns ``False`` once the
        deadline check trips (the caller abandons the remaining specs,
        like the scalar loop's mid-iteration return).
        """
        counters = self.counters
        timers = self._phase_timers
        n_rows = costs.shape[0]
        counters.plans_considered += n_rows
        counters.candidates_vectorized += n_rows
        prune_start = _time.perf_counter() if timers else 0.0  # lint-allow: REP001 phase timer; measured, never decided on
        if self._full_projection:
            projected = costs
        else:
            projected = costs[:, self._indices_array]
            if self.include_rows:
                projected = np.concatenate(
                    (projected, out_rows[:, None]), axis=1
                )
        keep = target.block_accept(projected)
        if timers:
            materialize_start = _time.perf_counter()  # lint-allow: REP001 phase timer; measured, never decided on
            counters.pruning_ms += (materialize_start - prune_start) * 1000.0
        for position in map(int, np.nonzero(keep)[0]):
            cost = tuple(costs[position].tolist())
            if self._full_projection:
                projected_tuple = cost
            else:
                projected_tuple = tuple(projected[position].tolist())
            left_plan = outer_plans[position // n_inner]
            right_plan = inner_plans[position % n_inner]
            plan = JoinPlan(
                spec, left_plan, right_plan, float(out_rows[position]),
                left_plan.width + right_plan.width, cost, cost[8],
            )
            target.force_insert(projected_tuple, plan)
        if timers:
            counters.materialize_ms += (
                _time.perf_counter() - materialize_start  # lint-allow: REP001 phase timer; measured, never decided on
            ) * 1000.0
        self._since_check += n_rows
        if self._since_check >= self._check_interval:
            self._since_check = 0
            self._check_deadline()
            if self._timed_out:
                return False
        return True

    # ------------------------------------------------------------------
    def _consider(self, target: PlanSet, plan: Plan) -> None:
        """Prune ``target`` with a newly generated plan (leaf path)."""
        counters = self.counters
        counters.plans_considered += 1
        projected = project(plan.cost, self._all_indices)
        if self.include_rows:
            projected += (plan.rows,)
        target.insert(projected, plan)
        self._since_check += 1
        if self._since_check >= self._check_interval:
            self._since_check = 0
            self._check_deadline()

    def _allow_index_probe(self, inner_alias: str) -> bool:
        """Whether the alias may serve as an index-probe inner.

        Subclasses representing virtual (already-committed) operands
        override this — a virtual leaf is an intermediate result, not a
        base table with indexes.
        """
        return True

    def _check_deadline(self) -> None:
        if (
            not self._timed_out
            and self.deadline is not None
            and _time.perf_counter() > self.deadline  # lint-allow: REP001 deadline check only; never feeds plan choice
        ):
            self._timed_out = True

    @property
    def timed_out(self) -> bool:
        """Whether the deadline was hit during enumeration."""
        return self._timed_out
