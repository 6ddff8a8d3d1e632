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

Batched enumeration: :meth:`DPRun._build_level` collects the ordered
operand pairs of all table sets of one size (a DP level; they depend
only on smaller sets) and costs their ``(join spec, outer plan, inner
plan)`` candidates through the kernels of
:meth:`repro.cost.model.CostModel.join_cost_block` and
:meth:`~repro.cost.model.CostModel.index_nl_cost_block` — one call per
join method covers every DOP, and a run of small pairs, which may span
table sets, is gathered into one call — then masks each set's rows with
:meth:`repro.core.pruning.PlanSet.block_accept` and materializes
:class:`~repro.plans.plan.JoinPlan` objects only for surviving rows.

**Determinism contract:** candidates are visited in one fixed order
(split, operand order, spec — generic specs, then index-nested-loop
specs per probe — outer, inner), the kernels mirror the scalar
``join_cost`` formulas operation for operation, and ``block_accept``
plus ordered ``force_insert`` equals a sequential ``insert`` for every
pruning structure. So the plan sets, entry order included, equal those
of a per-candidate loop (``tests/helpers.py`` keeps it as the
reference), whatever the block boundaries. ``repro lint`` rule REP001
enforces the preconditions statically: no unseeded RNG, wall-clock
reads, or unordered set iteration may feed results in this module (the
deadline checks and phase timers below carry per-line ``lint-allow``
suppressions because they only gate *when* enumeration stops, never
*which* plan wins).
"""

from __future__ import annotations

import time as _time
from itertools import chain, groupby, islice
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.config import OptimizerConfig, PlanShape
from repro.core.instrumentation import Counters
from repro.core.pruning import PlanSet, SingleBestPlanSet
from repro.cost.model import CostModel
from repro.cost.vector import project
from repro.plans.operators import JoinMethod, JoinSpec
from repro.plans.plan import JoinPlan, Plan, PlanBlock, ScanPlan
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

#: Maximum candidate rows costed per kernel call (all its DOPs counted).
#: Larger pairs are chunked on the outer axis, which keeps peak memory
#: bounded and preserves the enumeration order.
_MAX_BLOCK_ROWS = 32768

#: Consecutive pairs of a DP level with at most this many candidates in
#: total are gathered into one run, costed by one kernel call per join
#: method; a larger pair is costed on its own, one spec at a time.
_RUN_ROWS = 2048

#: Candidate rows per ``block_accept`` call: later rows of a long block
#: are then checked against the entries its earlier rows inserted, and
#: the coverage check's temporaries stay small.
_ACCEPT_ROWS = 256


class _Pair(NamedTuple):
    """One ordered operand pair of the table set ``mask``.

    ``outer``/``inner`` are plan sets until costing starts, then their
    :class:`PlanBlock` mirrors. ``groups`` splits the generic join
    ``specs`` by join method (one kernel call each); ``probes`` are the
    inners of the index-nested-loop joins, each joined under every one
    of ``index_specs``.
    """

    mask: int
    outer: object
    inner: object
    specs: tuple[JoinSpec, ...]
    groups: tuple[tuple[JoinSpec, ...], ...]
    probes: tuple[ScanPlan, ...]
    index_specs: tuple[JoinSpec, ...]
    selectivity: float


#: Rows from ``start`` on join ``outer_plans`` with ``inner_plans``
#: under each of ``specs`` in turn (spec-major, then outer, inner).
Segment = tuple[int, tuple[JoinSpec, ...], Sequence[Plan], Sequence[Plan]]


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
        # Phase timers cost a few perf_counter reads per candidate
        # *block* (never per candidate), so they default on.
        self._phase_timers = config.phase_timers
        self._all_indices = indices + extra_indices
        self._indices_array = np.array(self._all_indices, dtype=np.intp)
        self._full_projection = (
            self._all_indices == tuple(range(9)) and not include_rows
        )
        join_specs = self.plan_space.generic_join_specs
        self._join_groups = tuple(
            tuple(group)
            for _, group in groupby(join_specs, key=lambda spec: spec.method)
        )
        # Cartesian products: only nested loops are applicable.
        self._cartesian_groups = tuple(
            group for group in self._join_groups
            if group[0].method is JoinMethod.NESTED_LOOP
        )
        self._index_nl_specs = self.plan_space.index_nl_specs

    @property
    def projection_width(self) -> int:
        """Number of preference dimensions (prefix of stored tuples)."""
        return len(self.indices)

    # ------------------------------------------------------------------
    def run(self) -> dict[int, PlanSet]:
        """Execute the enumeration; returns plan sets keyed by bitmask.

        The table sets of one size form a DP level, built together by
        :meth:`_build_level`. When phase timing is on, the run's wall
        time minus whatever the block path charged to
        kernel/prune/materialize is credited to ``enumeration_ms`` — the
        phases stay disjoint and sum to the DP wall time.
        """
        masks = self._table_sets()
        counters = self.counters
        counters.table_sets_total = len(masks)
        timers = self._phase_timers
        run_start = _time.perf_counter() if timers else 0.0  # lint-allow: REP001 phase timer; measured, never decided on
        sub_phase_before = (
            counters.kernel_ms + counters.pruning_ms + counters.materialize_ms
        )
        sets: dict[int, PlanSet] = {}
        for size, level in groupby(masks, key=int.bit_count):
            if size == 1:
                # The timeout flag is read after each set is built.
                built = [(mask, self._build_singleton(mask), self._timed_out)
                         for mask in level]
            else:
                built = self._build_level(list(level), sets)
            for mask, plan_set, fallback in built:
                sets[mask] = plan_set
                # A set counts as "treated completely" only if the whole
                # enumeration for it ran before the timeout.
                counters.complete_table_set(mask, len(plan_set),
                                            fallback=fallback)
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

    def _table_sets(self) -> list[int]:
        """Table sets to build, bottom-up (operands before their unions).

        Subclasses may restrict the enumeration to a subset of them.
        """
        return self.graph.connected_subsets()

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

    def _build_level(
        self, masks: list[int], sets: dict[int, PlanSet]
    ) -> list[tuple[int, PlanSet, bool]]:
        """Build the composite table sets ``masks``, all of one size.

        Returns ``(mask, plan set, built after the timeout)`` per set.
        The operand pairs of a level's sets are costed together, so
        kernel calls span table sets; each set's plan set is created
        when its first candidates are accepted.
        """
        targets, after_timeout = self._combine([
            pair for mask in masks for pair in self._operand_pairs(mask, sets)
        ])
        return [
            (mask, targets[mask] if mask in targets else self._new_set(),
             after_timeout.get(mask, self._timed_out))
            for mask in masks
        ]

    def _operand_pairs(
        self, mask: int, sets: dict[int, PlanSet]
    ) -> list[_Pair]:
        """The ordered operand pairs of ``mask``, in enumeration order."""
        graph = self.graph
        left_deep = self.config.plan_shape is PlanShape.LEFT_DEEP
        pairs = []
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
            groups = (
                self._join_groups if predicates else self._cartesian_groups
            )
            specs = tuple(chain.from_iterable(groups))
            # Left-deep trees require a base-table inner; bushy trees
            # combine each unordered split in both operand orders.
            if not left_deep or right_mask.bit_count() == 1:
                pairs.append(_Pair(
                    mask, left_set, right_set, specs, groups,
                    self._probes(right_mask, predicates),
                    self._index_nl_specs, selectivity,
                ))
            if not left_deep or left_mask.bit_count() == 1:
                pairs.append(_Pair(
                    mask, right_set, left_set, specs, groups,
                    self._probes(left_mask, predicates),
                    self._index_nl_specs, selectivity,
                ))
        return pairs

    def _probes(self, inner_mask: int, predicates) -> tuple[ScanPlan, ...]:
        """Index-probe inners of index-nested-loop joins into ``inner_mask``.

        The inner must be a single base table with an index on a join
        column.
        """
        if not (
            predicates and self._index_nl_specs
            and inner_mask.bit_count() == 1
        ):
            return ()
        inner_alias = next(iter(self.graph.aliases_of(inner_mask)))
        if not self._allow_index_probe(inner_alias):
            return ()
        return tuple(self.plan_space.index_probe_inners(
            self.query, inner_alias, predicates
        ))

    # ------------------------------------------------------------------
    # Batched costing
    # ------------------------------------------------------------------
    def _combine(
        self, pairs: list[_Pair]
    ) -> tuple[dict[int, PlanSet], dict[int, bool]]:
        """Cost ``pairs`` in order into the plan sets of their table sets.

        Consecutive pairs with at most :data:`_RUN_ROWS` candidates in
        total form one run; a larger pair is costed alone, in the parts
        of :meth:`_split`. Once the deadline check trips, the rest of a
        pair cut off mid-way is dropped and the remaining pairs join
        one-row blocks of each operand's best weighted plan (Section
        5.1). Returns the plan sets by mask, and per mask whether the
        timeout had been detected when its last pair was done.
        """
        targets: dict[int, PlanSet] = {}
        after_timeout: dict[int, bool] = {}
        start = 0
        while start < len(pairs):
            operand = (
                self._representative if self._timed_out
                else PlanSet.plan_block
            )
            run: list[_Pair] = []
            rows = 0
            for pair in islice(pairs, start, None):
                pair = pair._replace(outer=operand(pair.outer),
                                     inner=operand(pair.inner))
                pair_rows = len(pair.outer) * (
                    len(pair.specs) * len(pair.inner)
                    + len(pair.probes) * len(pair.index_specs)
                )
                if run and (rows + pair_rows > _RUN_ROWS
                            or pair.groups is not run[0].groups):
                    break
                run.append(pair)
                rows += pair_rows
            start += len(run)
            # Only a single pair can exceed the run size.
            parts = (
                [[part] for part in self._split(run[0])]
                if rows > _RUN_ROWS else [run]
            )
            for part in parts:
                self._combine_run(targets, part)
                for pair in part:
                    after_timeout[pair.mask] = self._timed_out
                if self._timed_out:
                    break
        return targets, after_timeout

    def _representative(self, plan_set: PlanSet) -> PlanBlock:
        """One-row block of the set's best weighted plan."""
        return PlanBlock([plan_set.best_weighted(self.weights)[1]])

    @staticmethod
    def _split(pair: _Pair) -> list[_Pair]:
        """A large pair as parts that are costed and accepted in turn.

        One part per spec (and probe) and outer chunk of at most
        :data:`_MAX_BLOCK_ROWS` rows, in enumeration order; only one
        part's cost block is alive at a time.
        """
        def chunks(n_inner: int) -> list[PlanBlock]:
            step = max(1, _MAX_BLOCK_ROWS // n_inner)
            return [pair.outer.slice(first, first + step)
                    for first in range(0, len(pair.outer), step)]

        return [
            pair._replace(outer=outer, specs=(spec,), groups=((spec,),),
                          probes=())
            for spec in pair.specs for outer in chunks(len(pair.inner))
        ] + [
            pair._replace(outer=outer, specs=(), groups=(), probes=(probe,),
                          index_specs=(spec,))
            for probe in pair.probes for spec in pair.index_specs
            for outer in chunks(1)
        ]

    def _combine_run(self, targets: dict[int, PlanSet],
                     pairs: list[_Pair]) -> None:
        """Cost a run of pairs and prune their table sets' plan sets.

        One kernel call per join method, and one for the
        index-nested-loop joins, costs every pair of the run at every
        DOP; the rows are then laid out in enumeration order: per pair,
        its generic specs, then its index-nested-loop specs per probe. A
        table set's plan set is created when its first rows are
        accepted.
        """
        generic = self._cost_joins(
            self.cost_model.join_cost_block, pairs[0].groups,
            [(pair.outer, pair.inner, pair.selectivity) for pair in pairs],
        )
        indexed = iter(self._cost_joins(
            self.cost_model.index_nl_cost_block, (pairs[0].index_specs,),
            [(pair.outer, PlanBlock.of_probes((probe,)), pair.selectivity)
             for pair in pairs for probe in pair.probes],
        ))
        considered = 0
        for mask, costed in groupby(zip(pairs, generic),
                                    key=lambda item: item[0].mask):
            segments: list[Segment] = []
            batch: list[tuple[np.ndarray, np.ndarray]] = []
            position = 0
            for pair, pieces in costed:
                joins = [(pair.specs, pair.inner.plans, pieces)] + [
                    (pair.index_specs, (probe,), next(indexed))
                    for probe in pair.probes
                ]
                for specs, inner_plans, pieces in joins:
                    if pieces:
                        segments.append(
                            (position, specs, pair.outer.plans, inner_plans)
                        )
                        batch.extend(pieces)
                        position += (
                            len(specs) * len(pair.outer) * len(inner_plans)
                        )
            if batch:
                if mask not in targets:
                    targets[mask] = self._new_set()
                self._accept(targets[mask], batch, segments)
            considered += position
        self._since_check += considered
        if not self._timed_out and self._since_check >= self._check_interval:
            self._since_check = 0
            self._check_deadline()

    def _cost_joins(self, kernel, groups, joins) -> list[list[tuple]]:
        """Cost ``joins`` under each spec group, one kernel call a group.

        ``joins`` lists ``(outer block, inner block, selectivity)``.
        Returns, per join, one ``(costs, out_rows)`` piece per group, of
        shapes ``(len(group), candidates, 9)`` and ``(len(group),
        candidates)``.
        """
        if not (joins and groups):
            return [[] for _ in joins]
        left, right, out_rows = _gather(joins)
        costed = []
        for group in groups:
            costs, rows = self._cost(kernel, group, left, right, out_rows)
            costed.append((costs.reshape(len(group), -1, 9),
                           rows.reshape(len(group), -1)))
        pieces = []
        first = 0
        for outer, inner, _ in joins:
            last = first + len(outer) * len(inner)
            pieces.append([
                (costs[:, first:last], rows[:, first:last])
                for costs, rows in costed
            ])
            first = last
        return pieces

    def _cost(self, kernel, specs, outer, inner, out_rows) -> tuple:
        """One timed kernel call costing ``out_rows`` under every spec.

        Returns the costs and ``out_rows`` repeated per spec (a
        broadcast view), both with one leading axis per spec.
        """
        timers = self._phase_timers
        kernel_start = _time.perf_counter() if timers else 0.0  # lint-allow: REP001 phase timer; measured, never decided on
        out_rows = np.broadcast_to(out_rows, (len(specs),) + out_rows.shape)
        costs = kernel(specs, outer, inner, out_rows)
        if timers:
            self.counters.kernel_ms += (
                _time.perf_counter() - kernel_start  # lint-allow: REP001 phase timer; measured, never decided on
            ) * 1000.0
        return costs, out_rows

    def _accept(
        self,
        target: PlanSet,
        pieces: list[tuple[np.ndarray, np.ndarray]],
        segments: list[Segment],
    ) -> None:
        """Prune ``target`` with a run's costed pieces, in order.

        ``pieces`` are ``(costs, out_rows)`` as :meth:`_cost_joins`
        returns them, and ``segments`` say which spec and operands each
        row joins. The rows are masked by ``block_accept`` in slices of
        :data:`_ACCEPT_ROWS`, and only surviving rows materialize plans.
        """
        counters = self.counters
        timers = self._phase_timers
        costs = np.concatenate(
            [block for block, _ in pieces], axis=None
        ).reshape(-1, 9)
        out_rows = np.concatenate([rows for _, rows in pieces], axis=None)
        n_rows = costs.shape[0]
        counters.plans_considered += n_rows
        counters.candidates_vectorized += n_rows
        full_projection = self._full_projection
        if full_projection:
            projected = costs
        else:
            projected = costs[:, self._indices_array]
            if self.include_rows:
                projected = np.concatenate(
                    (projected, out_rows[:, None]), axis=1
                )
        starts = [segment[0] for segment in segments]
        for start in range(0, n_rows, _ACCEPT_ROWS):
            prune_start = _time.perf_counter() if timers else 0.0  # lint-allow: REP001 phase timer; measured, never decided on
            keep = target.block_accept(projected[start:start + _ACCEPT_ROWS])
            if timers:
                materialize_start = _time.perf_counter()  # lint-allow: REP001 phase timer; measured, never decided on
                counters.pruning_ms += (
                    materialize_start - prune_start
                ) * 1000.0
            rows = np.flatnonzero(keep) + start
            owners = np.searchsorted(starts, rows, "right") - 1
            kept_costs = costs[rows].tolist()
            kept_keys = (
                kept_costs if full_projection else projected[rows].tolist()
            )
            for row, owner, cost, key, row_count in zip(
                rows.tolist(), owners.tolist(), kept_costs, kept_keys,
                out_rows[rows].tolist(),
            ):
                segment_start, specs, outer_plans, inner_plans = (
                    segments[owner]
                )
                n_inner = len(inner_plans)
                spec, candidate = divmod(
                    row - segment_start, len(outer_plans) * n_inner
                )
                left_plan = outer_plans[candidate // n_inner]
                right_plan = inner_plans[candidate % n_inner]
                cost = tuple(cost)
                target.force_insert(
                    cost if full_projection else tuple(key),
                    JoinPlan(
                        specs[spec], left_plan, right_plan, row_count,
                        left_plan.width + right_plan.width, cost, cost[8],
                    ),
                )
            if timers:
                counters.materialize_ms += (
                    _time.perf_counter() - materialize_start  # lint-allow: REP001 phase timer; measured, never decided on
                ) * 1000.0

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


def _gather(joins) -> tuple[PlanBlock, PlanBlock, np.ndarray]:
    """Operand columns and output cardinalities of ``joins``.

    ``joins`` lists ``(outer block, inner block, selectivity)``. One join
    is costed as an ``outer x inner`` broadcast; several are gathered
    into flat per-candidate columns, join after join, each outer-major.
    """
    if len(joins) == 1:
        (outer, inner, selectivity), = joins
        left, right = outer.take(np.s_[:, None]), inner.take(np.s_[None])
        return left, right, (left.rows * right.rows) * selectivity
    outer_sizes = np.array([len(outer) for outer, _, _ in joins])
    inner_sizes = np.array([len(inner) for _, inner, _ in joins])
    sizes = outer_sizes * inner_sizes
    owner = np.repeat(np.arange(len(joins)), sizes)
    local = np.arange(len(owner)) - (np.cumsum(sizes) - sizes)[owner]
    inner_count = inner_sizes[owner]
    left = PlanBlock.concatenate([outer for outer, _, _ in joins]).take(
        (np.cumsum(outer_sizes) - outer_sizes)[owner] + local // inner_count
    )
    right = PlanBlock.concatenate([inner for _, inner, _ in joins]).take(
        (np.cumsum(inner_sizes) - inner_sizes)[owner] + local % inner_count
    )
    selectivities = np.array([selectivity for _, _, selectivity in joins])
    return left, right, left.rows * right.rows * selectivities[owner]
