"""The scalar/vectorized equivalence contract (see repro.core.dp).

The batched enumeration path must be **bit-for-bit** identical to the
scalar per-candidate loop: same frontier cost tuples in the same order,
same chosen plan, same counters. Hypothesis generates random join
graphs (chain and star topologies, random statistics and selectivities)
and the contract is checked for EXA, RTA and strict mode
(``exact_suffix > 0``); further tests cover the batched cost kernels
on tuple losses below 1/2, which the default sampling rates never
produce, the block primitives on :class:`~repro.core.pruning.PlanSet`
directly, the timeout fallback tripping mid-block, and the ablation
variants that must *not* take the block path.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Column,
    DataType,
    FilterPredicate,
    Index,
    JoinPredicate,
    Objective,
    OptimizerConfig,
    Preferences,
    Query,
    Table,
    TableRef,
    build_schema,
)
from repro.core.exa import exact_moqo
from repro.core.ira import ira
from repro.core.pruning import (
    _BLOCK_CMP_BUDGET,
    _FIRST_SLAB,
    AggressivePlanSet,
    PlanSet,
    SingleBestPlanSet,
)
from repro.core.rta import rta
from repro.core.selinger import selinger
from repro.cost.model import CostModel
from repro.plans.operators import JoinMethod, JoinSpec, ScanMethod, ScanSpec
from repro.plans.plan import PlanBlock, ScanPlan
from repro.query.tpch_queries import tpch_query

from tests.conftest import make_chain_query, make_small_schema

#: Compact operator space so each Hypothesis example stays fast while
#: still exercising every join method, sampling, and DOP > 1.
SMALL_CONFIG = OptimizerConfig(
    dop_values=(1, 2),
    sampling_rates=(0.05,),
)

OBJECTIVES = (
    Objective.TOTAL_TIME,
    Objective.BUFFER_FOOTPRINT,
    Objective.TUPLE_LOSS,
)


def scalar_config(config: OptimizerConfig) -> OptimizerConfig:
    return dataclasses.replace(config, vectorized_enumeration=False)


@st.composite
def join_graph_instances(draw):
    """A random 4-table schema + query with chain or star topology."""
    table_count = 4
    rows = [draw(st.integers(1, 50_000)) for _ in range(table_count)]
    ndv_share = [draw(st.floats(0.01, 1.0)) for _ in range(table_count)]
    filter_sel = draw(st.floats(0.01, 1.0))
    topology = draw(st.sampled_from(["chain", "star"]))
    explicit_sel = draw(st.one_of(st.none(), st.floats(1e-6, 1.0)))
    weights = tuple(draw(st.floats(0.0, 1.0)) for _ in OBJECTIVES)

    tables = []
    for position, (row_count, share) in enumerate(zip(rows, ndv_share)):
        ndv = max(1, int(row_count * share))
        tables.append(
            Table(
                f"t{position}",
                (
                    Column("key", DataType.INTEGER, n_distinct=ndv),
                    Column(
                        "payload", DataType.VARCHAR,
                        n_distinct=max(1, ndv // 2),
                    ),
                ),
                row_count=row_count,
            )
        )
    schema = build_schema(
        "random_vec",
        tables,
        [Index("t1_key_idx", "t1", ("key",), max(1, rows[1]))],
    )
    if topology == "chain":
        joins = tuple(
            JoinPredicate(f"t{i}", "key", f"t{i + 1}", "key",
                          selectivity=explicit_sel if i == 0 else None)
            for i in range(table_count - 1)
        )
    else:
        joins = tuple(
            JoinPredicate("t0", "key", f"t{i}", "key",
                          selectivity=explicit_sel if i == 1 else None)
            for i in range(1, table_count)
        )
    query = Query(
        "rand_vec_q",
        tuple(TableRef(f"t{i}", f"t{i}") for i in range(table_count)),
        filters=(FilterPredicate("t0", "payload", filter_sel),),
        joins=joins,
    )
    return schema, query, weights


def assert_bitwise_equal(vectorized, scalar):
    """Frontier (order included), plan and counters must match exactly."""
    assert [c for c, _ in vectorized.frontier] == [
        c for c, _ in scalar.frontier
    ]
    assert vectorized.plan_cost == scalar.plan_cost
    assert vectorized.plans_considered == scalar.plans_considered
    assert vectorized.pareto_last_complete == scalar.pareto_last_complete
    assert vectorized.memory_kb == scalar.memory_kb
    assert scalar.candidates_vectorized == 0


@given(join_graph_instances())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_exa_bitwise_equivalence_on_random_join_graphs(instance):
    schema, query, weights = instance
    model = CostModel(schema)
    prefs = Preferences(objectives=OBJECTIVES, weights=weights)
    vectorized = exact_moqo(query, model, prefs, SMALL_CONFIG)
    scalar = exact_moqo(query, model, prefs, scalar_config(SMALL_CONFIG))
    assert_bitwise_equal(vectorized, scalar)


@given(join_graph_instances(), st.floats(1.0, 4.0))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_rta_bitwise_equivalence_on_random_join_graphs(instance, alpha):
    schema, query, weights = instance
    model = CostModel(schema)
    prefs = Preferences(objectives=OBJECTIVES, weights=weights)
    vectorized = rta(query, model, prefs, alpha, SMALL_CONFIG)
    scalar = rta(query, model, prefs, alpha, scalar_config(SMALL_CONFIG))
    assert_bitwise_equal(vectorized, scalar)


@given(join_graph_instances())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_strict_mode_bitwise_equivalence(instance):
    """Strict mode appends an exactly-compared rows dimension
    (``exact_suffix > 0``), exercising the mixed scaled/exact
    thresholds of the block coverage check."""
    schema, query, weights = instance
    model = CostModel(schema)
    prefs = Preferences(objectives=OBJECTIVES, weights=weights)
    vectorized = rta(query, model, prefs, 1.5, SMALL_CONFIG, strict=True)
    scalar = rta(
        query, model, prefs, 1.5, scalar_config(SMALL_CONFIG), strict=True
    )
    assert_bitwise_equal(vectorized, scalar)


def test_tpch_equivalence_all_algorithms():
    """Deterministic spot check on a real TPC-H query, all entry points."""
    from repro.catalog.tpch import tpch_schema

    schema = tpch_schema()
    model = CostModel(schema)
    query = tpch_query(5).main_block
    prefs = Preferences(
        objectives=OBJECTIVES, weights=(1.0, 1e-6, 1e4)
    )
    bounded = Preferences(
        objectives=OBJECTIVES,
        weights=(1.0, 1e-6, 1e4),
        bounds=(float("inf"), float("inf"), 0.2),
    )
    vec, sca = SMALL_CONFIG, scalar_config(SMALL_CONFIG)
    pairs = [
        (exact_moqo(query, model, prefs, vec),
         exact_moqo(query, model, prefs, sca)),
        (rta(query, model, prefs, 2.0, vec),
         rta(query, model, prefs, 2.0, sca)),
        (ira(query, model, bounded, 2.0, vec),
         ira(query, model, bounded, 2.0, sca)),
        (selinger(query, model, Objective.TOTAL_TIME, vec),
         selinger(query, model, Objective.TOTAL_TIME, sca)),
    ]
    for vectorized, scalar in pairs:
        assert_bitwise_equal(vectorized, scalar)
    assert pairs[0][0].candidates_vectorized > 0


#: Tuple losses on both sides of 1/2, where the cost model switches
#: between ``a + b - a * b`` and ``1 - (1 - a) * (1 - b)``, including
#: losses near ulp(1) where the two forms differ in their last bits.
KERNEL_LOSSES = (0.0, 2.220446049250313e-16, 3.0531133177191805e-16,
                 0.1, 0.3, 0.49, 0.5, 0.95, 0.99)


@pytest.mark.parametrize("method", [
    JoinMethod.HASH, JoinMethod.MERGE, JoinMethod.NESTED_LOOP,
    JoinMethod.INDEX_NESTED_LOOP,
], ids=lambda m: m.name)
def test_cost_kernels_match_scalar_on_small_losses(method):
    """The batched kernels reproduce the scalar tuple-loss formula bit
    for bit on every loss pair, not only on sampled losses."""
    schema = make_small_schema()
    model = CostModel(schema)
    query = make_chain_query(2)
    width = schema.table("users").tuple_width

    def leaf(position, loss):
        cost = (10.0 + position, 1.0, 5.0, 7.0, 1.0, 0.0, 64.0, 3.0, loss)
        return ScanPlan("users", "users", ScanSpec(method=ScanMethod.SEQ),
                        100.0 + position, width, cost, loss)

    plans = [leaf(position, loss)
             for position, loss in enumerate(KERNEL_LOSSES)]
    block = PlanBlock(plans)
    spec = JoinSpec(method, dop=2)
    if method is JoinMethod.INDEX_NESTED_LOOP:
        probe = model.index_probe_plan(query, "orders", "orders_user_idx",
                                       "user_id")
        out_rows = block.rows * 0.5
        batched = model.index_nl_cost_block(spec, block, probe, out_rows)
        pairs = [((i,), plan, probe) for i, plan in enumerate(plans)]
    else:
        out_rows = block.rows[:, None] * block.rows[None, :] * 0.01
        batched = model.join_cost_block(spec, block, block, out_rows)
        pairs = [((i, j), left, right)
                 for i, left in enumerate(plans)
                 for j, right in enumerate(plans)]
    for index, left, right in pairs:
        scalar = model.join_cost(spec, left, right, float(out_rows[index]))
        assert tuple(batched[index].tolist()) == scalar, index


# ----------------------------------------------------------------------
# Block primitives
# ----------------------------------------------------------------------
def antichain(rng, size, width):
    """``size`` distinct cost rows, pairwise incomparable.

    Row ``k`` is ``0.75 * (k + 1)`` for a composition ``k`` of a fixed
    integer sum, so no row dominates another and :meth:`force_insert`
    keeps every one of them. The 0.75 grid keeps ``row / 1.5`` and
    ``row / 1.5 * 1.5`` exact, which the threshold-tie rows rely on.
    """
    total = 100 if width == 3 else 40
    rows = {}
    while len(rows) < size:
        cuts = np.sort(rng.choice(total + width - 1, width - 1, replace=False))
        parts = np.diff(np.concatenate(([-1], cuts, [total + width - 1]))) - 1
        rows.setdefault(tuple(parts.tolist()), None)
    return 0.75 * (np.array(list(rows), dtype=float).reshape(size, width) + 1)


def candidates_with_ties(rng, stored, count, alpha, exact_suffix):
    """``count`` candidate rows; returns them and how many lead covered.

    The leading rows are exact copies of stored rows and stored rows
    raised by one grid step in one dimension, whose thresholds equal
    the stored row in every other dimension: both are covered only
    because ``<=`` holds on ties. Next come rows lowered by one step in
    one dimension, which tie elsewhere but escape that stored row. The
    rest shrink stored rows by random factors, and most escape.
    """
    width = stored.shape[1]
    if not len(stored):
        return rng.uniform(0.0, 80.0, size=(count, width)), 0
    share = count // 16

    def picked(rows):
        return stored[rng.integers(len(stored), size=rows)].copy()

    copies = picked(share)
    raised = picked(share)
    raised[np.arange(share), rng.integers(width, size=share)] += 0.75
    lowered = picked(share)
    lowered[np.arange(share), rng.integers(width, size=share)] -= 0.75
    ties = np.concatenate((raised, lowered))
    # Inverse of the threshold, so each tie row's threshold is exact.
    ties[:, : width - exact_suffix] /= alpha
    rest = count - 3 * share
    shrunk = picked(rest) * rng.uniform(0.3, 1.0, size=(rest, width))
    return np.concatenate((copies, ties, shrunk)), 2 * share


COVER_CASES = [
    pytest.param(size, width, alpha, exact_suffix, 300,
                 id=f"n{size}-w{width}-a{alpha:g}-s{exact_suffix}")
    for size in (0, 1, 16, 63, 64, 65, 200, 1500)
    for width in (3, 9)
    for alpha in (1.0, 1.5)
    for exact_suffix in (0, 1)
] + [
    # Most of these 5000 rows stay uncovered past the first slab, so
    # the second slab (rows x 128 x 9 elements) exceeds
    # _BLOCK_CMP_BUDGET and is cut down to fit.
    pytest.param(1500, 9, 1.5, 1, 5000, id="budget-split"),
]


@pytest.mark.parametrize(
    "size, width, alpha, exact_suffix, count", COVER_CASES
)
def test_covers_many_matches_scalar_covers(
    size, width, alpha, exact_suffix, count
):
    rng = np.random.default_rng(size * 100 + width)
    plan_set = PlanSet(alpha=alpha, exact_suffix=exact_suffix)
    stored = antichain(rng, size, width)
    for position, cost in enumerate(stored):
        plan_set.force_insert(tuple(cost.tolist()), position)
    assert len(plan_set) == size
    candidates, covered = candidates_with_ties(
        rng, stored, count, alpha, exact_suffix
    )
    keep = plan_set.covers_many(candidates)
    assert not keep[:covered].any()
    for row, kept in zip(candidates, keep):
        assert kept == (not plan_set.covers(tuple(row.tolist())))
    if count > 300:
        assert keep.sum() * 2 * _FIRST_SLAB * width > _BLOCK_CMP_BUDGET


@pytest.mark.parametrize("width, stored_rows", [(3, 0), (9, 400)])
def test_block_accept_replay_matches_sequential_inserts(width, stored_rows):
    """block_accept + ordered force_insert == sequential insert loop."""
    rng = np.random.default_rng(11)
    stored = antichain(rng, stored_rows, width)
    candidates = rng.uniform(0.1, 10.0, size=(300, width))
    # Duplicated rows exercise the intra-block sweep.
    candidates[150:] = candidates[:150] * rng.uniform(
        0.9, 1.1, size=(150, width)
    )

    sequential = PlanSet(alpha=1.2)
    batched = PlanSet(alpha=1.2)
    for position, row in enumerate(stored):
        sequential.force_insert(tuple(row.tolist()), -1 - position)
        batched.force_insert(tuple(row.tolist()), -1 - position)
    assert len(batched) == stored_rows

    for position, row in enumerate(candidates):
        sequential.insert(tuple(row.tolist()), position)

    keep = batched.block_accept(candidates)
    assert 0 < keep.sum() < len(candidates)
    for position in np.nonzero(keep)[0]:
        batched.force_insert(
            tuple(candidates[position].tolist()), int(position)
        )
    assert batched.costs == sequential.costs
    assert [plan for _, plan in batched.entries] == [
        plan for _, plan in sequential.entries
    ]


def test_single_best_block_accept_is_prefix_minimum():
    weights = (1.0, 2.0)
    plan_set = SingleBestPlanSet(weights)
    plan_set.insert((4.0, 1.0), "seed")  # weighted 6.0
    candidates = np.array([
        [10.0, 1.0],   # 12 -> reject
        [3.0, 1.0],    # 5  -> accept
        [3.0, 1.0],    # 5  -> reject (not strictly better)
        [1.0, 1.0],    # 3  -> accept
    ])
    keep = plan_set.block_accept(candidates)
    assert keep.tolist() == [False, True, False, True]


def test_aggressive_plan_set_opts_out_of_block_path():
    """The aggressive ablation variant discards approximately dominated
    entries, which breaks the block determinism contract — it must run
    scalar, reporting zero vectorized candidates."""
    assert AggressivePlanSet.vectorizable is False
    assert PlanSet.vectorizable is True

    from repro.catalog.tpch import tpch_schema

    model = CostModel(tpch_schema())
    query = tpch_query(3).main_block
    prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 1e4))
    result = rta(
        query, model, prefs, 2.0, SMALL_CONFIG,
        plan_set_factory=lambda: AggressivePlanSet(alpha=1.1),
    )
    assert result.candidates_vectorized == 0
    assert result.plans_considered > 0


# ----------------------------------------------------------------------
# Timeout fallback mid-block
# ----------------------------------------------------------------------
@pytest.mark.parametrize("vectorized", [True, False])
def test_timeout_fallback_trips_mid_block(vectorized):
    """A deadline that passes during enumeration must degrade the rest
    of the run to the single-plan fallback on both paths — the batch
    path checks between blocks, so a mid-block trip abandons the
    remaining specs exactly like the scalar loop's mid-iteration
    return."""
    from repro.catalog.tpch import tpch_schema

    config = dataclasses.replace(
        SMALL_CONFIG,
        vectorized_enumeration=vectorized,
        timeout_check_interval=1,
    )
    model = CostModel(tpch_schema())
    query = tpch_query(5).main_block
    prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 1e4))
    deadline = time.perf_counter() + 0.02  # expires inside the DP
    result = exact_moqo(query, model, prefs, config, deadline=deadline)
    assert result.timed_out
    assert result.deadline_hit
    # The fallback still produces a complete (single) plan.
    assert result.plan is not None
    assert result.plan_cost is not None


def test_counters_report_batch_hit_rate():
    from repro.catalog.tpch import tpch_schema
    from repro.core.instrumentation import RequestMetrics

    model = CostModel(tpch_schema())
    query = tpch_query(5).main_block
    prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 1e4))
    result = rta(query, model, prefs, 2.0, SMALL_CONFIG)
    assert 0 < result.candidates_vectorized <= result.plans_considered
    record = RequestMetrics(
        fingerprint="f", query_name="q", algorithm="rta", tags=(),
        cache_hit=False, elapsed_ms=1.0, timed_out=False,
        plans_considered=result.plans_considered,
        candidates_vectorized=result.candidates_vectorized,
    )
    assert record.vectorized_fraction == pytest.approx(
        result.candidates_vectorized / result.plans_considered
    )


def test_selectivity_cache_hits_across_ira_iterations():
    from repro.catalog.tpch import tpch_schema

    model = CostModel(tpch_schema())
    query = tpch_query(5).main_block
    bounded = Preferences(
        objectives=OBJECTIVES,
        weights=(1.0, 1e-6, 1e4),
        bounds=(float("inf"), float("inf"), 0.2),
    )
    model.selectivities.clear()
    result = ira(query, model, bounded, 1.2, SMALL_CONFIG)
    cache = model.selectivities
    if result.iterations > 1:
        # Every re-enumerated split after iteration 1 is a cache hit.
        assert cache.hits >= cache.misses
    assert cache.misses > 0
