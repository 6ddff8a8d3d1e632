"""The batched enumerator's equivalence contract (see repro.core.dp).

The batched enumeration path must be **bit-for-bit** identical to the
per-candidate reference loop (``tests/helpers.py``'s
:class:`ReferenceDPRun`): same frontier cost tuples in the same order,
same chosen plan, same counters. Hypothesis generates random join
graphs (chain and star topologies, random statistics and selectivities)
and the contract is checked for EXA, RTA and strict mode
(``exact_suffix > 0``); further tests cover the batched cost kernels
against the scalar formulas (on tuple losses below 1/2, which the
default sampling rates never produce, and on gathered and broadcast
operand shapes), the block primitives on
:class:`~repro.core.pruning.PlanSet` and its variants directly, and the
timeout fallback tripping mid-block.
"""

from __future__ import annotations

import contextlib
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
from repro.core import dp
from repro.core.baselines import weighted_sum_baseline
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
from tests.helpers import reference_enumeration

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
    """Frontier (order included), plan and counters must match exactly;
    ``scalar`` is the reference enumerator's result."""
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
    with reference_enumeration():
        scalar = exact_moqo(query, model, prefs, SMALL_CONFIG)
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
    with reference_enumeration():
        scalar = rta(query, model, prefs, alpha, SMALL_CONFIG)
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
    with reference_enumeration():
        scalar = rta(query, model, prefs, 1.5, SMALL_CONFIG, strict=True)
    assert_bitwise_equal(vectorized, scalar)


def test_tpch_equivalence_all_algorithms():
    """Deterministic spot check on a real TPC-H query, all entry points
    the reference reaches. ``assert_bitwise_equal`` also checks that the
    reference counted no vectorized candidate, which fails if an entry
    point builds its DP where the patch does not reach."""
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
    def run_all():
        return [
            exact_moqo(query, model, prefs, SMALL_CONFIG),
            rta(query, model, prefs, 2.0, SMALL_CONFIG),
            ira(query, model, bounded, 2.0, SMALL_CONFIG),
            selinger(query, model, Objective.TOTAL_TIME, SMALL_CONFIG),
            weighted_sum_baseline(query, model, prefs, SMALL_CONFIG),
        ]

    batched = run_all()
    with reference_enumeration():
        reference = run_all()
    for vectorized, scalar in zip(batched, reference):
        assert_bitwise_equal(vectorized, scalar)
        assert vectorized.candidates_vectorized > 0


@pytest.mark.parametrize("max_block, run_rows, accept_rows", [
    (64, 16, 7),       # every large pair chunked, short runs and slices
    (1 << 20, 1 << 20, 1 << 20),   # whole pairs, long runs, one slice
])
def test_block_boundaries_do_not_change_results(
    monkeypatch, max_block, run_rows, accept_rows
):
    """Where the batched path cuts candidates into kernel calls, runs
    and block_accept slices is a performance choice only."""
    from repro.catalog.tpch import tpch_schema

    monkeypatch.setattr(dp, "_MAX_BLOCK_ROWS", max_block)
    monkeypatch.setattr(dp, "_RUN_ROWS", run_rows)
    monkeypatch.setattr(dp, "_ACCEPT_ROWS", accept_rows)
    model = CostModel(tpch_schema())
    query = tpch_query(5).main_block
    prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 1e4))
    batched = exact_moqo(query, model, prefs, SMALL_CONFIG)
    with reference_enumeration():
        reference = exact_moqo(query, model, prefs, SMALL_CONFIG)
    assert_bitwise_equal(batched, reference)


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
    """The batched kernels reproduce the scalar formulas bit for bit on
    every loss pair, at every DOP of one call, on both operand shapes
    the enumerator uses: an ``outer x inner`` broadcast and flat
    per-candidate gathers."""
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
    specs = tuple(JoinSpec(method, dop=dop) for dop in (1, 2, 3))

    def per_spec(out_rows):
        return np.broadcast_to(out_rows, (len(specs),) + out_rows.shape)

    if method is JoinMethod.INDEX_NESTED_LOOP:
        probe = model.index_probe_plan(query, "orders", "orders_user_idx",
                                       "user_id")
        probes = PlanBlock.of_probes([probe])
        out_rows = block.rows * 0.5
        batched = model.index_nl_cost_block(
            specs, block, probes, per_spec(out_rows)
        )
        pairs = [((i,), plan, probe) for i, plan in enumerate(plans)]
        gathered = model.index_nl_cost_block(
            specs, block, probes.take(np.zeros(len(plans), dtype=int)),
            per_spec(out_rows),
        )
        assert np.array_equal(gathered, batched)
    else:
        outer, inner = block.take(np.s_[:, None]), block.take(np.s_[None])
        out_rows = outer.rows * inner.rows * 0.01
        batched = model.join_cost_block(specs, outer, inner,
                                        per_spec(out_rows))
        pairs = [((i, j), left, right)
                 for i, left in enumerate(plans)
                 for j, right in enumerate(plans)]
        outer_index, inner_index = np.divmod(
            np.arange(len(plans) ** 2), len(plans)
        )
        gathered = model.join_cost_block(
            specs, block.take(outer_index), block.take(inner_index),
            per_spec(out_rows.reshape(-1)),
        )
        assert np.array_equal(
            gathered, batched.reshape(len(specs), -1, 9)
        )
    assert batched.shape == (len(specs),) + out_rows.shape + (9,)
    for s, spec in enumerate(specs):
        for index, left, right in pairs:
            scalar = model.join_cost(spec, left, right,
                                     float(out_rows[index]))
            assert tuple(batched[(s,) + index].tolist()) == scalar, index


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


@pytest.mark.parametrize("width, stored_rows, alpha", [
    pytest.param(3, 0, 1.2, id="3-0"),
    pytest.param(9, 400, 1.2, id="9-400"),
    # No stored entries at nine objectives: most of the distinct rows
    # are accepted, so the sweep takes over a hundred steps.
    pytest.param(9, 0, 1.2, id="9-0"),
    # Most rows covered by an earlier accepted row of the block.
    pytest.param(3, 0, 10.0, id="3-0-covered"),
])
def test_block_accept_replay_matches_sequential_inserts(
    width, stored_rows, alpha
):
    """block_accept + ordered force_insert == sequential insert loop."""
    rng = np.random.default_rng(11)
    stored = antichain(rng, stored_rows, width)
    candidates = rng.uniform(0.1, 10.0, size=(300, width))
    # Duplicated rows exercise the intra-block sweep.
    candidates[150:] = candidates[:150] * rng.uniform(
        0.9, 1.1, size=(150, width)
    )

    sequential = PlanSet(alpha=alpha)
    batched = PlanSet(alpha=alpha)
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


def test_aggressive_block_accept_replays_sequential_inserts():
    """The aggressive ablation variant discards approximately dominated
    entries, so a later candidate's coverage depends on earlier
    discards; its block_accept replays that loop, and block_accept +
    ordered force_insert must equal the sequential insert loop."""
    rng = np.random.default_rng(5)
    candidates = rng.uniform(0.1, 10.0, size=(400, 3))
    # Near-duplicates make approximate discards (and re-coverage) common.
    candidates[200:] = candidates[:200] * rng.uniform(
        0.85, 1.15, size=(200, 3)
    )
    # Row 50 approximately (not exactly) dominates row 49 and discards
    # it, so row 51, covered only by row 49, is accepted.
    candidates[49:52] = [
        (0.02, 0.02, 0.02), (0.01, 0.025, 0.02), (0.016, 0.016, 0.016)
    ]
    sequential = AggressivePlanSet(alpha=1.3)
    batched = AggressivePlanSet(alpha=1.3)
    for position, row in enumerate(candidates[:50]):
        sequential.insert(tuple(row.tolist()), position)
        batched.insert(tuple(row.tolist()), position)
    for position, row in enumerate(candidates[50:], start=50):
        sequential.insert(tuple(row.tolist()), position)
    keep = batched.block_accept(candidates[50:])
    assert keep[:2].all()
    assert 0 < keep.sum() < 350
    for position in np.nonzero(keep)[0]:
        batched.force_insert(
            tuple(candidates[50 + position].tolist()), int(50 + position)
        )
    assert batched.costs == sequential.costs
    assert [plan for _, plan in batched.entries] == [
        plan for _, plan in sequential.entries
    ]


def test_aggressive_plan_set_matches_reference_enumeration():
    from repro.catalog.tpch import tpch_schema

    model = CostModel(tpch_schema())
    query = tpch_query(3).main_block
    prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 1e4))

    def run():
        return rta(
            query, model, prefs, 2.0, SMALL_CONFIG,
            plan_set_factory=lambda: AggressivePlanSet(alpha=1.1),
        )

    batched = run()
    with reference_enumeration():
        reference = run()
    assert_bitwise_equal(batched, reference)
    assert batched.candidates_vectorized > 0


# ----------------------------------------------------------------------
# Timeout fallback mid-block
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batched", [True, False])
def test_timeout_fallback_trips_mid_block(batched):
    """A deadline that passes during enumeration must degrade the rest
    of the run to the single-plan fallback, on the batched path and on
    the reference loop — the batched path checks between blocks, so a
    mid-block trip abandons the rest of the pair like the reference's
    mid-iteration return, and the remaining pairs join one-row blocks
    of each operand's best weighted plan."""
    from repro.catalog.tpch import tpch_schema

    config = dataclasses.replace(SMALL_CONFIG, timeout_check_interval=1)
    model = CostModel(tpch_schema())
    query = tpch_query(5).main_block
    prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 1e4))
    deadline = time.perf_counter() + 0.02  # expires inside the DP
    with contextlib.nullcontext() if batched else reference_enumeration():
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
