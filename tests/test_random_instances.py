"""Randomized cross-validation on generated schemas and statistics.

Hypothesis generates small random catalogs (cardinalities, distinct
counts, selectivities); for each instance we check the full chain:
EXA == brute-force Pareto set, RTA within its guarantee, IRA feasible
under anchored bounds. This guards the algorithms against statistics
patterns the fixed TPC-H catalog never produces (tiny tables, skewed
ndv, selectivity extremes).
"""

from __future__ import annotations

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
    TableRef,
    build_schema,
)
from repro.core.exa import exact_moqo
from repro.core.pareto import coverage_factor
from repro.core.rta import rta
from repro.cost.model import CostModel
from repro.cost.vector import pareto_filter, project, weighted_cost

from tests.helpers import enumerate_all_plans

#: Minimal operator space to keep brute force fast.
MINI_CONFIG = OptimizerConfig(
    dop_values=(1,),
    sampling_rates=(0.05,),
)

OBJECTIVES = (
    Objective.TOTAL_TIME,
    Objective.BUFFER_FOOTPRINT,
    Objective.TUPLE_LOSS,
)


@st.composite
def instances(draw):
    """A random 3-table chain schema + query + weights."""
    rows = [draw(st.integers(1, 20_000)) for _ in range(3)]
    ndv_share = [draw(st.floats(0.01, 1.0)) for _ in range(3)]
    filter_sel = draw(st.floats(0.01, 1.0))
    join_sel_explicit = draw(
        st.one_of(st.none(), st.floats(1e-6, 1.0))
    )
    weights = tuple(draw(st.floats(0.0, 1.0)) for _ in OBJECTIVES)

    tables = [
        _build_table(i, row_count, share)
        for i, (row_count, share) in enumerate(zip(rows, ndv_share))
    ]
    schema = build_schema(
        "random",
        tables,
        [Index("t1_key_idx", "t1", ("key",), rows[1])],
    )
    query = Query(
        "rand_q",
        (TableRef("t0", "t0"), TableRef("t1", "t1"), TableRef("t2", "t2")),
        filters=(FilterPredicate("t0", "payload", filter_sel),),
        joins=(
            JoinPredicate("t0", "key", "t1", "key",
                          selectivity=join_sel_explicit),
            JoinPredicate("t1", "key", "t2", "key"),
        ),
    )
    return schema, query, weights


def _build_table(index: int, row_count: int, ndv_share: float):
    from repro import Table

    ndv = max(1, int(row_count * ndv_share))
    return Table(
        f"t{index}",
        (
            Column("key", DataType.INTEGER, n_distinct=ndv),
            Column("payload", DataType.VARCHAR, n_distinct=max(1, ndv // 2)),
        ),
        row_count=row_count,
    )


#: Relative slack for compounded floating-point roots
#: (``(alpha ** (1/n)) ** n`` accumulates rounding over n levels).
FLOAT_SLACK = 1e-4


@given(instances())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_strict_exa_matches_brute_force_on_random_instances(instance):
    """Strict-mode EXA is exactly optimal on arbitrary instances.

    Default-mode EXA reproduces the paper's pruning, whose optimality
    breaks when sampling makes cardinality plan-dependent (see
    ``repro.core.dp.strict_closure``); strict mode is the provably sound
    variant, so it is the one validated against brute force here.
    (Default mode is exercised on deterministic fixtures in
    tests/test_exa.py and its documented gap in
    tests/test_strict_mode.py.)
    """
    schema, query, weights = instance
    model = CostModel(schema)
    prefs = Preferences(objectives=OBJECTIVES, weights=weights)
    all_plans = enumerate_all_plans(query, model, MINI_CONFIG)
    all_costs = [project(p.cost, prefs.indices) for p in all_plans]

    result = exact_moqo(query, model, prefs, MINI_CONFIG, strict=True)
    # The strict frontier covers every true Pareto vector (it may hold
    # additional cardinality-incomparable entries).
    from repro.cost.vector import dominates

    for pareto_vector in pareto_filter(all_costs):
        assert any(
            dominates(cost, pareto_vector)
            for cost in result.frontier_costs
        )
    optimum = min(weighted_cost(c, weights) for c in all_costs)
    assert result.weighted_cost == pytest.approx(optimum, rel=1e-9, abs=1e-12)


@given(instances(), st.floats(1.05, 3.0))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_strict_rta_guarantee_on_random_instances(instance, alpha):
    schema, query, weights = instance
    model = CostModel(schema)
    prefs = Preferences(objectives=OBJECTIVES, weights=weights)
    all_plans = enumerate_all_plans(query, model, MINI_CONFIG)
    all_costs = [project(p.cost, prefs.indices) for p in all_plans]

    result = rta(query, model, prefs, alpha, MINI_CONFIG, strict=True)
    # Frontier coverage (Theorem 3).
    assert coverage_factor(result.frontier_costs, all_costs) <= alpha * (
        1 + FLOAT_SLACK
    )
    # Plan quality (Corollary 1).
    optimum = min(weighted_cost(c, weights) for c in all_costs)
    if optimum > 0:
        assert result.weighted_cost <= optimum * alpha * (1 + FLOAT_SLACK)
