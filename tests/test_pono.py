"""Property-based tests for the principle of near-optimality (PONO).

Section 6.1: if the cost of the sub-plans of a plan increases by at
most factor alpha in every objective, the cost of the plan increases by
at most factor alpha in every objective. The RTA's guarantee (Theorem 3)
rests entirely on this property holding for the cost model, so we test
it directly against the implementation: for random pairs of sub-plans
where one alpha-approximately dominates the other, the combined plans
must preserve the relation, for every join operator and every objective.

Cardinality note: the PONO is a statement about cost vectors with the
operand *cardinalities* held fixed (they are determined by the table
set, modulo sampling). The test therefore replaces sub-plan costs while
keeping rows/width identical — exactly the substitution in Definition 7.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cost.model import CostModel
from repro.cost.vector import approx_dominates
from repro.plans.operators import JoinMethod, JoinSpec, ScanMethod, ScanSpec
from repro.plans.plan import ProbeInfo, ScanPlan

from tests.conftest import make_chain_query, make_small_schema

SCHEMA = make_small_schema()
MODEL = CostModel(SCHEMA)
QUERY = make_chain_query(2)

# A plausible cost-vector strategy: non-negative, loss in [0, 1],
# startup <= total time, cores >= 1.
def cost_vectors():
    base = st.tuples(*([st.floats(0.0, 1e7, allow_nan=False)] * 8))
    loss = st.floats(0.0, 1.0)

    def build(values, loss_value):
        total, startup, io, cpu, cores, disk, buffer_, energy = values
        startup = min(startup, total)
        cores = 1.0 + cores % 8.0
        return (total, startup, io, cpu, cores, disk, buffer_, energy,
                loss_value)

    return st.builds(build, base, loss)


def scaled_vector(cost, factors):
    """Per-objective inflation by factors in [1, alpha]."""
    scaled = tuple(c * f for c, f in zip(cost, factors))
    # Loss must stay in [0, 1].
    return scaled[:8] + (min(scaled[8], 1.0),)


def realized_alpha(alpha, *pairs):
    """Smallest precision at which each degraded vector is within
    ``alpha`` of its original, after rounding.

    ``c * f`` can round above ``alpha * c``: for the subnormal
    ``5e-324``, ``5e-324 * 1.5`` rounds to ``1e-323``, twice the
    original. The PONO's precondition is then only met at that larger
    factor, so the conclusion is checked at it.
    """
    ratios = [
        worse / base
        for original, degraded in pairs
        for base, worse in zip(original, degraded)
        if base > 0.0
    ]
    return max([alpha, *ratios])


def make_leaf(alias: str, rows: float, cost) -> ScanPlan:
    table_name = QUERY.table_name(alias)
    width = SCHEMA.table(table_name).tuple_width
    return ScanPlan(
        alias, table_name, ScanSpec(method=ScanMethod.SEQ),
        rows, width, cost, cost[8],
    )


GENERIC_SPECS = [
    JoinSpec(JoinMethod.HASH, dop=1),
    JoinSpec(JoinMethod.HASH, dop=4),
    JoinSpec(JoinMethod.MERGE, dop=1),
    JoinSpec(JoinMethod.MERGE, dop=2),
    JoinSpec(JoinMethod.NESTED_LOOP, dop=1),
    JoinSpec(JoinMethod.NESTED_LOOP, dop=3),
]


SUBNORMAL_DISK = (0.0, 0.0, 0.0, 0.0, 1.0, 5e-324, 0.0, 0.0, 0.0)
NO_LOSS = (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
ULP_LOSS = NO_LOSS[:8] + (2.220446049250313e-16,)


@pytest.mark.parametrize("spec", GENERIC_SPECS, ids=lambda s: s.label)
@settings(max_examples=60, deadline=None)
@example(
    left_cost=SUBNORMAL_DISK,
    right_cost=SUBNORMAL_DISK,
    factor_seed=(2.0,) * 9,
    alpha=1.5,
    rows=(1.0, 1.0),
)
# A tuple loss near ulp(1): the combined loss must keep its relative
# precision, so the degraded right loss (3.05e-16) must not round up to
# 1.5x the original.
@example(
    left_cost=NO_LOSS,
    right_cost=ULP_LOSS,
    factor_seed=(2.0,) * 9,
    alpha=1.375,
    rows=(1.0, 1.0),
)
@given(
    left_cost=cost_vectors(),
    right_cost=cost_vectors(),
    factor_seed=st.tuples(*([st.floats(1.0, 1.0e0 + 1.0)] * 9)),
    alpha=st.floats(1.0, 3.0),
    rows=st.tuples(st.floats(1, 1e4), st.floats(1, 1e4)),
)
def test_pono_generic_joins(spec, left_cost, right_cost, factor_seed,
                            alpha, rows):
    """c(p*_L) <=_alpha c(p_L), c(p*_R) <=_alpha c(p_R)
    => c(P*) <=_alpha c(P)."""
    left_rows, right_rows = rows
    factors = tuple(1.0 + (f - 1.0) * (alpha - 1.0) for f in factor_seed)
    worse_left = scaled_vector(left_cost, factors)
    worse_right = scaled_vector(right_cost, factors)

    base_left = make_leaf("users", left_rows, left_cost)
    base_right = make_leaf("orders", right_rows, right_cost)
    bad_left = make_leaf("users", left_rows, worse_left)
    bad_right = make_leaf("orders", right_rows, worse_right)

    out_rows = left_rows * right_rows * 0.01
    good = MODEL.join_cost(spec, base_left, base_right, out_rows)
    bad = MODEL.join_cost(spec, bad_left, bad_right, out_rows)
    # The original plans alpha-dominate the degraded ones by
    # construction, so the combined plan must too (with slack for
    # floating-point rounding).
    assert approx_dominates(good, bad, 1.0 + 1e-12)
    precondition = realized_alpha(
        alpha, (left_cost, worse_left), (right_cost, worse_right)
    )
    assert approx_dominates(bad, good, precondition * (1 + 1e-9))


@settings(max_examples=60, deadline=None)
@given(
    left_cost=cost_vectors(),
    factor_seed=st.tuples(*([st.floats(1.0, 2.0)] * 9)),
    alpha=st.floats(1.0, 3.0),
    left_rows=st.floats(1, 1e4),
    dop=st.sampled_from([1, 2, 4]),
)
def test_pono_index_nested_loop(left_cost, factor_seed, alpha, left_rows,
                                dop):
    """Index-nested-loop joins preserve the PONO in the outer operand."""
    factors = tuple(1.0 + (f - 1.0) * (alpha - 1.0) for f in factor_seed)
    worse_left = scaled_vector(left_cost, factors)
    probe = MODEL.index_probe_plan(QUERY, "orders", "orders_user_idx",
                                   "user_id")
    spec = JoinSpec(JoinMethod.INDEX_NESTED_LOOP, dop=dop)
    out_rows = left_rows * probe.rows * 0.005

    good = MODEL.join_cost(spec, make_leaf("users", left_rows, left_cost),
                           probe, out_rows)
    bad = MODEL.join_cost(
        spec, make_leaf("users", left_rows, worse_left), probe, out_rows
    )
    precondition = realized_alpha(alpha, (left_cost, worse_left))
    assert approx_dominates(bad, good, precondition * (1 + 1e-9))


@given(
    a=st.floats(0.0, 1.0),
    b=st.floats(0.0, 1.0),
    alpha=st.floats(1.0, 5.0),
)
def test_pono_tuple_loss_formula(a, b, alpha):
    """Section 6.1's argument for F(a, b) = 1 - (1-a)(1-b).

    F(alpha*a, alpha*b) <= alpha * F(a, b) for a, b in [0, 1]
    (the inflated inputs are clamped to the domain).
    """
    def loss(x, y):
        return 1.0 - (1.0 - x) * (1.0 - y)

    inflated = loss(min(alpha * a, 1.0), min(alpha * b, 1.0))
    assert inflated <= alpha * loss(a, b) + 1e-12


@given(
    values=st.tuples(st.floats(0, 1e6), st.floats(0, 1e6)),
    alpha=st.floats(1.0, 5.0),
    const=st.floats(0, 1e3),
)
def test_pono_building_blocks(values, alpha, const):
    """F in {sum, max, min, +const, *const} satisfies
    F(alpha*a, alpha*b) <= alpha*F(a, b)."""
    a, b = values
    tolerance = 1e-9 * (1 + a + b + const)
    assert alpha * a + alpha * b <= alpha * (a + b) + tolerance
    assert max(alpha * a, alpha * b) <= alpha * max(a, b) + tolerance
    assert min(alpha * a, alpha * b) <= alpha * min(a, b) + tolerance
    assert alpha * a + const <= alpha * (a + const) + tolerance
    assert const * (alpha * a) <= alpha * (const * a) + tolerance
