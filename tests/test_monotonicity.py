"""Property-based tests: join costs are monotone in their operands.

A join's cost on each objective is at least each operand's cost on that
objective: time and startup time combine the operands' times with
``max`` plus non-negative local work, the accumulative objectives sum
them, cores take a ``max`` or a sum, and the tuple loss
``1 - (1 - a) * (1 - b)`` is at least ``a`` and ``b``. Pruning a
sub-plan whose cost on some objective already exceeds a bound is only
sound where this holds, so it is tested for every generic join spec
(every method at every DOP) and for index-nested-loop joins, on the
scalar ``join_cost`` formulas and on the batched kernels. No objective
fails it.

Operand cost vectors follow :func:`tests.test_pono.cost_vectors`:
non-negative, startup time at most total time, at least one core and a
tuple loss in [0, 1].
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cost.objectives import Objective
from repro.plans.operators import MAX_DOP, JoinMethod, JoinSpec
from repro.plans.plan import PlanBlock

from tests.test_pono import MODEL, QUERY, cost_vectors, make_leaf

DOPS = tuple(range(1, MAX_DOP + 1))

GENERIC_GROUPS = tuple(
    tuple(JoinSpec(method, dop=dop) for dop in DOPS)
    for method in (JoinMethod.HASH, JoinMethod.MERGE, JoinMethod.NESTED_LOOP)
)

INDEX_NL_SPECS = tuple(
    JoinSpec(JoinMethod.INDEX_NESTED_LOOP, dop=dop) for dop in DOPS
)


def objectives_below(joined, *operands) -> list[str]:
    """Objectives on which ``joined`` costs less than some operand."""
    return [
        objective.name
        for objective in Objective
        if any(joined[objective.value] < operand[objective.value]
               for operand in operands)
    ]


def per_spec(specs, out_rows: float, ndim: int) -> np.ndarray:
    return np.broadcast_to(
        np.full((1,) * ndim, out_rows), (len(specs),) + (1,) * ndim
    )


@settings(max_examples=150, deadline=None)
@given(
    left_cost=cost_vectors(),
    right_cost=cost_vectors(),
    rows=st.tuples(st.floats(1, 1e6), st.floats(1, 1e6)),
    selectivity=st.floats(1e-7, 1.0),
)
def test_generic_joins_are_monotone(left_cost, right_cost, rows,
                                   selectivity):
    left = make_leaf("users", rows[0], left_cost)
    right = make_leaf("orders", rows[1], right_cost)
    out_rows = rows[0] * rows[1] * selectivity
    outer = PlanBlock([left]).take(np.s_[:, None])
    inner = PlanBlock([right]).take(np.s_[None])
    for specs in GENERIC_GROUPS:
        block = MODEL.join_cost_block(
            specs, outer, inner, per_spec(specs, out_rows, 2)
        )
        for position, spec in enumerate(specs):
            scalar = MODEL.join_cost(spec, left, right, out_rows)
            batched = tuple(block[position, 0, 0].tolist())
            assert not objectives_below(scalar, left_cost, right_cost), spec
            assert not objectives_below(batched, left_cost, right_cost), spec


@settings(max_examples=150, deadline=None)
@given(
    left_cost=cost_vectors(),
    left_rows=st.floats(1, 1e6),
    selectivity=st.floats(1e-7, 1.0),
)
def test_index_nested_loop_joins_are_monotone(left_cost, left_rows,
                                              selectivity):
    left = make_leaf("users", left_rows, left_cost)
    probe = MODEL.index_probe_plan(QUERY, "orders", "orders_user_idx",
                                   "user_id")
    out_rows = left_rows * probe.rows * selectivity
    block = MODEL.index_nl_cost_block(
        INDEX_NL_SPECS, PlanBlock([left]), PlanBlock.of_probes([probe]),
        per_spec(INDEX_NL_SPECS, out_rows, 1),
    )
    for position, spec in enumerate(INDEX_NL_SPECS):
        scalar = MODEL.join_cost(spec, left, probe, out_rows)
        batched = tuple(block[position, 0].tolist())
        assert not objectives_below(scalar, left_cost, probe.cost), spec
        assert not objectives_below(batched, left_cost, probe.cost), spec
