"""Strict-mode pruning: guarantees for non-closed objective subsets.

Reproduction finding (see ``repro.core.dp.strict_closure``): the
paper's cost-dominance pruning assumes the recursive cost formulas only
read the *selected* objectives of the sub-plans. Two dependencies break
that once the paper's own plan-space extensions are in place:

* startup time reads the sub-plans' **total time** (e.g. a hash join's
  startup includes building the inner);
* every local cost term reads the sub-plans' **cardinality**, which the
  sampling scan makes plan-dependent.

Selecting an objective subset that is not closed under these
dependencies (e.g. {startup, disk, energy}) lets both the EXA and the
RTA prune plans whose hidden dimensions would have paid off higher in
the plan tree — observed factors of 17x beyond alpha on TPC-H Q5.
Strict mode augments the pruning key (total time when startup is
selected; output rows, compared exactly) and restores the guarantees.
"""

import random

import pytest

from repro import Objective, Preferences
from repro.core.dp import strict_closure
from repro.core.exa import exact_moqo
from repro.core.rta import rta
from repro.cost.model import CostModel
from repro.cost.vector import pareto_filter, project, weighted_cost

from tests.conftest import TINY_CONFIG, make_chain_query, make_small_schema
from tests.helpers import enumerate_all_plans

#: A non-closed objective selection: startup without total time, and no
#: tuple loss (so sampling-induced cardinality is invisible too).
OPEN_OBJECTIVES = (
    Objective.STARTUP_TIME,
    Objective.DISK_FOOTPRINT,
    Objective.ENERGY,
)


@pytest.fixture(scope="module")
def setup():
    schema = make_small_schema()
    model = CostModel(schema)
    query = make_chain_query(3)
    all_plans = enumerate_all_plans(query, model, TINY_CONFIG)
    return model, query, all_plans


class TestStrictClosure:
    def test_adds_total_for_startup(self):
        indices = (Objective.STARTUP_TIME.index, Objective.CORES.index)
        assert strict_closure(indices) == (Objective.TOTAL_TIME.index,)

    def test_no_addition_when_total_present(self):
        indices = (Objective.TOTAL_TIME.index, Objective.STARTUP_TIME.index)
        assert strict_closure(indices) == ()

    def test_no_addition_without_startup(self):
        indices = (Objective.TOTAL_TIME.index, Objective.ENERGY.index)
        assert strict_closure(indices) == ()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_strict_exa_is_weighted_optimal_on_open_subset(setup, seed):
    model, query, all_plans = setup
    rng = random.Random(seed)
    weights = tuple(rng.uniform(0.1, 1.0) for _ in OPEN_OBJECTIVES)
    prefs = Preferences(objectives=OPEN_OBJECTIVES, weights=weights)
    result = exact_moqo(query, model, prefs, TINY_CONFIG, strict=True)
    optimum = min(
        weighted_cost(project(p.cost, prefs.indices), weights)
        for p in all_plans
    )
    assert result.weighted_cost == pytest.approx(optimum, rel=1e-9)


def test_strict_exa_frontier_covers_brute_force(setup):
    model, query, all_plans = setup
    prefs = Preferences(objectives=OPEN_OBJECTIVES, weights=(1.0, 1.0, 1.0))
    result = exact_moqo(query, model, prefs, TINY_CONFIG, strict=True)
    all_costs = [project(p.cost, prefs.indices) for p in all_plans]
    # Every true Pareto vector is matched or dominated by the strict
    # frontier (the frontier itself may be larger: it also keeps
    # cardinality-incomparable plans).
    from repro.cost.vector import dominates

    for pareto_vector in pareto_filter(all_costs):
        assert any(
            dominates(cost, pareto_vector)
            for cost in result.frontier_costs
        )


@pytest.mark.parametrize("alpha", [1.15, 1.5, 2.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_strict_rta_guarantee_on_open_subset(setup, alpha, seed):
    model, query, all_plans = setup
    rng = random.Random(seed)
    weights = tuple(rng.uniform(0.1, 1.0) for _ in OPEN_OBJECTIVES)
    prefs = Preferences(objectives=OPEN_OBJECTIVES, weights=weights)
    result = rta(query, model, prefs, alpha, TINY_CONFIG, strict=True)
    optimum = min(
        weighted_cost(project(p.cost, prefs.indices), weights)
        for p in all_plans
    )
    if optimum > 0:
        assert result.weighted_cost <= optimum * alpha * (1 + 1e-9)


def test_strict_frontier_at_least_as_large(setup):
    model, query, _ = setup
    prefs = Preferences(objectives=OPEN_OBJECTIVES, weights=(1, 1, 1))
    default = exact_moqo(query, model, prefs, TINY_CONFIG)
    strict = exact_moqo(query, model, prefs, TINY_CONFIG, strict=True)
    # Strict pruning is weaker, so it keeps at least as many plans and
    # its best weighted plan is at least as good.
    assert len(strict.frontier) >= len(default.frontier)
    assert strict.weighted_cost <= default.weighted_cost * (1 + 1e-12)


def test_tpch_q5_violation_and_strict_repair(tpch_optimizer):
    """The observed Q5 case: default RTA far beyond alpha, strict within."""
    from repro import tpch_query

    prefs = Preferences(
        objectives=OPEN_OBJECTIVES, weights=(0.253, 0.283, 0.755)
    )
    config = tpch_optimizer.config.with_timeout(60.0)
    exact = tpch_optimizer.optimize(
        tpch_query(5), prefs, algorithm="exa", config=config
    )
    default = tpch_optimizer.optimize(
        tpch_query(5), prefs, algorithm="rta", alpha=1.5, config=config
    )
    strict = tpch_optimizer.optimize(
        tpch_query(5), prefs, algorithm="rta", alpha=1.5, config=config,
        strict=True,
    )
    assert not exact.timed_out and not strict.timed_out
    # The default reproduces the paper's pruning — and its latent gap.
    assert default.weighted_cost > exact.weighted_cost * 1.5
    # Strict mode restores the guarantee (exact.weighted_cost upper-
    # bounds the true optimum since the exact run found that plan).
    assert strict.weighted_cost <= exact.weighted_cost * 1.5 * (1 + 1e-9)


def test_strict_mode_noop_on_closed_subsets(setup):
    """On closed objective sets strict mode only adds the rows key."""
    model, query, _ = setup
    closed = Preferences(
        objectives=(Objective.TOTAL_TIME, Objective.TUPLE_LOSS),
        weights=(1.0, 5.0),
    )
    default = rta(query, model, closed, 1.5, TINY_CONFIG)
    strict = rta(query, model, closed, 1.5, TINY_CONFIG, strict=True)
    # Both respect the guarantee; strict may keep extra representatives.
    assert strict.weighted_cost <= default.weighted_cost * (1 + 1e-9)
