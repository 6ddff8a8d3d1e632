"""One result contract for every built-in algorithm.

All six algorithms package their result in the same function
(:func:`repro.core.rta.package_result`), so the phase-timer rule and
the counter relations hold for each of them, whichever way it folds
its DP runs (the IRA's iterations, the IDP's rounds).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import (
    FAST_CONFIG,
    MultiObjectiveOptimizer,
    Objective,
    OptimizationRequest,
    Preferences,
    tpch_schema,
)
from repro.core.exa import exact_moqo
from repro.core.rta import rta
from repro.cost.model import CostModel
from repro.obs.prom import CANONICAL_PHASES
from repro.query.tpch_queries import tpch_query

ALGORITHMS = ("exa", "rta", "ira", "selinger", "wsum", "idp")

OBJECTIVES = (Objective.TOTAL_TIME, Objective.BUFFER_FOOTPRINT,
              Objective.TUPLE_LOSS)


@pytest.fixture(scope="module")
def optimizer():
    return MultiObjectiveOptimizer(tpch_schema(), config=FAST_CONFIG)


@pytest.fixture(scope="module")
def requests(optimizer):
    """One request per algorithm, each folding several DP runs where
    the algorithm can: q5 joins six tables, so the IDP (block size 4)
    runs two rounds, and a total-time bound 1% above the q3 minimum
    makes the IRA refine about twenty times."""
    weighted = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 1e4))
    fastest = optimizer.execute(OptimizationRequest(
        query=tpch_query(3),
        preferences=Preferences(objectives=OBJECTIVES,
                                weights=(1.0, 0.0, 0.0)),
        algorithm="exa",
    ))
    bounded = Preferences(
        objectives=OBJECTIVES,
        weights=(0.0, 1e-6, 1.0),
        bounds=(fastest.plan_cost[0] * 1.01, float("inf"), float("inf")),
    )
    single = Preferences(objectives=(Objective.TOTAL_TIME,), weights=(1.0,))
    return {
        algorithm: OptimizationRequest(
            query=tpch_query(3 if algorithm == "ira" else 5),
            preferences={"ira": bounded, "selinger": single}.get(
                algorithm, weighted),
            algorithm=algorithm,
            alpha=2.0,
        )
        for algorithm in ALGORITHMS
    }


@pytest.mark.parametrize("phase_timers", [True, False])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_result_contract(optimizer, requests, algorithm, phase_timers):
    config = dataclasses.replace(FAST_CONFIG, phase_timers=phase_timers)
    result = optimizer.execute(
        dataclasses.replace(requests[algorithm], config=config)
    )
    expected_phases = CANONICAL_PHASES if phase_timers else ()
    assert tuple(result.phase_ms) == expected_phases
    assert 0 < result.candidates_vectorized <= result.plans_considered
    if algorithm in ("ira", "idp"):
        assert result.iterations > 1


@pytest.mark.parametrize("query_number, strict", [
    (3, False), (3, True), (5, False), (10, False), (10, True),
])
def test_exa_is_rta_at_precision_one(query_number, strict):
    """The EXA and the RTA share one code path; at alpha 1 the RTA prunes
    with internal precision exactly 1, so both runs are the same DP."""
    model = CostModel(tpch_schema())
    query = tpch_query(query_number).main_block
    prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 1e4))
    exa = exact_moqo(query, model, prefs, FAST_CONFIG, strict=strict)
    approx = rta(query, model, prefs, 1.0, FAST_CONFIG, strict=strict)
    assert exa.frontier_costs == approx.frontier_costs
    assert exa.plan_cost == approx.plan_cost
    assert exa.plans_considered == approx.plans_considered
    assert exa.memory_kb == approx.memory_kb
    assert (exa.algorithm, exa.alpha) == ("exa", 1.0)
