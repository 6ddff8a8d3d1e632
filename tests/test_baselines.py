"""Baselines: weighted-sum scalar pruning and iterative DP (IDP)."""

import dataclasses
import random
import time

import pytest

from repro import Objective, Preferences, tpch_query
from repro.core.baselines import idp_moqo, weighted_sum_baseline
from repro.core.exa import exact_moqo
from repro.cost.model import CostModel
from repro.cost.vector import project, weighted_cost
from repro.exceptions import OptimizerError

from tests.conftest import TINY_CONFIG, make_chain_query, make_small_schema
from tests.helpers import enumerate_all_plans

OBJECTIVES = (
    Objective.TOTAL_TIME,
    Objective.BUFFER_FOOTPRINT,
    Objective.TUPLE_LOSS,
)


@pytest.fixture(scope="module")
def setup():
    schema = make_small_schema()
    model = CostModel(schema)
    query = make_chain_query(3)
    all_plans = enumerate_all_plans(query, model, TINY_CONFIG)
    return model, query, all_plans


class TestWeightedSumBaseline:
    def test_returns_a_plan_fast(self, setup):
        model, query, _ = setup
        prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 10.0))
        result = weighted_sum_baseline(query, model, prefs, TINY_CONFIG)
        assert result.plan is not None
        assert result.algorithm == "wsum"
        # Scalar pruning: one plan per table set.
        assert result.pareto_last_complete == 1

    def test_considers_fewer_plans_than_exa(self, setup):
        model, query, _ = setup
        prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 10.0))
        baseline = weighted_sum_baseline(query, model, prefs, TINY_CONFIG)
        exact = exact_moqo(query, model, prefs, TINY_CONFIG)
        assert baseline.plans_considered <= exact.plans_considered

    def test_no_optimality_guarantee_but_bounded_search(self, setup):
        """The baseline may be suboptimal (Example 1) — never better
        than the optimum, and on some weight draws strictly worse."""
        model, query, all_plans = setup
        worst_gap = 1.0
        for seed in range(12):
            rng = random.Random(seed)
            weights = tuple(rng.uniform(0.0, 1.0) for _ in OBJECTIVES)
            prefs = Preferences(objectives=OBJECTIVES, weights=weights)
            result = weighted_sum_baseline(query, model, prefs, TINY_CONFIG)
            optimum = min(
                weighted_cost(project(p.cost, prefs.indices), weights)
                for p in all_plans
            )
            if optimum > 0:
                ratio = result.weighted_cost / optimum
                assert ratio >= 1.0 - 1e-9
                worst_gap = max(worst_gap, ratio)
        # Informational: the gap exists in general; we only require the
        # baseline to never *beat* the brute-force optimum.
        assert worst_gap >= 1.0

    def test_rejects_bounds(self, setup):
        model, query, _ = setup
        prefs = Preferences(
            objectives=OBJECTIVES, weights=(1, 1, 1), bounds=(1e9, 1e9, 0.5)
        )
        with pytest.raises(OptimizerError):
            weighted_sum_baseline(query, model, prefs, TINY_CONFIG)


class TestIdp:
    def test_small_query_equals_rta_quality(self, setup):
        """With block_size >= |Q| the IDP is one plain DP run."""
        model, query, all_plans = setup
        prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 5.0))
        result = idp_moqo(query, model, prefs, alpha_u=1.5, block_size=4,
                          config=TINY_CONFIG)
        assert result.iterations == 1
        optimum = min(
            weighted_cost(project(p.cost, prefs.indices), prefs.weights)
            for p in all_plans
        )
        assert result.weighted_cost <= optimum * 1.5 * (1 + 1e-9)

    def test_blocked_run_commits_and_terminates(self, setup):
        model, query, _ = setup
        prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 5.0))
        result = idp_moqo(query, model, prefs, alpha_u=1.5, block_size=2,
                          config=TINY_CONFIG)
        assert result.iterations >= 2  # at least one commit round
        assert result.plan is not None
        # The final plan still covers all three tables of the query.
        base_aliases = {
            node.alias
            for node in result.plan.walk()
            if hasattr(node, "alias") and not node.alias.startswith("__idp")
        }
        assert base_aliases == set(query.aliases)

    def test_blocked_run_credits_enumeration_time(self, setup):
        model, query, _ = setup
        prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 5.0))
        result = idp_moqo(query, model, prefs, alpha_u=1.5, block_size=2,
                          config=TINY_CONFIG)
        assert result.phase_ms["enumerate"] > 0

    def test_fallback_sets_do_not_count_as_complete(self, setup):
        """After a timeout, table sets built in single-plan mode are not
        "treated completely" (Section 5.1's Pareto-plan metric)."""
        model, query, _ = setup
        prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 5.0))
        config = dataclasses.replace(TINY_CONFIG, timeout_check_interval=1)
        result = idp_moqo(query, model, prefs, alpha_u=1.5, block_size=2,
                          config=config, deadline=time.perf_counter() - 1.0)
        assert result.timed_out
        assert result.plan is not None
        assert result.pareto_last_complete == 0

    def test_plan_cost_reasonable(self, setup):
        model, query, all_plans = setup
        prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 5.0))
        result = idp_moqo(query, model, prefs, alpha_u=1.5, block_size=2,
                          config=TINY_CONFIG)
        optimum = min(
            weighted_cost(project(p.cost, prefs.indices), prefs.weights)
            for p in all_plans
        )
        # Heuristic: no guarantee, but it must return a real plan whose
        # cost is at least the optimum.
        assert result.weighted_cost >= optimum * (1 - 1e-9)

    def test_rejects_tiny_block_size(self, setup):
        model, query, _ = setup
        prefs = Preferences(objectives=OBJECTIVES, weights=(1, 1, 1))
        with pytest.raises(OptimizerError):
            idp_moqo(query, model, prefs, block_size=1, config=TINY_CONFIG)

    def test_idp_on_tpch_q5(self, tpch_optimizer):
        """IDP handles a 6-table query with a small block size."""
        prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 10.0))
        result = tpch_optimizer.optimize(
            tpch_query(5), prefs, algorithm="idp", alpha=1.5,
            config=tpch_optimizer.config.with_timeout(30.0),
        )
        assert result.plan is not None
        assert result.iterations >= 2
        assert result.algorithm == "idp"


class TestFacadeIntegration:
    def test_wsum_via_facade(self, tpch_optimizer):
        prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 10.0))
        result = tpch_optimizer.optimize(
            tpch_query(3), prefs, algorithm="wsum"
        )
        assert result.algorithm == "wsum"
        assert result.plan is not None

    def test_idp_quality_versus_rta_on_tpch(self, tpch_optimizer):
        prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 1e-6, 10.0))
        config = tpch_optimizer.config.with_timeout(30.0)
        rta_result = tpch_optimizer.optimize(
            tpch_query(10), prefs, algorithm="rta", alpha=1.15, config=config
        )
        idp_result = tpch_optimizer.optimize(
            tpch_query(10), prefs, algorithm="idp", alpha=1.15, config=config
        )
        # The RTA's guarantee bounds how much better IDP could be; IDP
        # itself carries no such bound.
        assert idp_result.weighted_cost >= rta_result.weighted_cost / 1.15
