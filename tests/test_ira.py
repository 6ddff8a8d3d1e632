"""IRA guarantees: bounded-weighted MOQO near-optimality (Theorem 6)."""

import importlib
import random

import pytest

from repro import INFINITY, Objective, Preferences
from repro.core.ira import (
    _bound_violation_gap,
    halving_policy,
    ira,
    iteration_precision,
    slow_policy,
)
from repro.cost.model import CostModel
from repro.cost.vector import project, respects_bounds, weighted_cost
from repro.exceptions import InvalidPrecisionError

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


class TestIterationPrecision:
    def test_strictly_decreasing(self):
        values = [iteration_precision(2.0, i, 3) for i in range(1, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_starts_near_alpha_u(self):
        # First iteration is coarse: close to alpha_U.
        assert iteration_precision(2.0, 1, 9) > 1.9

    def test_converges_to_one(self):
        assert iteration_precision(2.0, 10_000, 3) == pytest.approx(1.0)

    def test_single_objective_degenerate(self):
        # 3l - 3 = 0 is clamped; must stay finite and decreasing.
        assert iteration_precision(2.0, 1, 1) < 2.0

    def test_matches_theorem7_doubling(self):
        # log(1/log alpha_i) should grow ~ i/(3l-3) * log 2, i.e. the
        # per-iteration work bound doubles each iteration.
        import math

        l = 3
        ratios = []
        for i in range(1, 6):
            a_i = iteration_precision(2.0, i, l)
            a_next = iteration_precision(2.0, i + 1, l)
            ratios.append(
                (1 / math.log(a_next)) ** (3 * l - 3)
                / (1 / math.log(a_i)) ** (3 * l - 3)
            )
        for ratio in ratios:
            assert ratio == pytest.approx(2.0, rel=1e-6)


def _random_bounded_prefs(all_plans, indices, rng, tightness=1.2):
    """Bounds anchored at a random plan so feasible plans exist."""
    weights = tuple(rng.uniform(0.1, 1.0) for _ in OBJECTIVES)
    anchor = project(rng.choice(all_plans).cost, indices)
    bounds = tuple(
        c * tightness + 1e-9 if i != 2 else min(1.0, c + 0.01)
        for i, c in enumerate(anchor)
    )
    return Preferences(objectives=OBJECTIVES, weights=weights, bounds=bounds)


@pytest.mark.parametrize("alpha", [1.15, 1.5, 2.0])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_ira_is_alpha_approximate(setup, alpha, seed):
    model, query, all_plans = setup
    rng = random.Random(seed)
    prefs = Preferences(
        objectives=OBJECTIVES,
        weights=tuple(rng.uniform(0.1, 1.0) for _ in OBJECTIVES),
        bounds=_random_bounded_prefs(
            all_plans, (0, 6, 8), rng
        ).bounds,
    )
    result = ira(query, model, prefs, alpha, TINY_CONFIG)

    projected = [project(p.cost, prefs.indices) for p in all_plans]
    feasible = [c for c in projected if respects_bounds(c, prefs.bounds)]
    if feasible:
        optimum = min(weighted_cost(c, prefs.weights) for c in feasible)
        assert result.respects_bounds
    else:
        optimum = min(weighted_cost(c, prefs.weights) for c in projected)
    if optimum > 0:
        assert result.weighted_cost <= optimum * alpha * (1 + 1e-9)


def test_ira_without_bounds_behaves_like_rta(setup):
    model, query, _ = setup
    prefs = Preferences(objectives=OBJECTIVES, weights=(1.0, 0.5, 2.0))
    result = ira(query, model, prefs, 1.5, TINY_CONFIG)
    # Unbounded instances terminate after the first iteration.
    assert result.iterations == 1


def test_ira_zero_loss_bound_disables_sampling(setup):
    model, query, _ = setup
    prefs = Preferences(
        objectives=OBJECTIVES,
        weights=(1.0, 0.0, 0.0),
        bounds=(INFINITY, INFINITY, 0.0),
    )
    result = ira(query, model, prefs, 2.0, TINY_CONFIG)
    assert result.cost_of(Objective.TUPLE_LOSS) == 0.0
    assert "SampleScan" not in " ".join(result.plan.operator_labels())


def test_ira_tight_bounds_need_refinement(setup):
    """A bound just above the feasible optimum can force iterations."""
    model, query, all_plans = setup
    indices = (0, 6, 8)
    projected = [project(p.cost, indices) for p in all_plans]
    # Tight time bound: only a thin slice of plans qualifies.
    feasible_times = sorted(c[0] for c in projected)
    bound = feasible_times[1] * 1.0001
    prefs = Preferences(
        objectives=OBJECTIVES,
        weights=(0.0, 1e-9, 1.0),
        bounds=(bound, INFINITY, INFINITY),
    )
    result = ira(query, model, prefs, 1.5, TINY_CONFIG)
    assert result.respects_bounds
    feasible = [
        weighted_cost(c, prefs.weights)
        for c in projected
        if respects_bounds(c, prefs.bounds)
    ]
    assert result.weighted_cost <= min(feasible) * 1.5 + 1e-12


def test_ira_infeasible_bounds_fall_back_to_weighted(setup):
    model, query, all_plans = setup
    prefs = Preferences(
        objectives=OBJECTIVES,
        weights=(1.0, 0.0, 0.0),
        bounds=(1e-6, 1e-6, 0.0),  # impossible
    )
    result = ira(query, model, prefs, 1.5, TINY_CONFIG)
    assert result.plan is not None
    assert not result.respects_bounds  # nothing can respect these bounds


def test_ira_rejects_bad_alpha(setup):
    model, query, _ = setup
    prefs = Preferences(objectives=OBJECTIVES, weights=(1, 1, 1))
    with pytest.raises(InvalidPrecisionError):
        ira(query, model, prefs, 0.9, TINY_CONFIG)


def test_ira_terminates_within_max_iterations(setup):
    model, query, _ = setup
    prefs = Preferences(
        objectives=OBJECTIVES,
        weights=(1.0, 1.0, 1.0),
        bounds=(1e-3, 1e-3, 0.5),
    )
    result = ira(query, model, prefs, 1.01, TINY_CONFIG, max_iterations=8)
    assert result.iterations <= 8


class TestRefinementPolicies:
    @pytest.mark.parametrize(
        "policy", [iteration_precision, halving_policy, slow_policy]
    )
    def test_policies_decrease(self, policy):
        values = [policy(2.0, i, 3) for i in range(1, 15)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v >= 1.0 for v in values)

    def test_policies_preserve_guarantee(self, setup):
        model, query, all_plans = setup
        rng = random.Random(42)
        prefs = _random_bounded_prefs(all_plans, (0, 6, 8), rng)
        alpha = 1.5
        projected = [project(p.cost, prefs.indices) for p in all_plans]
        feasible = [
            c for c in projected if respects_bounds(c, prefs.bounds)
        ]
        optimum = min(
            weighted_cost(c, prefs.weights)
            for c in (feasible if feasible else projected)
        )
        for policy in (iteration_precision, halving_policy, slow_policy):
            result = ira(
                query, model, prefs, alpha, TINY_CONFIG,
                precision_policy=policy,
            )
            if optimum > 0:
                assert result.weighted_cost <= optimum * alpha * (1 + 1e-9)


@pytest.mark.parametrize("bounds, alpha, iterations, plan_cost", [
    # No plan respects either bound pair. The second's zero loss bound
    # leaves only the unsampled plans relaxed-feasible.
    ((4.3, 44300.0, INFINITY), 2.0, 16, (1.812648, 49733.52, 0.999992)),
    ((4.3, 44300.0, INFINITY), 1.5, 11, (1.812648, 49733.52, 0.999992)),
    ((198.0, 64300.0, 0.0), 2.0, 20, (1.812648, 49220.88, 0.999992)),
])
def test_ira_jumps_the_schedule_on_jointly_infeasible_bounds(
    setup, monkeypatch, bounds, alpha, iterations, plan_cost
):
    """The schedule skips the precisions that the smallest bound
    violation cannot pass under: fewer DP runs than schedule indices,
    with the index and plan that stepping one index at a time gave."""
    model, query, all_plans = setup
    prefs = Preferences(
        objectives=OBJECTIVES, weights=(1.0, 1.0, 1.0), bounds=bounds
    )
    projected = [project(p.cost, prefs.indices) for p in all_plans]
    assert not any(respects_bounds(c, bounds) for c in projected)
    ira_module = importlib.import_module("repro.core.ira")
    runs = []
    find_pareto_plans = ira_module.find_pareto_plans

    def counting(*args, **kwargs):
        runs.append(args[3])
        return find_pareto_plans(*args, **kwargs)

    monkeypatch.setattr(ira_module, "find_pareto_plans", counting)
    result = ira(query, model, prefs, alpha, TINY_CONFIG)
    assert not result.timed_out
    assert result.iterations == iterations
    assert len(runs) < result.iterations
    assert runs == sorted(runs, reverse=True)
    assert result.plan_cost == plan_cost


class TestBoundViolationGap:
    def test_smallest_violation_over_the_set(self):
        entries = [((3.0, 1.0), "a"), ((1.5, 4.0), "b")]
        assert _bound_violation_gap(entries, (2.0, 2.0)) == 1.5

    def test_a_plan_within_bounds_means_no_gap(self):
        entries = [((3.0, 1.0), "a"), ((2.0, 2.0), "b")]
        assert _bound_violation_gap(entries, (2.0, 2.0)) == INFINITY

    def test_zero_bound_with_zero_cost_is_ratio_zero(self):
        entries = [((0.0, 3.0), "a"), ((0.5, 2.5), "b")]
        # "b"'s positive cost on the zero bound is an infinite ratio.
        assert _bound_violation_gap(entries, (0.0, 2.0)) == 1.5

    def test_infinite_bounds_are_skipped(self):
        entries = [((1e30, 3.0), "a")]
        assert _bound_violation_gap(entries, (INFINITY, 2.0)) == 1.5
