"""Workload generator: determinism and the paper's bound rules."""

import pytest

from repro import INFINITY, Objective, WorkloadGenerator
from repro.config import OptimizerConfig
from repro.cost.objectives import ALL_OBJECTIVES
from repro.exceptions import OptimizerError
from repro.workloads import make_family

CONFIG = OptimizerConfig(dop_values=(1, 2), sampling_rates=(0.01, 0.05))


@pytest.fixture(scope="module")
def generator():
    from repro import tpch_schema

    return WorkloadGenerator(tpch_schema(), config=CONFIG, seed=123)


class TestWeightedCases:
    def test_objective_count(self, generator):
        case = generator.weighted_case(3, num_objectives=6)
        assert case.preferences.num_objectives == 6
        assert not case.is_bounded

    def test_weights_in_unit_interval(self, generator):
        case = generator.weighted_case(3, num_objectives=9)
        assert all(0.0 <= w <= 1.0 for w in case.preferences.weights)

    def test_objectives_are_distinct_and_sorted(self, generator):
        case = generator.weighted_case(5, num_objectives=9)
        indices = [o.index for o in case.preferences.objectives]
        assert indices == sorted(set(indices))

    def test_deterministic_with_seed(self):
        from repro import tpch_schema

        schema = tpch_schema()
        g1 = WorkloadGenerator(schema, config=CONFIG, seed=99)
        g2 = WorkloadGenerator(schema, config=CONFIG, seed=99)
        c1 = g1.weighted_case(7, 3)
        c2 = g2.weighted_case(7, 3)
        assert c1.preferences == c2.preferences

    def test_different_seeds_differ(self):
        from repro import tpch_schema

        schema = tpch_schema()
        g1 = WorkloadGenerator(schema, config=CONFIG, seed=1)
        g2 = WorkloadGenerator(schema, config=CONFIG, seed=2)
        assert (
            g1.weighted_case(7, 9).preferences
            != g2.weighted_case(7, 9).preferences
        )

    def test_batch_count(self, generator):
        cases = generator.weighted_cases(6, num_objectives=3, count=5)
        assert len(cases) == 5
        assert [c.case_index for c in cases] == list(range(5))

    def test_invalid_objective_count(self, generator):
        with pytest.raises(OptimizerError):
            generator.weighted_case(1, num_objectives=10)


class TestBoundedCases:
    def test_bound_count(self, generator):
        case = generator.bounded_case(3, num_bounds=3)
        assert case.preferences.num_objectives == 9
        assert len(case.preferences.bounded_objectives) == 3
        assert case.is_bounded

    def test_all_nine_bounded(self, generator):
        case = generator.bounded_case(1, num_bounds=9)
        assert all(b != INFINITY for b in case.preferences.bounds)

    def test_bounds_cannot_exceed_objectives(self, generator):
        with pytest.raises(OptimizerError):
            generator.bounded_case(1, num_bounds=4, num_objectives=3)

    def test_bounded_domain_rule(self, generator):
        # Tuple-loss bounds are drawn from [0, 1] (the domain), not from
        # the minimum-based rule.
        for _ in range(20):
            case = generator.bounded_case(1, num_bounds=9)
            position = case.preferences.objectives.index(
                Objective.TUPLE_LOSS
            )
            assert 0.0 <= case.preferences.bounds[position] <= 1.0

    def test_unbounded_domain_rule(self, generator):
        # Bounds on unbounded objectives lie in [min, 2 * min].
        minimum = generator.minimum_cost(1, Objective.TOTAL_TIME)
        for _ in range(10):
            case = generator.bounded_case(1, num_bounds=9)
            position = case.preferences.objectives.index(
                Objective.TOTAL_TIME
            )
            bound = case.preferences.bounds[position]
            assert minimum <= bound <= 2.0 * minimum * (1 + 1e-9)


class TestFamilyDispatch:
    """Query families come from ``repro.workloads.make_family``, which
    dispatches on the family name."""

    def test_job_family_builds_own_schema(self, generator):
        family = make_family("job-chain", joins=2)
        assert family.schema is not generator.schema
        assert family.schema.name.startswith("imdb")

    def test_unknown_family_rejected(self):
        with pytest.raises(OptimizerError):
            make_family("no-such-family")


class TestMinimumCost:
    def test_cached(self, generator):
        first = generator.minimum_cost(3, Objective.TOTAL_TIME)
        second = generator.minimum_cost(3, Objective.TOTAL_TIME)
        assert first == second

    def test_positive_for_time(self, generator):
        assert generator.minimum_cost(3, Objective.TOTAL_TIME) > 0

    def test_multi_block_combines(self, generator):
        # Q4 has two blocks; the minimal total time must cover both.
        q4_min = generator.minimum_cost(4, Objective.TOTAL_TIME)
        assert q4_min > 0
