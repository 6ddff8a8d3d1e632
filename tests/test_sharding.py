"""Batch sharding: fingerprint-equal requests share one shard.

:meth:`repro.parallel.sharding.ShardPlanner.partition_requests` groups a
batch by request fingerprint so repeats execute on one worker and hit
its plan cache; these tests pin the partition down independently of the
process pool.
"""

from __future__ import annotations

import random

import pytest

from repro.core.preferences import Preferences
from repro.core.request import OptimizationRequest
from repro.cost.objectives import ALL_OBJECTIVES
from repro.exceptions import OptimizerError
from repro.parallel.sharding import ShardPlanner
from repro.query.synthetic import GraphShape, synthetic_query


def random_preferences(rng: random.Random, num_objectives: int) -> Preferences:
    objectives = tuple(
        sorted(rng.sample(ALL_OBJECTIVES, num_objectives),
               key=lambda o: o.index)
    )
    weights = tuple(rng.uniform(0.0, 1.0) for _ in objectives)
    return Preferences(objectives=objectives, weights=weights)


class TestShardPlanner:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(OptimizerError):
            ShardPlanner(num_shards=0)

    def test_partition_requests_by_fingerprint(self):
        rng = random.Random(9)
        query_a = synthetic_query(GraphShape.CHAIN, 3, seed=1)
        query_b = synthetic_query(GraphShape.STAR, 3, seed=1)
        preferences = random_preferences(rng, 2)
        request_a = OptimizationRequest(
            query=query_a, preferences=preferences, algorithm="rta"
        )
        request_b = OptimizationRequest(
            query=query_b, preferences=preferences, algorithm="rta"
        )
        batch = [request_a, request_b, request_a, request_b, request_a]
        planner = ShardPlanner(num_shards=4)
        groups = planner.partition_requests(batch)
        positions = sorted(p for group in groups for p in group)
        assert positions == [0, 1, 2, 3, 4]
        # Fingerprint-equal requests always land in the same group.
        group_of = {}
        for index, group in enumerate(groups):
            for position in group:
                group_of[position] = index
        assert group_of[0] == group_of[2] == group_of[4]
        assert group_of[1] == group_of[3]
