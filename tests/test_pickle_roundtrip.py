"""Pickle round-trips for every type the process backend ships.

The parallel backend moves requests, results, plans and preferences
between processes via pickle — these regression tests pin the
round-trip down independently of the pool machinery, so a future field
addition that breaks picklability fails here with a clear message.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import FAST_CONFIG, OptimizerConfig
from repro.core.instrumentation import RequestMetrics
from repro.core.optimizer import MultiObjectiveOptimizer
from repro.core.preferences import Preferences
from repro.core.request import OptimizationRequest
from repro.cost.objectives import Objective
from repro.parallel.deadline import DeadlineScheduler
from repro.parallel.worker import WorkerSetup
from tests.conftest import TINY_CONFIG, make_chain_query, make_small_schema


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


@pytest.fixture(scope="module")
def preferences():
    return Preferences.from_maps(
        (Objective.TOTAL_TIME, Objective.BUFFER_FOOTPRINT,
         Objective.TUPLE_LOSS),
        weights={Objective.TOTAL_TIME: 1.0, Objective.TUPLE_LOSS: 5.0},
        bounds={Objective.BUFFER_FOOTPRINT: 1e9},
    )


@pytest.fixture(scope="module")
def result(preferences):
    optimizer = MultiObjectiveOptimizer(make_small_schema(),
                                        config=TINY_CONFIG)
    request = OptimizationRequest(
        query=make_chain_query(3),
        preferences=preferences,
        algorithm="ira",
        alpha=1.5,
    )
    return optimizer.execute(request)


class TestPickleRoundtrip:
    def test_preferences(self, preferences):
        copy = roundtrip(preferences)
        assert copy == preferences
        assert copy.indices == preferences.indices
        assert copy.fingerprint() == preferences.fingerprint()

    def test_request(self, preferences):
        request = OptimizationRequest(
            query=make_chain_query(3),
            preferences=preferences,
            algorithm="ira",
            alpha=1.25,
            strict=False,
            config=FAST_CONFIG,
            timeout_seconds=9.0,
            tags=("tenant-a", "batch-7"),
        )
        copy = roundtrip(request)
        assert copy == request
        assert copy.fingerprint() == request.fingerprint()

    def test_config(self):
        config = OptimizerConfig(dop_values=(1, 3), timeout_seconds=2.5)
        copy = roundtrip(config)
        assert copy == config
        assert copy.fingerprint() == config.fingerprint()

    def test_plan(self, result):
        plan = result.plan
        copy = roundtrip(plan)
        assert copy.cost == plan.cost
        assert copy.rows == plan.rows
        assert copy.width == plan.width
        assert copy.describe() == plan.describe()
        assert copy.operator_labels() == plan.operator_labels()

    def test_result(self, result):
        copy = roundtrip(result)
        assert copy.algorithm == result.algorithm
        assert copy.plan_cost == result.plan_cost
        assert copy.weighted_cost == result.weighted_cost
        assert copy.deadline_hit == result.deadline_hit
        assert [c for c, _ in copy.frontier] == [
            c for c, _ in result.frontier
        ]
        assert copy.plan.describe() == result.plan.describe()

    def test_schema(self):
        schema = make_small_schema()
        copy = roundtrip(schema)
        assert sorted(t.name for t in copy.tables) == sorted(
            t.name for t in schema.tables
        )

    def test_parallel_payloads(self):
        """The pool's own message types survive the trip too."""
        setup = WorkerSetup(
            schema=make_small_schema(),
            config=TINY_CONFIG,
            params=None,
            scheduler=DeadlineScheduler(route_fraction=0.3),
        )
        copy = roundtrip(setup)
        assert copy.scheduler == setup.scheduler
        record = RequestMetrics(
            fingerprint="abc", query_name="q", algorithm="rta",
            tags=("t",), cache_hit=False, elapsed_ms=1.0,
            timed_out=False, deadline_hit=True, worker="SpawnProcess-1",
        )
        assert roundtrip(record) == record
