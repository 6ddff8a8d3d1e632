"""Deadline accounting and the deadline-aware scheduler."""

from __future__ import annotations

import time

import pytest

from repro.config import OptimizerConfig
from repro.core.request import OptimizationRequest
from repro.core.service import OptimizerService
from repro.core.preferences import Preferences
from repro.cost.objectives import Objective
from repro.parallel.deadline import DeadlineScheduler
from tests.conftest import TINY_CONFIG, make_chain_query, make_small_schema


@pytest.fixture(scope="module")
def schema():
    return make_small_schema()


@pytest.fixture(scope="module")
def preferences():
    return Preferences.from_maps(
        (Objective.TOTAL_TIME, Objective.TUPLE_LOSS),
        weights={Objective.TOTAL_TIME: 1.0},
    )


def make_request(preferences, algorithm="rta", **kwargs):
    return OptimizationRequest(
        query=make_chain_query(3),
        preferences=preferences,
        algorithm=algorithm,
        **kwargs,
    )


class TestDeadlineHitReporting:
    @pytest.mark.parametrize(
        "algorithm", ["exa", "rta", "ira", "selinger", "wsum", "idp"]
    )
    def test_all_algorithms_report_deadline_hit(
        self, schema, preferences, algorithm
    ):
        """Every registered algorithm surfaces an exceeded deadline."""
        service = OptimizerService(schema, config=TINY_CONFIG,
                                   backend="inline", cache_size=0)
        prefs = preferences
        if algorithm == "selinger":
            prefs = Preferences.from_maps(
                (Objective.TOTAL_TIME,),
                weights={Objective.TOTAL_TIME: 1.0},
            )
        request = make_request(
            prefs, algorithm=algorithm, timeout_seconds=1e-9
        )
        result = service.submit(request)
        assert result.deadline_hit
        # The paper's fallback still produces a plan.
        assert result.plan is not None

    def test_no_deadline_means_no_hit(self, schema, preferences):
        service = OptimizerService(schema, config=TINY_CONFIG,
                                   backend="inline")
        result = service.submit(make_request(preferences))
        assert not result.deadline_hit
        assert not result.timed_out

    def test_deadline_hit_without_fallback_trip(self, schema, preferences):
        """Small queries can miss the deadline between periodic checks.

        With the check interval pushed beyond the candidate count the
        enumerator never flips into fallback mode (``timed_out`` stays
        False), yet the end-of-run accounting still reports the miss.
        """
        config = OptimizerConfig(
            dop_values=(1,),
            sampling_rates=(),
            timeout_check_interval=10**9,
        )
        service = OptimizerService(schema, config=config, backend="inline",
                                   cache_size=0)
        result = service.submit(
            make_request(preferences, timeout_seconds=1e-9)
        )
        assert result.deadline_hit
        assert not result.timed_out

    def test_missed_deadlines_are_not_cached(self, schema, preferences):
        service = OptimizerService(schema, config=TINY_CONFIG,
                                   backend="inline", cache_size=16)
        request = make_request(preferences, timeout_seconds=1e-9)
        service.submit(request)
        assert len(service.cache) == 0
        snapshot = service.metrics.snapshot()
        assert snapshot["deadline_hits"] == 1


class TestDeadlineScheduler:
    def test_no_budget_passes_through(self, preferences):
        scheduler = DeadlineScheduler()
        request = make_request(preferences)
        assert scheduler.admit(request) is None
        scheduled = scheduler.resolve(request, None)
        assert scheduled.request is request
        assert not scheduled.expired and not scheduled.rerouted

    def test_queueing_time_counts(self, preferences):
        scheduler = DeadlineScheduler(route_fraction=0.0)
        request = make_request(preferences, timeout_seconds=10.0)
        admitted = 1000.0
        deadline = scheduler.admit(request, now=admitted)
        assert deadline == pytest.approx(1010.0)
        # 4 seconds queued: only 6 remain for execution.
        scheduled = scheduler.resolve(request, deadline, now=admitted + 4.0)
        assert scheduled.request.timeout_seconds == pytest.approx(6.0)
        assert not scheduled.expired

    def test_near_deadline_routes_to_ira(self, preferences):
        scheduler = DeadlineScheduler(route_fraction=0.5)
        request = make_request(preferences, algorithm="rta",
                               alpha=1.25, timeout_seconds=10.0)
        deadline = scheduler.admit(request, now=0.0)
        scheduled = scheduler.resolve(request, deadline, now=6.0)
        assert scheduled.rerouted
        assert scheduled.request.algorithm == "ira"
        assert scheduled.request.alpha == 1.25  # caller precision kept
        assert scheduled.request.timeout_seconds == pytest.approx(4.0)

    def test_reroute_uses_anytime_alpha_for_exact_requests(
        self, preferences
    ):
        scheduler = DeadlineScheduler(route_fraction=0.5, anytime_alpha=2.0)
        request = make_request(preferences, algorithm="exa",
                               timeout_seconds=10.0)
        scheduled = scheduler.resolve(
            request, scheduler.admit(request, now=0.0), now=7.0
        )
        assert scheduled.rerouted
        assert scheduled.request.algorithm == "ira"
        assert scheduled.request.alpha == 2.0

    def test_expired_budget_degrades_to_fallback(self, preferences):
        scheduler = DeadlineScheduler()
        request = make_request(preferences, timeout_seconds=1.0)
        scheduled = scheduler.resolve(
            request, scheduler.admit(request, now=0.0), now=5.0
        )
        assert scheduled.expired
        assert scheduled.request.timeout_seconds == pytest.approx(
            scheduler.expired_slice_seconds
        )

    def test_config_timeout_is_a_budget_too(self, preferences):
        scheduler = DeadlineScheduler()
        request = make_request(
            preferences, config=TINY_CONFIG.with_timeout(3.0)
        )
        deadline = scheduler.admit(request, now=0.0)
        assert deadline == pytest.approx(3.0)

    def test_service_default_timeout_is_a_budget_too(
        self, schema, preferences
    ):
        """A service-wide config timeout admits requests that carry no
        timeout of their own — the scheduler is not a no-op for them."""
        scheduler = DeadlineScheduler()
        request = make_request(preferences)  # no per-request timeout
        assert scheduler.admit(request, now=0.0, default_timeout=5.0) == (
            pytest.approx(5.0)
        )
        service = OptimizerService(
            schema, config=TINY_CONFIG.with_timeout(5.0),
            backend="inline", scheduler=scheduler, cache_size=0,
        )
        result = service.submit(
            request, admitted_epoch=time.time() - 60.0
        )
        assert result.deadline_hit  # budget from the service config

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlineScheduler(route_fraction=1.5)
        with pytest.raises(ValueError):
            DeadlineScheduler(anytime_alpha=0.5)
        with pytest.raises(Exception):
            DeadlineScheduler(anytime_algorithm="nope")


class TestSchedulerServiceIntegration:
    def test_expired_request_reports_hit(self, schema, preferences):
        scheduler = DeadlineScheduler()
        service = OptimizerService(
            schema, config=TINY_CONFIG, backend="inline",
            scheduler=scheduler, cache_size=0,
        )
        request = make_request(preferences, timeout_seconds=5.0)
        # Admitted 60 (pretend) seconds ago: the budget is gone before
        # execution starts — queueing counted against the deadline.
        result = service.submit(
            request, admitted_epoch=time.time() - 60.0
        )
        assert result.deadline_hit
        assert result.plan is not None
        assert service.metrics.snapshot()["deadline_hits"] == 1

    def test_fresh_request_runs_normally(self, schema, preferences):
        service = OptimizerService(
            schema, config=TINY_CONFIG, backend="inline",
            scheduler=DeadlineScheduler(),
        )
        result = service.submit(
            make_request(preferences, timeout_seconds=60.0)
        )
        assert not result.deadline_hit

    def test_rerouted_results_never_poison_the_cache(
        self, schema, preferences
    ):
        """A result the scheduler rerouted to IRA must not be served to
        later full-budget requests for the original algorithm."""
        service = OptimizerService(
            schema, config=TINY_CONFIG, backend="inline",
            scheduler=DeadlineScheduler(route_fraction=0.5),
            cache_size=16,
        )
        request = make_request(preferences, algorithm="rta",
                               timeout_seconds=30.0)
        # Admitted 20 (pretend) seconds ago: under half the budget
        # remains, so the scheduler reroutes to the anytime path.
        rerouted = service.submit(
            request, admitted_epoch=time.time() - 20.0
        )
        assert rerouted.algorithm == "ira"
        assert len(service.cache) == 0
        fresh = service.submit(request)  # full budget: real RTA run
        assert fresh.algorithm == "rta"

    def test_completed_budgeted_results_are_cached(
        self, schema, preferences
    ):
        """A run that finished inside its (rewritten) budget is
        identical to a full-budget run, so it is cacheable under the
        original fingerprint."""
        service = OptimizerService(
            schema, config=TINY_CONFIG, backend="inline",
            scheduler=DeadlineScheduler(),
            cache_size=16,
        )
        request = make_request(preferences, timeout_seconds=60.0)
        service.submit(request)
        assert len(service.cache) == 1
        service.submit(request)
        assert service.metrics.snapshot()["cache_hits"] == 1

    def test_near_deadline_batch_reroutes(self, schema, preferences):
        executed = []
        service = OptimizerService(
            schema, config=TINY_CONFIG, backend="inline",
            scheduler=DeadlineScheduler(route_fraction=1.0),
            hooks=[lambda record: executed.append(record.algorithm)],
            cache_size=0,
        )
        # route_fraction=1.0 makes any nonzero queueing delay trigger
        # the anytime reroute.
        service.submit(
            make_request(preferences, algorithm="rta",
                         timeout_seconds=30.0),
            admitted_epoch=time.time() - 1.0,
        )
        assert executed == ["ira"]
