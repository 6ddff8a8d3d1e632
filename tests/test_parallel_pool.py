"""Process-pool backend: worker execution, caching, metrics, tracing.

These tests spin up real (spawn) worker processes — the pool is built
once per module and shared, because each spawn imports the package.
The worker count honors the ``--workers`` pytest option (CI pins it to
2 under a hard timeout so a hung pool fails fast).
"""

from __future__ import annotations

import time

import pytest

from repro.core.request import OptimizationRequest
from repro.core.service import OptimizerService
from repro.core.preferences import Preferences
from repro.cost.objectives import Objective
from repro.exceptions import OptimizerError
from repro.obs.trace import Tracer
from repro.parallel.deadline import DeadlineScheduler
from tests.conftest import TINY_CONFIG, make_chain_query, make_small_schema

pytestmark = pytest.mark.parallel


@pytest.fixture(scope="module")
def service(parallel_workers):
    with OptimizerService(
        make_small_schema(),
        config=TINY_CONFIG,
        backend="processes",
        workers=parallel_workers,
        scheduler=DeadlineScheduler(),
    ) as service:
        service.worker_pool().warm_up()
        yield service


def make_request(algorithm="rta", alpha=1.5, num_tables=3, **kwargs):
    weights = {Objective.TOTAL_TIME: 1.0, Objective.TUPLE_LOSS: 2.0}
    preferences = Preferences.from_maps(
        (Objective.TOTAL_TIME, Objective.TUPLE_LOSS), weights=weights
    )
    return OptimizationRequest(
        query=make_chain_query(num_tables),
        preferences=preferences,
        algorithm=algorithm,
        alpha=alpha,
        **kwargs,
    )


class TestProcessBackend:
    def test_batch_matches_inline_results(self, service):
        requests = [
            make_request(alpha=alpha, num_tables=tables)
            for alpha in (1.2, 1.5, 2.0)
            for tables in (2, 3)
        ]
        parallel = service.optimize_many(requests)
        inline = OptimizerService(
            service.schema, config=TINY_CONFIG, backend="inline",
            cache_size=0,
        )
        expected = [inline.submit(request) for request in requests]
        assert len(parallel) == len(expected)
        for got, want in zip(parallel, expected):
            assert got.plan_cost == want.plan_cost
            assert [c for c, _ in got.frontier] == [
                c for c, _ in want.frontier
            ]

    def test_worker_metrics_ship_back(self, service):
        before = service.metrics.snapshot()["requests"]
        records = []
        hook = records.append
        service.add_hook(hook)
        try:
            service.optimize_many(
                [make_request(alpha=1.31), make_request(alpha=1.32)]
            )
        finally:
            service.remove_hook(hook)
        after = service.metrics.snapshot()
        assert after["requests"] == before + 2
        assert len(records) == 2
        assert all(record.worker for record in records)
        assert set(after["by_worker"])  # worker attribution collected

    def test_parent_cache_serves_repeats(self, service):
        request = make_request(alpha=1.77)
        first = service.optimize_many([request])[0]
        hits_before = service.metrics.snapshot()["cache_hits"]
        second = service.submit(request)
        assert service.metrics.snapshot()["cache_hits"] == hits_before + 1
        assert second.plan_cost == first.plan_cost

    def test_fingerprint_sharding_on_duplicates(self, service):
        request_a = make_request(alpha=1.91)
        request_b = make_request(alpha=1.92)
        batch = [request_a, request_b, request_a, request_a, request_b]
        results = service.optimize_many(batch)
        assert results[0].plan_cost == results[2].plan_cost
        assert results[1].plan_cost == results[4].plan_cost

    def test_batch_repeats_hit_cache_after_first_wave(self, service):
        """Under a scheduler, a batch's repeats run in a second wave
        after the first occurrence and hit the parent cache, because
        it keys on the original fingerprint, not the time-varying
        resolved timeout."""
        request = make_request(alpha=1.83, timeout_seconds=120.0)
        batch = [request] * 4
        hits_before = service.metrics.snapshot()["cache_hits"]
        results = service.optimize_many(batch)
        hits = service.metrics.snapshot()["cache_hits"] - hits_before
        assert hits >= 3  # first computes, repeats served from cache
        assert all(r.plan_cost == results[0].plan_cost for r in results)

    def test_deadline_enforced_in_worker(self, service):
        request = make_request(timeout_seconds=1e-9, alpha=1.41)
        result = service.optimize_many([request, request])[0]
        assert result.deadline_hit
        assert result.plan is not None  # fallback plan, not a failure

    def test_empty_batch(self, service):
        assert service.optimize_many([]) == []

    def test_single_request_batch_uses_the_pool(self, service):
        """Backend semantics are uniform: even a one-element batch runs
        on a worker, so by_worker attribution and per-worker state
        apply regardless of batch size."""
        records = []
        hook = records.append
        service.add_hook(hook)
        try:
            result = service.optimize_many([make_request(alpha=1.66)])
        finally:
            service.remove_hook(hook)
        assert len(result) == 1 and result[0].plan is not None
        assert records[-1].worker  # executed by a named worker process


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(OptimizerError):
            OptimizerService(make_small_schema(), backend="gpu")

    def test_close_is_idempotent(self, parallel_workers):
        service = OptimizerService(
            make_small_schema(), config=TINY_CONFIG,
            backend="processes", workers=parallel_workers,
        )
        service.close()  # no pool started yet
        service.optimize_many([make_request(), make_request(alpha=2.0)])
        service.close()
        service.close()

    def test_closed_service_batch_does_not_restart_the_pool(
        self, parallel_workers
    ):
        """A closed process-backend service answers a batch in-process,
        exactly as ``submit`` does, instead of starting a new pool."""
        service = OptimizerService(
            make_small_schema(), config=TINY_CONFIG,
            backend="processes", workers=parallel_workers,
        )
        service.close()
        results = service.optimize_many(
            [make_request(alpha=1.21), make_request(alpha=1.22)]
        )
        assert all(result.plan is not None for result in results)
        assert service.resilience_snapshot()["pool"] is None


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_traced_batch_keeps_per_request_spans(backend, parallel_workers):
    """Every request of a traced batch records its spans under the
    caller's enclosing span: on threads the cache lookup and the
    algorithm run, on processes a dispatch span with the worker's
    spans nested under it."""
    requests = [make_request(alpha=1.51), make_request(alpha=1.52)]
    tracer = Tracer()
    with OptimizerService(
        make_small_schema(), config=TINY_CONFIG,
        backend=backend, workers=parallel_workers,
    ) as service:
        with tracer.activate(), tracer.span("batch") as batch:
            service.optimize_many(requests, max_workers=2)
    spans = tracer.drain()
    by_id = {span.span_id: span for span in spans}

    def under(span, ancestor):
        parent = by_id.get(span.parent_id)
        while parent is not None:
            if parent.span_id == ancestor.span_id:
                return True
            parent = by_id.get(parent.parent_id)
        return False

    def named(name):
        return [span for span in spans if span.name == name]

    root = batch.span
    assert len(named("cache.lookup")) >= len(requests)
    assert all(under(span, root) for span in named("cache.lookup"))
    algorithm_spans = named("algorithm.rta")
    assert len(algorithm_spans) == len(requests)
    assert all(under(span, root) for span in algorithm_spans)
    if backend == "processes":
        dispatches = named("pool.dispatch")
        assert len(dispatches) == len(requests)
        assert all(span.parent_id == root.span_id for span in dispatches)
        assert all(
            any(under(span, dispatch) for dispatch in dispatches)
            for span in algorithm_spans
        )
