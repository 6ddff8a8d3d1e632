"""Backend throughput: process pool vs thread pool on generated workloads.

The paper's schemes are CPU-bound Python dynamic programs, so the
thread backend can only overlap bookkeeping — the GIL serializes the
real work. This benchmark runs the same generated 100-query workload
through both backends and reports wall-clock throughput.

Speedup assertions are gated on the parallelism actually available:
``min(--workers, usable CPUs)``. With four-way parallelism the process
backend must be at least 2x faster than threads; with two-way it must
beat threads; on a single CPU the comparison is reported but not
asserted (physics wins).

Both backends run without a wall-clock timeout, so the plan-equality
check compares plans that no deadline touched: a request that crossed
the figures' 2 s stand-in on one side only would return the timeout
fallback plan there.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.experiments import BENCH_CONFIG
from repro.catalog.tpch import tpch_schema
from repro.core.service import OptimizerService
from repro.parallel.pool import usable_cpu_count as usable_cpus
from repro.workload import WorkloadGenerator

#: Queries whose optimization is heavy enough to measure (3+ tables).
WORKLOAD_QUERIES = (5, 8)

#: Total batch size of the throughput comparison.
WORKLOAD_SIZE = 100


@pytest.fixture(scope="module")
def workload():
    """100 distinct weighted 3-objective RTA requests over TPC-H."""
    generator = WorkloadGenerator(tpch_schema(), config=BENCH_CONFIG, seed=42)
    per_query = WORKLOAD_SIZE // len(WORKLOAD_QUERIES)
    cases = [
        case
        for query_number in WORKLOAD_QUERIES
        for case in generator.weighted_cases(
            query_number, num_objectives=3, count=per_query
        )
    ]
    return [case.to_request(algorithm="rta", alpha=2.0) for case in cases]


def untimed_service(backend: str, workers: int) -> OptimizerService:
    """The benchmark service (TPC-H, ``BENCH_CONFIG``, no plan cache)
    with no wall-clock timeout."""
    return OptimizerService(
        tpch_schema(),
        config=BENCH_CONFIG.with_timeout(None),
        cache_size=0,
        backend=backend,
        workers=workers,
    )


def test_process_backend_throughput(workload, parallel_workers, report):
    workers = parallel_workers
    effective = min(workers, usable_cpus())

    with untimed_service("processes", workers) as processes:
        processes.worker_pool().warm_up()  # exclude spawn cost
        start = time.perf_counter()
        process_results = processes.optimize_many(workload)
        process_seconds = time.perf_counter() - start

    threads = untimed_service("threads", workers)
    start = time.perf_counter()
    thread_results = threads.optimize_many(workload, max_workers=workers)
    thread_seconds = time.perf_counter() - start

    assert len(process_results) == len(thread_results) == len(workload)
    for result in (*process_results, *thread_results):
        assert not result.timed_out and not result.deadline_hit
    for process_result, thread_result in zip(
        process_results, thread_results
    ):
        assert process_result.plan_cost == thread_result.plan_cost

    speedup = thread_seconds / process_seconds if process_seconds else 0.0
    lines = [
        "backend throughput -- "
        f"{len(workload)} requests, {workers} workers, "
        f"{usable_cpus()} usable CPUs",
        f"  threads:   {thread_seconds:8.2f} s  "
        f"({len(workload) / thread_seconds:6.1f} req/s)",
        f"  processes: {process_seconds:8.2f} s  "
        f"({len(workload) / process_seconds:6.1f} req/s)",
        f"  speedup:   {speedup:8.2f} x  "
        f"(effective parallelism {effective})",
    ]
    report("\n".join(lines))

    if effective >= 4:
        assert speedup >= 2.0, (
            f"process backend only {speedup:.2f}x faster than threads "
            f"with {effective}-way parallelism (expected >= 2x)"
        )
    elif effective >= 2:
        assert speedup >= 1.15, (
            f"process backend did not beat threads ({speedup:.2f}x) "
            f"with {effective}-way parallelism"
        )
    # Single-CPU environments: reported, not asserted.

