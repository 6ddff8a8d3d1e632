"""Scaling out: a 200-query batch on the process-pool backend.

The cloud-provider scenario of the paper (Scenario 1) ends with many
users submitting many optimization requests at once. This example
generates a 200-query synthetic workload with the paper's workload
generator (random objective subsets, random weights — Section 8) and
pushes it through ``optimize_many`` on a ``backend="processes"`` service:

* worker processes are spawned once and stay warm — each holds its own
  algorithm registry, cost model and plan cache;
* the batch is a fan-out of ``submit``: the first occurrence of each
  request runs on the pool, and its repeats follow in a second wave
  and hit the parent's plan cache instead of being optimized again;
* per-request metrics ship back to the parent, so the service metrics
  look exactly like the single-process backend's.

Run:  python examples/parallel_batch.py
"""

import time

from repro import OptimizerService, WorkloadGenerator, tpch_schema
from repro.config import OptimizerConfig
from repro.parallel.pool import default_worker_count

#: Reduced operator space keeps the example snappy on laptops.
CONFIG = OptimizerConfig(dop_values=(1, 2), sampling_rates=(0.01, 0.05))

#: Queries of the batch: a mix of light and heavy TPC-H shapes.
QUERY_NUMBERS = (3, 5, 8, 10, 12)

BATCH_SIZE = 200


def build_workload(schema):
    """200 requests: 40 distinct cases, each submitted five times.

    Real request streams repeat themselves (same tenant, same report,
    same dashboard refresh); the repeats are what the plan cache
    exploits.
    """
    generator = WorkloadGenerator(schema, config=CONFIG, seed=7)
    distinct = [
        case.to_request(algorithm="rta", alpha=2.0)
        for query_number in QUERY_NUMBERS
        for case in generator.weighted_cases(
            query_number, num_objectives=3, count=8
        )
    ]
    repeats = BATCH_SIZE // len(distinct)
    return distinct * repeats


def run_batch(service, requests, label):
    start = time.perf_counter()
    results = service.optimize_many(requests)
    elapsed = time.perf_counter() - start
    print(f"{label:>9s}: {len(requests)} requests in {elapsed:6.2f} s "
          f"({len(requests) / elapsed:6.1f} req/s)")
    return results, elapsed


def main() -> None:
    schema = tpch_schema()
    requests = build_workload(schema)
    workers = default_worker_count()
    print(f"workload: {len(requests)} requests "
          f"({len(set(r.fingerprint() for r in requests))} distinct), "
          f"{workers} workers")
    print()

    with OptimizerService(
        schema, config=CONFIG, backend="processes", workers=workers,
        cache_size=512,
    ) as service:
        service.worker_pool().warm_up()
        process_results, process_seconds = run_batch(
            service, requests, "processes"
        )
        snapshot = service.metrics.snapshot()
        print(f"           worker attribution: {snapshot['by_worker']}")
        print(f"           plan-cache hits: {snapshot['cache_hits']}")
        print()

    thread_service = OptimizerService(
        schema, config=CONFIG, backend="threads", cache_size=512,
    )
    thread_results, thread_seconds = run_batch(
        thread_service, requests, "threads"
    )
    print()

    agree = all(
        a.plan_cost == b.plan_cost
        for a, b in zip(process_results, thread_results)
    )
    print(f"backends agree on every plan: {agree}")
    print(f"speedup processes vs threads: "
          f"{thread_seconds / process_seconds:.2f}x")


if __name__ == "__main__":
    main()
