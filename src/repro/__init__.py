"""repro — Approximation schemes for many-objective query optimization.

A self-contained reproduction of Trummer & Koch, "Approximation Schemes
for Many-Objective Query Optimization" (SIGMOD 2014 / arXiv:1404.0046):

* a statistics-driven query-optimizer substrate (catalog, TPC-H schema
  and queries, cardinality estimation, Postgres-style plan space with
  sampling scans and parallel joins, nine-objective cost model);
* the paper's algorithms — the exact multi-objective algorithm (EXA),
  the representative-tradeoffs approximation scheme (RTA) and the
  iterative-refinement approximation scheme (IRA) — plus baselines,
  all published through a pluggable algorithm registry
  (:func:`available_algorithms`, :class:`AlgorithmSpec`);
* a service-oriented front end: immutable :class:`OptimizationRequest`s
  executed by an :class:`OptimizerService` with a memoizing plan cache,
  pluggable execution backends and per-request metrics hooks;
* a parallel backend (:mod:`repro.parallel`): a warm process pool
  (``backend="processes"``) that sidesteps the GIL for served
  requests and batches alike, and deadline-aware scheduling with an
  anytime (IRA) fallback;
* a benchmark harness regenerating every figure of the paper's
  evaluation.

Quickstart::

    from repro import (
        Objective, OptimizationRequest, OptimizerService, Preferences,
        tpch_schema, tpch_query,
    )

    service = OptimizerService(tpch_schema())
    prefs = Preferences.from_maps(
        objectives=(Objective.TOTAL_TIME, Objective.BUFFER_FOOTPRINT,
                    Objective.TUPLE_LOSS),
        weights={Objective.TOTAL_TIME: 1.0, Objective.BUFFER_FOOTPRINT: 0.5,
                 Objective.TUPLE_LOSS: 2.0},
    )
    request = OptimizationRequest(
        query=tpch_query(3), preferences=prefs, algorithm="rta", alpha=1.5,
    )
    result = service.submit(request)        # repeats hit the plan cache
    print(result.plan.describe())

    # Batch fan-out over a thread pool (order-preserving):
    results = service.optimize_many(
        [request.replace(alpha=a) for a in (1.15, 1.5, 2.0)], max_workers=3,
    )
    print(service.metrics.snapshot())

    # CPU-bound batches scale across cores with the process backend
    # (warm spawn-safe workers; one dispatch per request):
    with OptimizerService(tpch_schema(), backend="processes",
                          workers=4) as parallel_service:
        results = parallel_service.optimize_many(many_requests)

The keyword-style facade remains supported as a thin shim over the same
execution path::

    from repro import MultiObjectiveOptimizer
    optimizer = MultiObjectiveOptimizer(tpch_schema())
    result = optimizer.optimize(tpch_query(3), prefs, algorithm="rta",
                                alpha=1.5)
"""

from repro.catalog import (
    Column,
    DataType,
    Index,
    Schema,
    Table,
    build_schema,
    tpch_schema,
)
from repro.config import (
    DEFAULT_CONFIG,
    FAST_CONFIG,
    SERIAL_CONFIG,
    OptimizerConfig,
)
from repro.core import (
    INFINITY,
    AlgorithmSpec,
    MultiObjectiveOptimizer,
    OptimizationRequest,
    OptimizationResult,
    OptimizerService,
    PlanCache,
    Preferences,
    RequestMetrics,
    ServiceMetrics,
    algorithm_specs,
    available_algorithms,
    exact_moqo,
    get_algorithm,
    ira,
    minimum_cost,
    register_algorithm,
    relative_cost,
    rta,
    select_best,
    selinger,
)
from repro.cost import (
    ALL_OBJECTIVES,
    CostModel,
    CostParams,
    DEFAULT_PARAMS,
    Objective,
    parse_objective,
)
from repro.exceptions import (
    CatalogError,
    CostModelError,
    InvalidPrecisionError,
    OptimizerError,
    QueryModelError,
    ReproError,
    RequestValidationError,
)
from repro.parallel import (
    DeadlineScheduler,
    WorkerPool,
)
from repro.plans import JoinMethod, JoinPlan, Plan, ScanMethod, ScanPlan
from repro.serving import (
    AsyncOptimizerServer,
    ServerResponse,
    ServerThread,
    ServingMetrics,
)
from repro.query import (
    FilterPredicate,
    JoinPredicate,
    MultiBlockQuery,
    PAPER_QUERY_ORDER,
    Query,
    TableRef,
    single_block,
    tpch_query,
)
from repro.workload import TestCase, WorkloadGenerator

__version__ = "1.2.0"

__all__ = [
    "ALL_OBJECTIVES",
    "AlgorithmSpec",
    "AsyncOptimizerServer",
    "CatalogError",
    "Column",
    "CostModel",
    "CostModelError",
    "CostParams",
    "DataType",
    "DeadlineScheduler",
    "DEFAULT_CONFIG",
    "DEFAULT_PARAMS",
    "FAST_CONFIG",
    "FilterPredicate",
    "INFINITY",
    "Index",
    "InvalidPrecisionError",
    "JoinMethod",
    "JoinPlan",
    "JoinPredicate",
    "MultiBlockQuery",
    "MultiObjectiveOptimizer",
    "Objective",
    "OptimizationRequest",
    "OptimizationResult",
    "OptimizerConfig",
    "OptimizerError",
    "OptimizerService",
    "PAPER_QUERY_ORDER",
    "Plan",
    "PlanCache",
    "Preferences",
    "Query",
    "QueryModelError",
    "ReproError",
    "RequestMetrics",
    "RequestValidationError",
    "SERIAL_CONFIG",
    "Schema",
    "ScanMethod",
    "ScanPlan",
    "ServerResponse",
    "ServerThread",
    "ServiceMetrics",
    "ServingMetrics",
    "Table",
    "TableRef",
    "TestCase",
    "WorkerPool",
    "WorkloadGenerator",
    "algorithm_specs",
    "available_algorithms",
    "build_schema",
    "exact_moqo",
    "get_algorithm",
    "ira",
    "minimum_cost",
    "parse_objective",
    "register_algorithm",
    "relative_cost",
    "rta",
    "select_best",
    "selinger",
    "single_block",
    "tpch_query",
    "tpch_schema",
    "__version__",
]
