"""The paper's contribution: EXA, RTA, IRA and supporting machinery,
plus the service-oriented front end (requests, registry, service)."""

from repro.core.baselines import idp_moqo, weighted_sum_baseline
from repro.core.dp import strict_closure
from repro.core.exa import exact_moqo
from repro.core.instrumentation import (
    Counters,
    RequestMetrics,
    ServiceMetrics,
)
from repro.core.ira import ira, iteration_precision
from repro.core.metrics import hypervolume, normalized_hypervolume
from repro.core.optimizer import (
    MultiObjectiveOptimizer,
    combine_block_costs,
)
from repro.core.pareto import (
    coverage_factor,
    is_approximate_pareto_set,
    is_pareto_set,
)
from repro.core.preferences import INFINITY, Preferences, relative_cost
from repro.core.pruning import AggressivePlanSet, PlanSet, SingleBestPlanSet
from repro.core.registry import (
    AlgorithmSpec,
    algorithm_specs,
    available_algorithms,
    get_algorithm,
    register_algorithm,
)
from repro.core.request import OptimizationRequest
from repro.core.result import OptimizationResult
from repro.core.rta import internal_precision, rta
from repro.core.select_best import select_best
from repro.core.selinger import minimum_cost, selinger
from repro.core.service import OptimizerService, PlanCache

__all__ = [
    "AggressivePlanSet",
    "AlgorithmSpec",
    "Counters",
    "INFINITY",
    "MultiObjectiveOptimizer",
    "OptimizationRequest",
    "OptimizationResult",
    "OptimizerService",
    "PlanCache",
    "PlanSet",
    "Preferences",
    "RequestMetrics",
    "ServiceMetrics",
    "SingleBestPlanSet",
    "algorithm_specs",
    "available_algorithms",
    "combine_block_costs",
    "coverage_factor",
    "exact_moqo",
    "get_algorithm",
    "hypervolume",
    "idp_moqo",
    "internal_precision",
    "normalized_hypervolume",
    "register_algorithm",
    "strict_closure",
    "weighted_sum_baseline",
    "ira",
    "is_approximate_pareto_set",
    "is_pareto_set",
    "iteration_precision",
    "minimum_cost",
    "relative_cost",
    "rta",
    "select_best",
    "selinger",
]
