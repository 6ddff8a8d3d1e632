"""EXA — the exact multi-objective algorithm of Ganguly et al. (Algorithm 1).

A generalization of Selinger-style dynamic programming: the pruning
metric is Pareto dominance over the selected objectives instead of a
single scalar, so each table set stores a full Pareto plan set. The
final plan is selected from the Pareto set of the complete table set,
considering weights and bounds.

The paper's experimental finding (Section 5) is that this is
prohibitively expensive for more than a few objectives — the number of
Pareto plans per table set grows with the search-space size, far beyond
the ``2^l`` bound assumed in the original publication.

The EXA is the RTA at precision 1 — ``internal_precision(1.0, n)`` is
exactly 1, so approximate dominance becomes plain dominance — and runs
through the RTA's entry point, :func:`repro.core.rta.optimize_block`. Unlike
the RTA it accepts bounds: the exact Pareto set always contains the
optimal plan within them, which ``SelectBest`` then picks.
"""

from __future__ import annotations

from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.core.preferences import Preferences
from repro.core.result import OptimizationResult
from repro.core.rta import optimize_block
from repro.cost.model import CostModel
from repro.query.query import Query


def exact_moqo(
    query: Query,
    cost_model: CostModel,
    preferences: Preferences,
    config: OptimizerConfig = DEFAULT_CONFIG,
    deadline: float | None = None,
    strict: bool = False,
) -> OptimizationResult:
    """Optimize one query block exactly (1-approximate solution).

    ``deadline`` (a ``time.perf_counter`` instant) overrides the
    config-derived timeout; the facade uses it to share one deadline
    across the blocks of a multi-block query.

    ``strict`` enables the strict pruning closure (see
    :func:`repro.core.dp.strict_closure`): the paper's plain
    cost-dominance pruning can discard plans whose lower output
    cardinality would have paid off higher up the plan tree once
    sampling makes cardinality plan-dependent; strict mode adds the
    dependency dimensions to the pruning key, restoring the optimality
    guarantee for arbitrary objective subsets at higher cost.
    """
    return optimize_block(
        "exa", query, cost_model, preferences, 1.0, config, deadline,
        alpha=1.0, strict=strict,
    )
