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
"""

from __future__ import annotations

import time as _time

from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.core.dp import DPRun, deadline_exceeded, strict_closure, strip_entries
from repro.core.instrumentation import Counters
from repro.core.preferences import Preferences
from repro.core.result import OptimizationResult
from repro.core.select_best import select_best
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
    start = _time.perf_counter()
    if deadline is None and config.timeout_seconds is not None:
        deadline = start + config.timeout_seconds
    counters = Counters()
    run = DPRun(
        query=query,
        cost_model=cost_model,
        config=config,
        indices=preferences.indices,
        weights=preferences.weights,
        alpha_internal=1.0,
        deadline=deadline,
        counters=counters,
        extra_indices=strict_closure(preferences.indices) if strict else (),
        include_rows=strict,
    )
    sets = run.run()
    full_mask = run.graph.full_mask
    final_set = strip_entries(sets[full_mask], run.projection_width)
    best = select_best(final_set, preferences)
    elapsed_ms = (_time.perf_counter() - start) * 1000.0
    return OptimizationResult(
        algorithm="exa",
        query_name=query.name,
        preferences=preferences,
        plan=best[1] if best else None,
        plan_cost=best[0] if best else None,
        frontier=tuple(final_set),
        optimization_time_ms=elapsed_ms,
        memory_kb=counters.memory_kb,
        pareto_last_complete=counters.pareto_last_complete,
        plans_considered=counters.plans_considered,
        candidates_vectorized=counters.candidates_vectorized,
        timed_out=counters.timed_out,
        alpha=1.0,
        deadline_hit=counters.timed_out or deadline_exceeded(deadline),
        phase_ms=counters.phase_ms() if config.phase_timers else {},
    )
