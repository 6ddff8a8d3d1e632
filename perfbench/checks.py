"""Output checks applied to every returned plan.

Each check returns a list of problems; an empty list means the output
is correct. A problem fails the run (``"correct": false``).
"""

from __future__ import annotations

import math

from repro.core.result import OptimizationResult
from repro.plans.plan import ScanPlan


def weighted(cost, weights) -> float:
    """The weighted dot product, summed in objective order."""
    total = 0.0
    for c, w in zip(cost, weights):
        total += c * w
    return total


def _cost_problems(cost, weights, reported, width) -> list[str]:
    if cost is None or len(cost) != width:
        return [f"cost vector {cost!r} does not have {width} entries"]
    if not all(math.isfinite(c) for c in cost):
        return [f"cost vector {cost!r} is not finite"]
    expected = weighted(cost, weights)
    if reported is None or not math.isclose(reported, expected, rel_tol=1e-9):
        return [f"weighted cost {reported!r} != weights . cost = {expected!r}"]
    return []


def _plan_aliases(plan) -> list[str]:
    return [node.alias for node in plan.walk() if isinstance(node, ScanPlan)]


def check_result(request, result: OptimizationResult) -> list[str]:
    """Problems with a library result for ``request``."""
    problems: list[str] = []
    if result.timed_out or result.degraded or result.deadline_hit:
        problems.append(
            f"{result.query_name}: timed_out={result.timed_out} "
            f"degraded={result.degraded} deadline_hit={result.deadline_hit}"
        )
    blocks = request.query.blocks
    block_results = result.block_results or (result,)
    if len(block_results) != len(blocks):
        problems.append(
            f"{result.query_name}: {len(block_results)} block results "
            f"for {len(blocks)} blocks"
        )
    for block, block_result in zip(blocks, block_results):
        if block_result.plan is None:
            problems.append(f"{result.query_name}: block without a plan")
            continue
        aliases = _plan_aliases(block_result.plan)
        expected = sorted(ref.alias for ref in block.table_refs)
        if sorted(aliases) != expected:
            problems.append(
                f"{result.query_name}: plan joins {sorted(aliases)}, "
                f"query has {expected}"
            )
    preferences = request.preferences
    problems.extend(
        f"{result.query_name}: {problem}"
        for problem in _cost_problems(
            result.plan_cost, preferences.weights, result.weighted_cost,
            len(preferences.objectives),
        )
    )
    return problems


def _wire_aliases(node: dict) -> list[str]:
    if node.get("node") == "scan":
        return [node["alias"]]
    return _wire_aliases(node["left"]) + _wire_aliases(node["right"])


def check_wire_result(
    payload: dict, expected_fingerprint: str, request
) -> list[str]:
    """Problems with one ``POST /optimize`` response envelope."""
    if payload.get("code") != "ok":
        return [f"response code {payload.get('code')!r}: {payload.get('error')}"]
    if payload.get("fingerprint") != expected_fingerprint:
        return [
            f"fingerprint {payload.get('fingerprint')!r} is not the "
            f"request's {expected_fingerprint!r}"
        ]
    result = payload.get("result") or {}
    metrics = result.get("metrics", {})
    problems = [
        f"{flag} is set"
        for flag in ("timed_out", "degraded", "deadline_hit")
        if metrics.get(flag)
    ]
    if result.get("plan") is None:
        return problems + ["response carries no plan"]
    aliases = sorted(_wire_aliases(result["plan"]))
    expected = sorted(ref.alias for ref in request.query.main_block.table_refs)
    if aliases != expected:
        problems.append(f"plan joins {aliases}, query has {expected}")
    problems.extend(_cost_problems(
        result.get("plan_cost"), request.preferences.weights,
        result.get("weighted_cost"), len(request.preferences.objectives),
    ))
    return problems
