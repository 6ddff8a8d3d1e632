"""Seeded request mixes of the three workloads.

Every mix is a pure function of ``(seed, seconds)``: the same seed gives
the same requests in the same order. What a seed changes is the weights
and the order; the amount of optimizer work per run is fixed by design,
so two seeds measure the same work (see README.md, "Why the mixes are
stratified").
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

from repro import (
    DEFAULT_CONFIG,
    FAST_CONFIG,
    OptimizationRequest,
    Preferences,
)
from repro.cost.objectives import ALL_OBJECTIVES, Objective
from repro.query.tpch_queries import tpch_query

#: Nominal length (s) of one pass of each closed-loop mix on the
#: reference box (2 cores); ``--seconds`` buys ``round(seconds /
#: PASS_SECONDS)`` passes, at least one.
PASS_SECONDS = {"rta-9obj": 27.0, "rta-fullspace": 15.0}

# rta-9obj: (query, alpha) -> ops per pass. Sorted by latency the
# classes are q10@2 < q10@1.5 < q2@2 < q2@1.5 < q9@2 < q7@2 < q9@1.5
# < q7@1.5, so the median op sits in the middle of the q2@1.5 class
# (ranks 21-40 of 60; q2@2 runs about a fifth faster) and the
# 11th-slowest op, the tail, is a q7@1.5 op (ranks 47-60).
NINE_OBJ_PASS = (
    ((10, 2.0), 6),
    ((10, 1.5), 6),
    ((2, 2.0), 8),
    ((2, 1.5), 20),
    ((9, 2.0), 2),
    ((7, 2.0), 2),
    ((9, 1.5), 2),
    ((7, 1.5), 14),
)

# rta-fullspace: every 3-of-9 objective subset on every query, each
# (query, subset) cell assigned to one of the four algorithm variants
# by a fixed rotation, so a pass is 6 x 84 = 504 ops and each variant
# gets 21 subsets per query.
FULLSPACE_QUERIES = (2, 3, 5, 7, 9, 10)
FULLSPACE_VARIANTS = (("rta", 1.15), ("rta", 1.5), ("rta", 2.0), ("ira", 1.5))

# http-zipf: one request class (q7, three objectives, RTA(1.5)) whose
# distinct members differ only in their weights, so every miss does the
# same DP work. Popularity is Zipf(ZIPF_S) over ZIPF_POOL members.
HTTP_QUERY = 7
HTTP_OBJECTIVES = (Objective.TOTAL_TIME, Objective.IO_LOAD, Objective.TUPLE_LOSS)
HTTP_ALPHA = 1.5
ZIPF_POOL = 4096
ZIPF_S = 0.75
#: Plan-cache capacity of ``repro serve`` (its ``--cache-size`` default).
CACHE_SIZE = 256
#: Seconds of the open loop sent, checked and left untimed before the
#: timed phase: the first second of a fresh open loop ran slow.
LEAD_S = 2.0
#: Most popular pool members sent once each during set-up.
WARM_HEAD = 64
#: Fixed offered load (requests per second): a third of the 42/s that
#: two closed-loop connections sustained on the reference box. At half
#: (21/s), a host slowed by half made a miss outlast the gap between
#: sends, and queues built up.
HTTP_RATE = 14.0


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: the request and its class label."""

    request: OptimizationRequest
    label: str


def _stratified(rng: random.Random, count: int, dims: int) -> list[tuple[float, ...]]:
    """``count`` weight vectors uniform on [0, 1], Latin-hypercube style.

    Each weight is uniform on [0, 1], as in the paper's Section 8; each
    dimension's ``count`` values are one per stratum ``[k/count,
    (k+1)/count)``, shuffled. Independent draws made the geometric mean
    of the plans' weighted cost swing by 16% (quartile spread) between
    seeds on 60 ops; stratified draws keep the run's weight distribution
    the same for every seed.
    """
    columns = []
    for _ in range(dims):
        column = [(k + rng.random()) / count for k in range(count)]
        rng.shuffle(column)
        columns.append(column)
    return list(zip(*columns))


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def nine_objective_ops(seed: int, seconds: float) -> list[Op]:
    """The ``rta-9obj`` mix: all nine objectives, RTA, FAST plan space."""
    rng = random.Random(seed)
    ops: list[Op] = []
    objectives = tuple(ALL_OBJECTIVES)
    for _ in range(passes_for("rta-9obj", seconds)):
        cells = [cell for cell, count in NINE_OBJ_PASS for _ in range(count)]
        rng.shuffle(cells)
        weights = _stratified(rng, len(cells), len(objectives))
        for (query, alpha), vector in zip(cells, weights):
            ops.append(Op(
                OptimizationRequest(
                    query=tpch_query(query),
                    preferences=Preferences(objectives=objectives, weights=vector),
                    algorithm="rta",
                    alpha=alpha,
                ),
                f"q{query}@{alpha:g}",
            ))
    return ops


def nine_objective_warmup() -> list[OptimizationRequest]:
    """One request per distinct query at the mix's cheapest precision."""
    objectives = tuple(ALL_OBJECTIVES)
    return [
        OptimizationRequest(
            query=tpch_query(query),
            preferences=Preferences(objectives=objectives, weights=(0.5,) * 9),
            algorithm="rta",
            alpha=2.0,
        )
        for query in sorted({q for (q, _), _ in NINE_OBJ_PASS})
    ]


def fullspace_ops(seed: int, seconds: float) -> list[Op]:
    """The ``rta-fullspace`` mix: 3-objective subsets, full plan space."""
    rng = random.Random(seed)
    subsets = list(itertools.combinations(ALL_OBJECTIVES, 3))
    ops: list[Op] = []
    for _ in range(passes_for("rta-fullspace", seconds)):
        cells = [
            (query, subset, FULLSPACE_VARIANTS[(index + position) % 4])
            for position, query in enumerate(FULLSPACE_QUERIES)
            for index, subset in enumerate(subsets)
        ]
        rng.shuffle(cells)
        weights = _stratified(rng, len(cells), 3)
        for (query, subset, (algorithm, alpha)), vector in zip(cells, weights):
            ops.append(Op(
                OptimizationRequest(
                    query=tpch_query(query),
                    preferences=Preferences(objectives=subset, weights=vector),
                    algorithm=algorithm,
                    alpha=alpha,
                ),
                f"q{query}/{algorithm}@{alpha:g}",
            ))
    return ops


def fullspace_warmup() -> list[OptimizationRequest]:
    """One RTA(2) request per distinct query on the first subset."""
    subset = tuple(ALL_OBJECTIVES[:3])
    return [
        OptimizationRequest(
            query=tpch_query(query),
            preferences=Preferences(objectives=subset, weights=(0.5,) * 3),
            algorithm="rta",
            alpha=2.0,
        )
        for query in FULLSPACE_QUERIES
    ]


CONFIGS = {"rta-9obj": FAST_CONFIG, "rta-fullspace": DEFAULT_CONFIG}


class ZipfPool:
    """The ``http-zipf`` pool: member ``rank`` is the rank-th most popular."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.weights = _stratified(rng, ZIPF_POOL, len(HTTP_OBJECTIVES))
        self._cumulative = list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPF_S for rank in range(ZIPF_POOL)
        ))
        self._rng = rng

    def draw(self, count: int) -> list[int]:
        """``count`` member ranks drawn by popularity, in random order.

        The draws are stratified like the weights: one uniform value
        per stratum ``[k/count, (k+1)/count)`` of the popularity CDF, so
        every seed sends the head and the tail of the pool in the same
        proportions and the cache's hit share barely moves with the seed.
        """
        total = self._cumulative[-1]
        (column,) = zip(*_stratified(self._rng, count, 1))
        return [bisect.bisect(self._cumulative, u * total) for u in column]

    def payload(self, rank: int) -> dict:
        """Wire form of member ``rank`` (TPC-H shorthand query)."""
        return {
            "query": {"kind": "tpch", "number": HTTP_QUERY},
            "preferences": {
                "objectives": [o.name.lower() for o in HTTP_OBJECTIVES],
                "weights": list(self.weights[rank]),
            },
            "algorithm": "rta",
            "alpha": HTTP_ALPHA,
        }

    def request(self, rank: int) -> OptimizationRequest:
        """Library form of member ``rank``, for checking responses."""
        return OptimizationRequest(
            query=tpch_query(HTTP_QUERY),
            preferences=Preferences(
                objectives=HTTP_OBJECTIVES, weights=self.weights[rank]
            ),
            algorithm="rta",
            alpha=HTTP_ALPHA,
        )
