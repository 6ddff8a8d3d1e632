"""Batch sharding: partition a batch of requests across workers.

:meth:`ShardPlanner.partition_requests` groups a batch of requests by
their canonical fingerprint. Requests with the same fingerprint land in
the same group, and each group executes sequentially on one worker, so
repeats within a batch hit that worker's plan cache instead of being
optimized twice in parallel.

One query block is never split across workers: the single-pass DP's
approximate-dominance pruning depends on insertion order, and the
request-level partition already delivers the throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import OptimizerConfig
from repro.core.request import OptimizationRequest
from repro.exceptions import OptimizerError


@dataclass(frozen=True)
class ShardPlanner:
    """Decides how a batch is partitioned across ``num_shards`` workers."""

    num_shards: int = 2

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise OptimizerError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )

    def shard_of(self, fingerprint: str) -> int:
        """Deterministic shard index for one request fingerprint."""
        return int(fingerprint[:16], 16) % self.num_shards

    def partition_requests(
        self,
        requests: Sequence[OptimizationRequest],
        default_config: OptimizerConfig | None = None,
    ) -> list[list[int]]:
        """Group batch positions by fingerprint shard.

        Returns non-empty groups of indices into ``requests``; each
        group is meant to execute sequentially on one worker, so equal
        requests deduplicate against that worker's plan cache.
        """
        groups: list[list[int]] = [[] for _ in range(self.num_shards)]
        for position, request in enumerate(requests):
            fingerprint = request.fingerprint(default_config)
            groups[self.shard_of(fingerprint)].append(position)
        return [group for group in groups if group]
