"""Parallel optimization backend: process pools and deadlines.

Two cooperating pieces turn the single-process optimizer into a
multi-core service backend:

* :class:`WorkerPool` — warm, spawn-safe worker processes, each with
  its own algorithm registry, cost model and plan cache; one request
  per dispatch, and its result and per-request metrics ship back to
  the parent.
* :class:`DeadlineScheduler` — end-to-end per-request deadlines:
  queueing counts, near-deadline requests reroute to the anytime IRA,
  and missed deadlines surface as ``OptimizationResult.deadline_hit``.

:class:`~repro.core.service.OptimizerService` wires these together
behind ``backend="processes"``; the pieces are also usable directly.
"""

from repro.parallel.deadline import DeadlineScheduler, ScheduledRequest
from repro.parallel.pool import (
    WorkerPool,
    default_worker_count,
    usable_cpu_count,
)
from repro.parallel.worker import WorkerSetup

__all__ = [
    "DeadlineScheduler",
    "ScheduledRequest",
    "WorkerPool",
    "WorkerSetup",
    "default_worker_count",
    "usable_cpu_count",
]
