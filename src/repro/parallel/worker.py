"""Worker-process side of the parallel backend.

Each pool worker holds one warm :class:`~repro.core.service.OptimizerService`
in a module-level global, built once by the pool initializer: its own
algorithm registry (re-created by importing :mod:`repro.core.registry`
in the fresh interpreter — spawn-safe, nothing is inherited), its own
cost model, and its own plan cache. Requests arrive pickled, execute
against the warm service, and ship an :class:`OptimizationResult` plus
the :class:`RequestMetrics` record back to the parent, which merges the
records into the parent's :class:`ServiceMetrics`.

Everything in this module that the parent references for the pool
(initializer and task functions) is a top-level function, so it pickles
by qualified name under the spawn start method.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from dataclasses import dataclass
from typing import Callable

from repro.catalog.schema import Schema
from repro.config import OptimizerConfig
from repro.core.instrumentation import RequestMetrics
from repro.core.request import OptimizationRequest
from repro.core.result import OptimizationResult
from repro.cost.postgres_params import CostParams
from repro.obs.trace import Span, TraceContext, Tracer
from repro.parallel.deadline import DeadlineScheduler
from repro.resilience.chaos import Fault, apply_fault


@dataclass(frozen=True)
class WorkerSetup:
    """Everything a worker needs to build its warm service (picklable).

    ``extra_initializer`` runs once per worker after the service is
    built — the hook for registering custom algorithms in the worker's
    registry (it must be a top-level, importable function).
    """

    schema: Schema
    config: OptimizerConfig
    params: CostParams
    cache_size: int = 256
    scheduler: DeadlineScheduler | None = None
    extra_initializer: Callable[[], None] | None = None


#: One warm service per worker process; ``None`` until initialized.
_WORKER_SERVICE = None


def initialize_worker(setup: WorkerSetup) -> None:
    """Pool initializer: build this process's warm optimizer service."""
    global _WORKER_SERVICE
    # Imported here, not at module top: the parent passes this function
    # to the executor, and the service module imports this one.
    from repro.core.service import OptimizerService

    _WORKER_SERVICE = OptimizerService(
        setup.schema,
        setup.config,
        setup.params,
        cache_size=setup.cache_size,
        backend="inline",
        scheduler=setup.scheduler,
    )
    if setup.extra_initializer is not None:
        setup.extra_initializer()


def _service():
    if _WORKER_SERVICE is None:
        raise RuntimeError(
            "worker process not initialized; tasks from this module must "
            "run in a pool created with initialize_worker"
        )
    return _WORKER_SERVICE


def worker_name() -> str:
    """Name of the current worker process (for metrics attribution)."""
    return multiprocessing.current_process().name


def ping(barrier=None, timeout: float = 60.0) -> str:
    """Warm-up probe; returns the worker name once the worker is live.

    With a barrier (a ``multiprocessing.Manager().Barrier`` proxy of
    pool size), the probe additionally waits until *every* worker is
    simultaneously inside a probe — a worker runs one task at a time,
    so N parties meeting at the barrier proves N distinct workers have
    finished initializing (a fast worker cannot drain its siblings'
    probes).
    """
    _service()
    if barrier is not None:
        barrier.wait(timeout)
    return worker_name()


# ----------------------------------------------------------------------
# Task entry points (run inside workers)
# ----------------------------------------------------------------------
def execute_request(
    request: OptimizationRequest,
    deadline_epoch: float | None = None,
    trace_ctx: TraceContext | None = None,
    fault: Fault | None = None,
) -> tuple[OptimizationResult, RequestMetrics, list[Span]]:
    """Execute one request on this worker's warm service.

    The worker service's deadline scheduler (if the pool was built with
    one) resolves the remaining budget inside ``submit`` — at dequeue
    time, so time the request spent queueing in the parent and in the
    pool's call queue counts against its deadline. The worker's plan
    cache keys on the *original* request fingerprint, like the
    parent's.

    ``trace_ctx`` (when the parent is tracing) parents this worker's
    spans under the caller's span; the finished spans ship back pickled
    in the third tuple slot for the parent to ingest. Without a
    context, tracing stays off — the default, zero-overhead path.

    ``fault`` is a chaos injection drawn in the parent: applied before
    any real work so a ``kill`` dies without side effects (the pool's
    supervisor strips faults when it re-dispatches).
    """
    poison = apply_fault(fault)
    if poison is not None:
        return poison  # unpicklable: the 'pickle' fault firing
    service = _service()
    captured: list[RequestMetrics] = []
    capture = captured.append
    service.add_hook(capture)
    try:
        if trace_ctx is None:
            result = service.submit(request, deadline_epoch=deadline_epoch)
            spans: list[Span] = []
        else:
            tracer = Tracer()
            with tracer.activate(), tracer.adopt(trace_ctx):
                result = service.submit(
                    request, deadline_epoch=deadline_epoch
                )
            spans = tracer.drain()
    finally:
        service.remove_hook(capture)
    record = dataclasses.replace(captured[-1], worker=worker_name())
    return result, record, spans

