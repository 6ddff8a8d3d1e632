"""Process-pool backend: warm, *supervised* worker processes.

The GIL serializes the thread-pool backend — the paper's approximation
schemes are CPU-bound Python dynamic programs, so threads only overlap
their bookkeeping, never their real work. :class:`WorkerPool` runs
requests in separate processes instead: each worker is a fresh
interpreter (spawn start method — safe regardless of parent threads,
and identical behavior on every platform) initialized once with the
service's schema/config/params, after which it stays warm and reuses
its algorithm registry, cost model and plan cache across requests.

Each dispatch carries one request (:meth:`WorkerPool.execute_one`); the
owning :class:`~repro.core.service.OptimizerService` runs a batch as
concurrent dispatches from a thread fan-out. Results and per-request
:class:`RequestMetrics` ship back pickled; the service merges the
records into its :class:`ServiceMetrics`, so observability is identical
across backends.

**Supervision.** A single SIGKILLed worker poisons a
``ProcessPoolExecutor`` permanently: every in-flight future raises
``BrokenProcessPool`` and the executor refuses new work. The pool turns
that into a counted, recoverable event instead of a terminal one:

* every dispatch records the executor *generation* it was submitted
  under; when an await observes an infrastructure failure, the first
  observer rebuilds the executor (terminating leftover processes
  best-effort) and bumps the generation — concurrent observers see the
  bump and skip the rebuild;
* the failed dispatch is re-submitted **at most once** on the current
  executor, with any injected chaos fault stripped so a re-dispatch
  never replays the fault that killed the first attempt;
* an optional per-dispatch ``heartbeat_s`` bounds how long an await
  will wait on a worker — a stuck worker (the failure SIGKILL cannot
  model) is treated as dead: pool respawned, dispatch re-sent.

Only *infrastructure* failures trigger this path (broken pool,
heartbeat timeout, cancelled queue entries after a respawn, pickling
failures, injected :class:`ChaosError`); real optimizer exceptions
propagate to the caller unchanged. When the re-dispatch also fails the
await raises :class:`~repro.exceptions.WorkerCrashError`, the signal
the service's retry/degradation ladder keys on.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

from repro.catalog.schema import Schema
from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.core.instrumentation import RequestMetrics
from repro.core.request import OptimizationRequest
from repro.core.result import OptimizationResult
from repro.cost.postgres_params import DEFAULT_PARAMS, CostParams
from repro.exceptions import WorkerCrashError
from repro.obs.trace import Span, TraceContext, active_tracer
from repro.parallel.worker import (
    WorkerSetup,
    execute_request,
    initialize_worker,
    ping,
)
from repro.resilience.chaos import ChaosError, ChaosInjector

#: Failures that mean "the pool (or this dispatch's transport) broke",
#: never "the optimizer rejected the request".
_TRANSIENT_EXCEPTIONS = (
    BrokenProcessPool,
    FuturesTimeoutError,
    CancelledError,
    pickle.PicklingError,
    ChaosError,
)

#: The subset that also means worker processes must be replaced (a mere
#: executor exception or unpicklable result leaves the pool healthy).
_RESPAWN_EXCEPTIONS = (BrokenProcessPool, FuturesTimeoutError)


def usable_cpu_count() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        import os

        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return multiprocessing.cpu_count()


def default_worker_count() -> int:
    """Default worker-process count: usable CPUs, capped at 8 (matching
    the thread backend's cap)."""
    return max(1, min(8, usable_cpu_count()))


class _Submission:
    """One supervised dispatch: enough state to re-send it once."""

    __slots__ = ("fn", "args", "clean_args", "future", "generation",
                 "redispatched")

    def __init__(self, fn, args, clean_args, future, generation) -> None:
        self.fn = fn
        self.args = args
        self.clean_args = clean_args
        self.future = future
        self.generation = generation
        self.redispatched = False


class WorkerPool:
    """A warm, supervised pool of optimizer worker processes.

    The pool is cheap to keep around and expensive to start (each spawn
    imports the package and rebuilds the cost model), so services hold
    one pool for their lifetime rather than one per batch. ``warm_up``
    forces all workers to finish initializing — call it before timing
    anything against the pool.

    ``heartbeat_s`` (default off) bounds each dispatch's wait: a worker
    silent for that long is presumed stuck, the pool is respawned and
    the dispatch re-sent once. ``chaos`` injects deterministic faults
    into dispatches (tests/CI only; ``None`` is the zero-overhead
    production path). ``on_event`` receives ``"worker_failure"`` /
    ``"respawn"`` / ``"redispatch"`` notifications — the hook the
    owning service uses to feed its metrics.
    """

    def __init__(
        self,
        schema: Schema,
        config: OptimizerConfig = DEFAULT_CONFIG,
        params: CostParams = DEFAULT_PARAMS,
        *,
        workers: int | None = None,
        cache_size: int = 256,
        scheduler=None,
        extra_initializer=None,
        heartbeat_s: float | None = None,
        chaos: ChaosInjector | None = None,
        on_event: Callable[[str], None] | None = None,
    ) -> None:
        self.workers = workers if workers is not None else default_worker_count()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if heartbeat_s is not None and heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        self.heartbeat_s = heartbeat_s
        self.chaos = chaos
        self._on_event = on_event
        self._setup = WorkerSetup(
            schema=schema,
            config=config,
            params=params,
            cache_size=cache_size,
            scheduler=scheduler,
            extra_initializer=extra_initializer,
        )
        self._lock = threading.Lock()
        self._generation = 0  # guarded-by: _lock
        self._executor = self._build_executor()  # guarded-by: _lock
        #: Lifetime supervision counters (read via :meth:`stats`).
        self.respawns = 0  # guarded-by: _lock
        self.redispatches = 0  # guarded-by: _lock
        self.worker_failures = 0  # guarded-by: _lock

    def _build_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=initialize_worker,
            initargs=(self._setup,),
        )

    # ------------------------------------------------------------------
    # Supervision internals
    # ------------------------------------------------------------------
    def _emit(self, event: str) -> None:
        if self._on_event is not None:
            self._on_event(event)

    def _respawn(self, seen_generation: int) -> bool:
        """Replace the executor; only the first observer of a given
        generation's failure actually rebuilds (the guard), everyone
        else returns immediately and re-dispatches on the new pool."""
        with self._lock:
            if self._generation != seen_generation:
                return False
            old = self._executor
            tracer = active_tracer()
            handle = (
                tracer.begin("respawn", "respawn", generation=seen_generation)
                if tracer is not None
                else None
            )
            try:
                # A stuck (heartbeat-timeout) worker never drains its
                # queue; terminate the old processes so shutdown below
                # cannot block on them.
                processes = getattr(old, "_processes", None) or {}
                for process in list(processes.values()):
                    try:
                        process.terminate()
                    except Exception:
                        pass
                old.shutdown(wait=False, cancel_futures=True)
                self._executor = self._build_executor()
                self._generation += 1
                self.respawns += 1
            finally:
                if handle is not None:
                    handle.finish()
        self._emit("respawn")
        return True

    def _send(self, fn, args) -> Future:  # holds-lock: _lock
        """Submit to the current executor.

        An executor that a concurrent dispatch's dead worker already
        broke refuses new work until someone respawns it; that refusal
        comes back as a failed future, so :meth:`_await` recovers it
        like any other broken dispatch.
        """
        try:
            return self._executor.submit(fn, *args)
        except BrokenProcessPool as exc:
            future: Future = Future()
            future.set_exception(exc)
            return future

    def _submit(self, fn, args, clean_args) -> _Submission:
        with self._lock:
            generation = self._generation
            future = self._send(fn, args)
        return _Submission(fn, args, clean_args, future, generation)

    def _wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the executor has an initialized worker.

        Called between a respawn and the re-dispatch when a heartbeat is
        configured: a fresh executor spends seconds spawning and
        importing, and counting that against the re-dispatch's heartbeat
        would misdiagnose a healthy pool as stuck (turning one injected
        hang into a spurious ``WorkerCrashError``). The probe is any
        picklable no-op — it cannot run before the worker initializer
        finishes, so its completion proves readiness. Failures fall
        through: the re-dispatch itself will surface them.
        """
        with self._lock:
            executor = self._executor
        try:
            executor.submit(int).result(timeout=timeout)
        except Exception:
            pass

    def _redispatch(self, submission: _Submission) -> None:
        """Re-send a failed dispatch once, chaos faults stripped."""
        with self._lock:
            generation = self._generation
            future = self._send(submission.fn, submission.clean_args)
            self.redispatches += 1
        submission.future = future
        submission.generation = generation
        submission.redispatched = True
        self._emit("redispatch")

    def _await(self, submission: _Submission):
        """Await a dispatch, surviving exactly one infrastructure
        failure via respawn (when needed) + re-dispatch."""
        while True:
            try:
                return submission.future.result(timeout=self.heartbeat_s)
            except _TRANSIENT_EXCEPTIONS as exc:
                with self._lock:
                    self.worker_failures += 1
                self._emit("worker_failure")
                if isinstance(exc, _RESPAWN_EXCEPTIONS):
                    self._respawn(submission.generation)
                    if self.heartbeat_s is not None:
                        self._wait_ready()
                if submission.redispatched:
                    raise WorkerCrashError(
                        "worker dispatch failed after one re-dispatch: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                tracer = active_tracer()
                if tracer is not None:
                    with tracer.span(
                        "redispatch", "retry", cause=type(exc).__name__
                    ):
                        self._redispatch(submission)
                else:
                    self._redispatch(submission)

    # ------------------------------------------------------------------
    def warm_up(self, timeout: float = 60.0) -> list[str]:
        """Block until *every* worker process is initialized.

        The probes rendezvous at a barrier sized to the pool, so a fast
        worker cannot answer its siblings' probes — all ``workers``
        names come back distinct, each from a fully initialized worker.
        A worker that fails to come up within ``timeout`` seconds
        surfaces as a ``BrokenBarrierError`` instead of a silent hang.
        """
        with multiprocessing.Manager() as manager:
            barrier = manager.Barrier(self.workers)
            with self._lock:
                executor = self._executor
            futures = [
                executor.submit(ping, barrier, timeout)
                for _ in range(self.workers)
            ]
            return [future.result() for future in futures]

    # ------------------------------------------------------------------
    def _submit_request(
        self,
        request: OptimizationRequest,
        deadline_epoch: float | None,
        trace_ctx: TraceContext | None,
    ) -> _Submission:
        fault = self.chaos.draw_dispatch() if self.chaos is not None else None
        return self._submit(
            execute_request,
            (request, deadline_epoch, trace_ctx, fault),
            (request, deadline_epoch, trace_ctx, None),
        )

    def execute_one(
        self,
        request: OptimizationRequest,
        deadline_epoch: float | None = None,
        *,
        trace_ctx: TraceContext | None = None,
    ) -> tuple[OptimizationResult, RequestMetrics, list[Span]]:
        """Execute one request on a worker, blocking until it finishes.

        :meth:`OptimizerService.submit` (and so every request of an
        ``optimize_many`` batch) routes cache misses here under the
        process backend; callers run several at once from threads.
        ``trace_ctx`` parents the worker's spans under the caller's
        span; they ship back in the third slot. Supervised: survives
        one worker death / hang per dispatch.
        """
        return self._await(
            self._submit_request(request, deadline_epoch, trace_ctx)
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Supervision counters (point-in-time, safe to serialize)."""
        with self._lock:
            snapshot: dict[str, object] = {
                "workers": self.workers,
                "generation": self._generation,
                "respawns": self.respawns,
                "redispatches": self.redispatches,
                "worker_failures": self.worker_failures,
            }
        if self.chaos is not None:
            snapshot["chaos"] = self.chaos.snapshot()
        return snapshot

    def shutdown(self) -> None:
        """Terminate the worker processes (idempotent)."""
        with self._lock:
            executor = self._executor
        executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
