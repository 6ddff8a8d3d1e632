"""Batch optimizer service: plan cache, pluggable backends, metrics.

The paper motivates many-objective query optimization with server
scenarios — a multi-tenant server rationing resources across concurrent
user queries. :class:`OptimizerService` is the request/response front
end for that setting:

* :meth:`OptimizerService.submit` executes one
  :class:`~repro.core.request.OptimizationRequest`, consulting a
  memoizing plan cache keyed by the request's canonical fingerprint
  (query structure, canonicalized preferences, algorithm, precision,
  effective configuration — never tags);
* cache misses run on a pluggable backend:

  - ``"inline"`` — in the calling thread;
  - ``"threads"`` — in the calling thread too, with batches fanned out
    over a thread pool; cheap, but the GIL serializes the CPU-bound
    optimization work, so it only overlaps bookkeeping;
  - ``"processes"`` — on a warm :class:`~repro.parallel.pool.WorkerPool`
    of spawn-safe worker processes, each with its own registry, cost
    model and plan cache (see :mod:`repro.parallel`), guarded by a
    circuit breaker, a retry policy and a degraded fallback plan;

* :meth:`OptimizerService.optimize_many` fans a batch out over
  ``submit``'s path, preserving input order in the returned results;
  repeats within a batch run after their first occurrence, so a
  cacheable result serves them from the cache;

* per-request metrics hooks receive one
  :class:`~repro.core.instrumentation.RequestMetrics` record per
  completed request — from worker processes the records ship back
  pickled — and aggregate counters accumulate in a
  :class:`~repro.core.instrumentation.ServiceMetrics`;
* an optional :class:`~repro.parallel.deadline.DeadlineScheduler`
  enforces per-request deadlines end to end: the clock starts at batch
  admission (queueing counts), near-deadline requests reroute to the
  anytime IRA, and misses surface as ``deadline_hit`` on the result.

Timed-out and deadline-missed results are never cached: a rerun with
more budget (or on a faster machine) could do better, so serving them
from cache would pin the degraded plan.
"""

from __future__ import annotations

import contextvars
import dataclasses
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from repro.catalog.schema import Schema
from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.core.instrumentation import RequestMetrics, ServiceMetrics
from repro.core.optimizer import MultiObjectiveOptimizer
from repro.core.request import OptimizationRequest
from repro.core.result import OptimizationResult
from repro.cost.model import CostModel
from repro.cost.postgres_params import DEFAULT_PARAMS, CostParams
from repro.exceptions import OptimizerError, WorkerCrashError
from repro.obs.trace import active_tracer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.chaos import ChaosInjector, chaos_from_env
from repro.resilience.policy import DEFAULT_RETRY_POLICY, RetryPolicy

#: Callable invoked with one record per completed request.
MetricsHook = Callable[[RequestMetrics], None]

#: Where cache misses execute.
BACKENDS = ("inline", "threads", "processes")


class PlanCache:
    """Thread-safe LRU cache from request fingerprints to results.

    ``max_size <= 0`` disables caching (every lookup misses, nothing is
    stored) without callers needing a separate code path.
    """

    def __init__(self, max_size: int = 256) -> None:
        self.max_size = max_size
        self._entries: OrderedDict[str, OptimizationResult] = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self.evictions = 0  # guarded-by: _lock

    def get(self, key: str) -> OptimizationResult | None:
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
            return result

    def put(self, key: str, result: OptimizationResult) -> None:
        if self.max_size <= 0:
            return
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class OptimizerService:
    """Request/response front end over :class:`MultiObjectiveOptimizer`.

    One service owns one schema (catalog + statistics), one default
    configuration, one plan cache, one metrics aggregate and (lazily,
    for the process backend) one warm worker pool; per-request
    deviations travel inside the request (config override, deadline).

    Services with a process backend hold OS resources — use the service
    as a context manager or call :meth:`close` when done; the inline and
    thread backends need no cleanup.
    """

    def __init__(
        self,
        schema: Schema,
        config: OptimizerConfig = DEFAULT_CONFIG,
        params: CostParams = DEFAULT_PARAMS,
        *,
        cache_size: int = 256,
        metrics: ServiceMetrics | None = None,
        hooks: Iterable[MetricsHook] = (),
        backend: str = "threads",
        workers: int | None = None,
        scheduler=None,
        breaker: CircuitBreaker | None = None,
        retry_policy: RetryPolicy | None = DEFAULT_RETRY_POLICY,
        heartbeat_s: float | None = None,
        chaos: ChaosInjector | None = None,
        degraded_fallback: bool = True,
        cost_model: CostModel | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise OptimizerError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        # An injected cost model (e.g. carrying a calibration overlay
        # from repro.workloads.calibrate) drives the in-process
        # optimizer; the process backend's workers rebuild their own
        # models from (schema, config, params) and ignore it.
        self._optimizer = MultiObjectiveOptimizer(
            schema, config, params, cost_model=cost_model
        )
        self._params = params
        self.cache = PlanCache(cache_size)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._hooks: list[MetricsHook] = list(hooks)
        self.backend = backend
        self.workers = workers
        self.scheduler = scheduler
        # Resilience: the breaker/retry/fallback ladder guards process
        # dispatches (worker crashes); the other backends cannot infra-
        # fail, so services not configured for processes skip it all.
        self.retry_policy = retry_policy
        self.heartbeat_s = heartbeat_s
        self.degraded_fallback = degraded_fallback
        if backend == "processes":
            self.breaker = breaker if breaker is not None else CircuitBreaker()
            self.chaos = chaos if chaos is not None else chaos_from_env()
        else:
            self.breaker = breaker
            self.chaos = chaos
        self._pool = None  # guarded-by: _pool_lock
        self._pool_lock = threading.Lock()
        # _closed is deliberately NOT lock-annotated: writes happen under
        # _pool_lock, but the hot-path reads are benign racy flag checks
        # (a stale False only costs one extra pool round-trip).
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._optimizer.schema

    @property
    def config(self) -> OptimizerConfig:
        return self._optimizer.config

    @property
    def optimizer(self) -> MultiObjectiveOptimizer:
        """The underlying facade (for callers needing direct access)."""
        return self._optimizer

    def add_hook(self, hook: MetricsHook) -> None:
        """Register a per-request metrics hook."""
        self._hooks.append(hook)

    def remove_hook(self, hook: MetricsHook) -> None:
        """Unregister a previously added metrics hook."""
        self._hooks.remove(hook)

    # ------------------------------------------------------------------
    # Lifecycle (process backend owns worker processes)
    # ------------------------------------------------------------------
    def worker_pool(self):
        """The warm worker pool, created on first use."""
        from repro.parallel.pool import WorkerPool

        with self._pool_lock:
            if self._pool is None:
                self._pool = WorkerPool(
                    self.schema,
                    self.config,
                    self._params,
                    workers=self.workers,
                    cache_size=self.cache.max_size,
                    scheduler=self.scheduler,
                    heartbeat_s=self.heartbeat_s,
                    chaos=self.chaos,
                    on_event=self.metrics.record_resilience,
                )
            return self._pool

    def close(self) -> None:
        """Shut down the worker pool, if one was started.

        Idempotent by contract: the serving layer may own the service
        lifecycle *and* hand it to a context manager, so double (and
        triple) closes must be no-ops rather than errors. A closed
        service still answers ``submit``/``optimize_many``; under the
        process backend its cache misses run in-process instead of
        restarting the worker pool.
        """
        with self._pool_lock:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called at least once."""
        return self._closed

    def resilience_snapshot(self) -> dict[str, object]:
        """Point-in-time view of the failure-handling machinery.

        Keys: ``breaker`` (state/level/trips, ``None`` without one),
        ``pool`` (supervision counters, ``None`` until the worker pool
        exists), ``chaos`` (injection counters, ``None`` when fault
        injection is off — the production case).
        """
        with self._pool_lock:
            pool = self._pool
        return {
            "breaker": (
                self.breaker.snapshot() if self.breaker is not None else None
            ),
            "pool": pool.stats() if pool is not None else None,
            "chaos": (
                self.chaos.snapshot() if self.chaos is not None else None
            ),
        }

    def __enter__(self) -> "OptimizerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def submit(
        self,
        request: OptimizationRequest,
        *,
        admitted_epoch: float | None = None,
        deadline_epoch: float | None = None,
    ) -> OptimizationResult:
        """Execute one request, serving identical repeats from the cache.

        ``admitted_epoch`` (wall clock) is when the request entered the
        system; under a deadline scheduler the remaining budget is
        measured from it, so queueing time between admission and this
        call counts against the request's deadline. ``deadline_epoch``
        passes an already-admitted absolute deadline instead (the
        worker-process path, where admission happened in the parent).

        Cache semantics under a scheduler: lookups always key on the
        *original* request's fingerprint, so repeats are served
        instantly regardless of their remaining budget. A freshly
        computed result is cached only if the run completed (neither
        ``timed_out`` nor ``deadline_hit`` — a completed run under a
        shortened timeout is identical to a full-budget run) and the
        scheduler did not reroute it to another algorithm (a rerouted
        result would poison the original algorithm's cache key).

        Under the process backend, cache misses execute on a warm
        worker process: they get real parallelism instead of competing
        for the parent's GIL, and their worker-side trace spans merge
        back into the caller's trace. A closed service falls back to
        in-process execution rather than silently restarting the pool.
        """
        return self._serve(
            request,
            request.fingerprint(self.config),
            admitted_epoch=admitted_epoch,
            deadline_epoch=deadline_epoch,
        )

    def _serve(
        self,
        request: OptimizationRequest,
        key: str,
        *,
        admitted_epoch: float | None,
        deadline_epoch: float | None,
    ) -> OptimizationResult:
        """:meth:`submit` for a request whose fingerprint ``key`` is known.

        The only place a request is admitted: a cache miss under a
        scheduler gets its absolute deadline here, before it reaches a
        backend.
        """
        tracer = active_tracer()
        if tracer is None:
            cached = self.cache.get(key)
        else:
            with tracer.span("cache.lookup", "cache"):
                cached = self.cache.get(key)
        if cached is not None:
            self._dispatch(self._record(request, key, cached, cache_hit=True))
            return cached
        if self.scheduler is not None and deadline_epoch is None:
            if admitted_epoch is None:
                admitted_epoch = time.time()
            deadline_epoch = self.scheduler.admit(
                request, admitted_epoch, self.config.timeout_seconds
            )
        if self.backend == "processes" and not self._closed:
            return self._execute_resilient(request, key, deadline_epoch)
        return self._execute_local(request, key, deadline_epoch)

    def _execute_local(
        self,
        request: OptimizationRequest,
        key: str,
        deadline_epoch: float | None,
    ) -> OptimizationResult:
        """Execute one cache-missed request in the calling thread.

        The inline/thread backends' whole story, and the degraded
        ladder's landing spot when the breaker has tripped away from
        the process backend.
        """
        tracer = active_tracer()
        executed = request
        rerouted = False
        if self.scheduler is not None and deadline_epoch is not None:
            scheduled = self.scheduler.resolve(
                request, deadline_epoch, time.time(),
                self.config.timeout_seconds,
            )
            executed = scheduled.request
            rerouted = scheduled.rerouted
        if tracer is None:
            result = self._optimizer.execute(executed)
        else:
            span = tracer.begin(
                f"algorithm.{executed.algorithm}", "algorithm",
                algorithm=executed.algorithm, query=executed.query_name,
            )
            try:
                result = self._optimizer.execute(executed)
                span.set(
                    kernel=result.phase_ms.get("kernel", 0.0),
                    prune=result.phase_ms.get("prune", 0.0),
                    materialize=result.phase_ms.get("materialize", 0.0),
                )
            finally:
                span.finish()
        self._complete(
            key, result,
            self._record(
                executed, key, result, cache_hit=False, rerouted=rerouted
            ),
        )
        return result

    def _execute_resilient(
        self,
        request: OptimizationRequest,
        key: str,
        deadline_epoch: float | None,
    ) -> OptimizationResult:
        """Run one cache-missed request down the degradation ladder.

        The happy path is a single pool dispatch. When that dispatch
        infra-fails (:class:`WorkerCrashError` — the pool already spent
        its own respawn + re-dispatch), this helper:

        1. feeds the failure to the circuit breaker (which may trip the
           backend down the ``processes`` → ``threads`` → ``inline``
           ladder for *subsequent* requests),
        2. retries under :attr:`retry_policy` — jittered exponential
           backoff, clamped so no sleep outlives the request's
           remaining deadline budget,
        3. and when the retry budget is exhausted, answers with the
           paper's heuristic fallback plan flagged ``degraded=True``
           (or re-raises, when ``degraded_fallback`` is off).

        Requests arriving while the breaker is tripped run directly on
        the degraded backend (in-process); half-open probe dispatches
        go back to the pool and their outcome drives recovery.
        """
        failures = 0
        while True:
            if failures > 0:
                delay = None
                if self.retry_policy is not None:
                    remaining = None
                    if self.scheduler is not None:
                        remaining = self.scheduler.remaining_budget(
                            deadline_epoch
                        )
                    delay = self.retry_policy.next_delay(
                        failures, remaining_s=remaining
                    )
                if delay is None:
                    if not self.degraded_fallback:
                        raise WorkerCrashError(
                            f"request {request.query_name!r} exhausted its "
                            "retry budget and degraded fallback is disabled"
                        )
                    return self._degraded_fallback(request, key)
                self.metrics.record_resilience("retry")
                tracer = active_tracer()
                if tracer is None:
                    time.sleep(delay)
                else:
                    with tracer.span(
                        "retry.backoff", "retry",
                        attempt=failures, delay_s=delay,
                    ):
                        time.sleep(delay)
            decision = (
                self.breaker.decide() if self.breaker is not None else None
            )
            backend = (
                decision.backend if decision is not None else "processes"
            )
            try:
                if backend == "processes" and not self._closed:
                    result = self._submit_to_pool(request, key, deadline_epoch)
                else:
                    result = self._execute_local(request, key, deadline_epoch)
            except WorkerCrashError:
                failures += 1
                if decision is not None:
                    if self.breaker.record_failure(decision):
                        self._note_breaker_trip()
                continue
            if decision is not None:
                if self.breaker.record_success(decision):
                    self.metrics.record_resilience("breaker_recovery")
            return result

    def _note_breaker_trip(self) -> None:
        self.metrics.record_resilience("breaker_trip")
        tracer = active_tracer()
        if tracer is not None:
            # Zero-duration event span marking the ladder transition.
            tracer.begin(
                "breaker.trip", "breaker_open",
                backend=self.breaker.backend, level=self.breaker.level,
            ).finish()

    def _degraded_fallback(
        self, request: OptimizationRequest, key: str
    ) -> OptimizationResult:
        """Answer with the paper's heuristic fallback plan, flagged.

        Runs in-process with an effectively expired budget, so the DP
        takes its single-plan fallback mode almost immediately — the
        caller gets a *valid* plan and an explicit ``degraded=True``
        instead of an error. Never cached: a healthy rerun must get the
        chance to do better.
        """
        tiny = (
            self.scheduler.expired_slice_seconds
            if self.scheduler is not None
            else 1e-6
        )
        degraded_request = request.replace(timeout_seconds=tiny)
        tracer = active_tracer()
        if tracer is None:
            result = self._optimizer.execute(degraded_request)
        else:
            with tracer.span(
                "degraded.fallback", "degraded",
                algorithm=request.algorithm, query=request.query_name,
            ):
                result = self._optimizer.execute(degraded_request)
        result = dataclasses.replace(result, degraded=True)
        self._dispatch(
            self._record(request, key, result, cache_hit=False, degraded=True)
        )
        return result

    def _submit_to_pool(
        self,
        request: OptimizationRequest,
        key: str,
        deadline_epoch: float | None,
    ) -> OptimizationResult:
        """Route one cache-missed request to a worker process.

        Admission (deadline stamping) happened in the parent;
        resolution (reroute/budget decisions) happens in the worker at
        dequeue time, so pool queueing counts against the budget. The
        caller's trace context ships with the request and the worker's
        finished spans come back merged into the caller's tracer,
        parented where the submit happened.
        """
        tracer = active_tracer()
        if tracer is None:
            result, record, spans = self.worker_pool().execute_one(
                request, deadline_epoch
            )
        else:
            # The dispatch span brackets the whole pool round trip; the
            # worker's spans nest under it, so its self time in a trace
            # summary is exactly the IPC overhead (pickling, pool
            # queueing, result shipping).
            dispatch = tracer.begin(
                "pool.dispatch", "dispatch", algorithm=request.algorithm
            )
            try:
                result, record, spans = self.worker_pool().execute_one(
                    request, deadline_epoch, trace_ctx=dispatch.context
                )
            finally:
                dispatch.finish()
            if spans:
                tracer.ingest(spans)
        # The worker ships its reroute decision back on the record.
        self._complete(key, result, record)
        return result

    def optimize_many(
        self,
        requests: Sequence[OptimizationRequest],
        max_workers: int | None = None,
    ) -> list[OptimizationResult]:
        """Execute a batch of requests; results keep the input order.

        Each request takes :meth:`submit`'s path on the service's
        backend, with the batch's admission time as its
        ``admitted_epoch``. ``max_workers`` caps how many requests are
        in flight at once. The default is twice the worker-pool size for
        the process backend and ``min(8, len(requests))`` otherwise; the
        inline backend, or a width of 1, runs the batch sequentially.

        Each fingerprint is computed once. The first occurrence of each
        runs first and the repeats follow in a second wave, so repeats
        are cache hits when the plan cache is on and the first run was
        cacheable; otherwise (``cache_size=0``, a timed-out run) they
        recompute.
        """
        requests = list(requests)
        if not requests:
            return []
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        admitted_epoch = time.time()
        keys = [request.fingerprint(self.config) for request in requests]
        firsts: dict[str, int] = {}
        for position, key in enumerate(keys):
            firsts.setdefault(key, position)
        waves = (
            list(firsts.values()),
            [p for p, key in enumerate(keys) if firsts[key] != p],
        )
        results: list[OptimizationResult | None] = [None] * len(requests)

        def serve(position: int) -> None:
            results[position] = self._serve(
                requests[position], keys[position],
                admitted_epoch=admitted_epoch, deadline_epoch=None,
            )

        width = max_workers
        if width is None and self.backend == "processes":
            from repro.parallel.pool import default_worker_count

            # Two requests per worker: each worker has its next request
            # queued while its last result ships back, so it never idles
            # through a round trip.
            width = 2 * (self.workers or default_worker_count())
        elif width is None:
            width = min(8, len(requests))
        width = min(width, len(requests))
        if self.backend == "inline" or width == 1:
            for wave in waves:
                for position in wave:
                    serve(position)
            return results
        # Threads do not inherit contextvars, so each task runs in a
        # copy of the caller's context: the active tracer and the
        # enclosing span reach every request.
        with ThreadPoolExecutor(max_workers=width) as pool:
            for wave in waves:
                futures = [
                    pool.submit(contextvars.copy_context().run, serve, p)
                    for p in wave
                ]
                for future in futures:
                    future.result()
        return results

    # ------------------------------------------------------------------
    def _complete(
        self, key: str, result: OptimizationResult, record: RequestMetrics
    ) -> None:
        """Fold in a freshly computed result: the one cache-store rule.

        Only completed runs are cached (neither ``timed_out`` nor
        ``deadline_hit``), and never a result the scheduler rerouted
        away from what the fingerprint promises.
        """
        if not (result.timed_out or result.deadline_hit or record.rerouted):
            self.cache.put(key, result)
        self._dispatch(record)

    def _record(
        self,
        request: OptimizationRequest,
        fingerprint: str,
        result: OptimizationResult,
        *,
        cache_hit: bool,
        rerouted: bool = False,
        degraded: bool = False,
    ) -> RequestMetrics:
        return RequestMetrics(
            fingerprint=fingerprint,
            query_name=request.query_name,
            algorithm=request.algorithm,
            tags=request.tags,
            cache_hit=cache_hit,
            elapsed_ms=0.0 if cache_hit else result.optimization_time_ms,
            timed_out=result.timed_out,
            deadline_hit=result.deadline_hit,
            rerouted=rerouted,
            degraded=degraded,
            plans_considered=0 if cache_hit else result.plans_considered,
            candidates_vectorized=(
                0 if cache_hit else result.candidates_vectorized
            ),
            phase_ms={} if cache_hit else dict(result.phase_ms),
        )

    def _dispatch(self, record: RequestMetrics) -> None:
        """Fold one record (local or shipped from a worker) in."""
        self.metrics.record(record)
        for hook in self._hooks:
            hook(record)
