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
* :meth:`OptimizerService.optimize_many` fans a batch of requests out
  over a pluggable backend, preserving input order in the returned
  results:

  - ``"inline"`` — sequential execution in the calling thread;
  - ``"threads"`` — a thread pool; cheap, but the GIL serializes the
    CPU-bound optimization work, so it only overlaps bookkeeping;
  - ``"processes"`` — a warm :class:`~repro.parallel.pool.WorkerPool`
    of spawn-safe worker processes, each with its own registry, cost
    model and plan cache (see :mod:`repro.parallel`);

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

import dataclasses
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from functools import partial
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
from repro.obs.trace import active_tracer, current_context
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.chaos import ChaosInjector, chaos_from_env
from repro.resilience.policy import DEFAULT_RETRY_POLICY, RetryPolicy

#: Callable invoked with one record per completed request.
MetricsHook = Callable[[RequestMetrics], None]

#: Execution backends optimize_many() can fan a batch out over.
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
        service still answers ``submit``/``optimize_many`` — the inline
        and thread backends need no resources — but the process backend
        would lazily restart a worker pool, so :attr:`closed` lets
        owners assert the lifecycle they expect.
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
        worker process (the pool the batch API uses): single served
        requests get real parallelism instead of competing for the
        parent's GIL, and their worker-side trace spans merge back into
        the caller's trace. A closed service falls back to in-process
        execution rather than silently restarting the pool.
        """
        tracer = active_tracer()
        key = request.fingerprint(self.config)
        if tracer is None:
            cached = self.cache.get(key)
        else:
            with tracer.span("cache.lookup", "cache"):
                cached = self.cache.get(key)
        if cached is not None:
            self._report(request, key, cached, cache_hit=True)
            return cached
        if self.backend == "processes" and not self._closed:
            return self._execute_resilient(
                request, key,
                admitted_epoch=admitted_epoch,
                deadline_epoch=deadline_epoch,
            )
        return self._execute_local(
            request, key,
            admitted_epoch=admitted_epoch,
            deadline_epoch=deadline_epoch,
        )

    def _execute_local(
        self,
        request: OptimizationRequest,
        key: str,
        *,
        admitted_epoch: float | None,
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
        if self.scheduler is not None:
            default_timeout = self.config.timeout_seconds
            if deadline_epoch is None:
                if admitted_epoch is None:
                    admitted_epoch = time.time()
                deadline_epoch = self.scheduler.admit(
                    request, admitted_epoch, default_timeout
                )
            if deadline_epoch is not None:
                scheduled = self.scheduler.resolve(
                    request, deadline_epoch, time.time(), default_timeout
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
        if not result.timed_out and not result.deadline_hit and not rerouted:
            self.cache.put(key, result)
        self._report(
            executed, key, result, cache_hit=False, rerouted=rerouted
        )
        return result

    def _execute_resilient(
        self,
        request: OptimizationRequest,
        key: str,
        *,
        admitted_epoch: float | None,
        deadline_epoch: float | None,
        prior_failures: int = 0,
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
        ``prior_failures`` pre-charges the retry budget — the batch
        path enters here after a crash it already observed.
        """
        if self.scheduler is not None and deadline_epoch is None:
            if admitted_epoch is None:
                admitted_epoch = time.time()
            deadline_epoch = self.scheduler.admit(
                request, admitted_epoch, self.config.timeout_seconds
            )
        failures = prior_failures
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
                    result = self._submit_to_pool(
                        request, key,
                        admitted_epoch=admitted_epoch,
                        deadline_epoch=deadline_epoch,
                    )
                else:
                    result = self._execute_local(
                        request, key,
                        admitted_epoch=admitted_epoch,
                        deadline_epoch=deadline_epoch,
                    )
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
        self._report(request, key, result, cache_hit=False, degraded=True)
        return result

    def _submit_to_pool(
        self,
        request: OptimizationRequest,
        key: str,
        *,
        admitted_epoch: float | None,
        deadline_epoch: float | None,
    ) -> OptimizationResult:
        """Route one cache-missed :meth:`submit` to a worker process.

        Admission (deadline stamping) happens in the parent, like the
        batch path; resolution (reroute/budget decisions) happens in the
        worker at dequeue time, so pool queueing counts against the
        budget. The caller's trace context ships with the request and
        the worker's finished spans come back merged into the caller's
        tracer, parented where the submit happened.
        """
        if self.scheduler is not None and deadline_epoch is None:
            if admitted_epoch is None:
                admitted_epoch = time.time()
            deadline_epoch = self.scheduler.admit(
                request, admitted_epoch, self.config.timeout_seconds
            )
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
        # Same cache rule as the in-process path; the worker ships its
        # reroute decision back on the record.
        if (
            not result.timed_out
            and not result.deadline_hit
            and not record.rerouted
        ):
            self.cache.put(key, result)
        self._dispatch(record)
        return result

    def optimize_many(
        self,
        requests: Sequence[OptimizationRequest],
        max_workers: int | None = None,
        *,
        backend: str | None = None,
        shard_by_fingerprint: bool | None = None,
    ) -> list[OptimizationResult]:
        """Execute a batch of requests; results keep the input order.

        ``backend`` overrides the service default for this batch.
        ``max_workers`` caps the thread-pool fan-out (thread backend
        only; the process pool's size is fixed when it starts). For the
        thread backend the default scales with the batch (at most 8
        threads) and ``max_workers=1`` degrades to sequential execution.
        ``shard_by_fingerprint`` (process backend) routes fingerprint-
        equal requests to the same worker so repeats hit that worker's
        plan cache; the default (``None``) enables it exactly when the
        batch contains repeats.
        """
        requests = list(requests)
        if not requests:
            return []
        backend = backend if backend is not None else self.backend
        if backend not in BACKENDS:
            raise OptimizerError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        admitted_epoch = time.time()
        if backend == "processes":
            return self._optimize_many_processes(
                requests, admitted_epoch, shard_by_fingerprint,
                max_workers=max_workers,
            )
        submit = partial(self.submit, admitted_epoch=admitted_epoch)
        if max_workers is None:
            max_workers = min(8, len(requests))
        if backend == "inline" or max_workers == 1 or len(requests) == 1:
            return [submit(request) for request in requests]
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(submit, requests))

    # ------------------------------------------------------------------
    def _optimize_many_processes(
        self,
        requests: list[OptimizationRequest],
        admitted_epoch: float,
        shard_by_fingerprint: bool | None,
        max_workers: int | None = None,
    ) -> list[OptimizationResult]:
        """Fan a batch out over the worker pool.

        The parent cache is consulted first (known answers never travel
        to a worker); worker results flow back into the parent cache so
        later batches and ``submit`` calls see them.

        Resilience: the batch takes one breaker decision. A tripped
        breaker reroutes the whole batch through per-request ``submit``
        on threads (each request then walks the ladder itself,
        including half-open probes). On the pool, individually crashed
        dispatches — ones the pool's own respawn + re-dispatch could
        not save — feed the breaker and finish through the per-request
        retry/degrade path instead of failing the batch.
        """
        decision = None
        if self.breaker is not None and not self._closed:
            decision = self.breaker.decide()
            if decision.backend != "processes":
                submit = partial(self.submit, admitted_epoch=admitted_epoch)
                workers = (
                    min(8, len(requests))
                    if max_workers is None
                    else max_workers
                )
                if (
                    decision.backend == "inline"
                    or workers == 1
                    or len(requests) == 1
                ):
                    results = [submit(request) for request in requests]
                else:
                    with ThreadPoolExecutor(max_workers=workers) as tpool:
                        results = list(tpool.map(submit, requests))
                if self.breaker.record_success(decision):
                    self.metrics.record_resilience("breaker_recovery")
                return results
        keys = [request.fingerprint(self.config) for request in requests]
        if self.scheduler is not None:
            epochs = [
                self.scheduler.admit(
                    request, admitted_epoch, self.config.timeout_seconds
                )
                for request in requests
            ]
        else:
            epochs = [None] * len(requests)
        results: list[OptimizationResult | None] = [None] * len(requests)
        shipped: list[int] = []
        for position, request in enumerate(requests):
            cached = self.cache.get(keys[position])
            if cached is not None:
                results[position] = cached
                self._report(
                    request, keys[position], cached, cache_hit=True
                )
            else:
                shipped.append(position)
        if shipped:
            if shard_by_fingerprint is None:
                shipped_keys = [keys[position] for position in shipped]
                shard_by_fingerprint = (
                    len(set(shipped_keys)) < len(shipped_keys)
                )
            tracer = active_tracer()
            trace_ctx = current_context() if tracer is not None else None
            outputs = self.worker_pool().execute_many(
                [requests[position] for position in shipped],
                [epochs[position] for position in shipped],
                shard_by_fingerprint=shard_by_fingerprint,
                default_config=self.config,
                trace_ctx=trace_ctx,
                on_crash="return",
            )
            crashed: list[int] = []
            for position, output in zip(shipped, outputs):
                if isinstance(output, WorkerCrashError):
                    crashed.append(position)
                    continue
                result, record, spans = output
                if tracer is not None and spans:
                    tracer.ingest(spans)
                results[position] = result
                # Same cache rule as submit(): completed runs only, and
                # never a result the worker's scheduler rerouted away
                # from what the fingerprint promises (the worker ships
                # the reroute decision back on the record).
                if (
                    not result.timed_out
                    and not result.deadline_hit
                    and not record.rerouted
                ):
                    self.cache.put(keys[position], result)
                self._dispatch(record)
            if decision is not None:
                if crashed:
                    # A probe is one experiment — report it once; a
                    # closed-state decision reports every crash so the
                    # failure threshold means what it says.
                    reports = 1 if decision.probe else len(crashed)
                    for _ in range(reports):
                        if self.breaker.record_failure(decision):
                            self._note_breaker_trip()
                            break
                elif self.breaker.record_success(decision):
                    self.metrics.record_resilience("breaker_recovery")
            for position in crashed:
                results[position] = self._execute_resilient(
                    requests[position], keys[position],
                    admitted_epoch=admitted_epoch,
                    deadline_epoch=epochs[position],
                    prior_failures=1,
                )
        return results

    # ------------------------------------------------------------------
    def _report(
        self,
        request: OptimizationRequest,
        fingerprint: str,
        result: OptimizationResult,
        *,
        cache_hit: bool,
        rerouted: bool = False,
        degraded: bool = False,
    ) -> None:
        record = RequestMetrics(
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
        self._dispatch(record)

    def _dispatch(self, record: RequestMetrics) -> None:
        """Fold one record (local or shipped from a worker) in."""
        self.metrics.record(record)
        for hook in self._hooks:
            hook(record)
