"""Counters collected during optimizer runs.

Two layers of metrics live here:

* :class:`Counters` — per-run (per query block) counters the benchmark
  harness reports, matching the paper's figures: optimization time,
  allocated memory, the number of Pareto plans for the last table set
  that was treated completely, and whether a timeout occurred. Memory
  is accounted analytically (stored plans x bytes per plan), matching
  the paper's observation that "the space consumption of the EXA
  directly relates to the number of Pareto plans".
* :class:`ServiceMetrics` / :class:`RequestMetrics` — per-service
  aggregates fed by :class:`repro.core.service.OptimizerService`: total
  requests, plan-cache hits/misses, per-algorithm request counts and
  cumulative optimization time. Metrics hooks registered on the service
  receive one :class:`RequestMetrics` record per completed request.
  The serving layer (:mod:`repro.serving`) threads its front-end
  counters into the same aggregate — ``coalesce_hits`` (requests that
  awaited an identical in-flight optimization instead of running their
  own) and ``sheds`` (requests refused by admission control) — so one
  snapshot covers a server end to end.
* :class:`LatencyHistogram` — thread-safe latency sample sink with
  percentile queries (p50/p99), used by the serving layer for
  end-to-end request latencies.
"""

from __future__ import annotations

import threading
from bisect import insort
from dataclasses import dataclass, field

from repro.plans.plan import PLAN_BYTES

#: Fixed per-run overhead charged to every optimizer invocation (KB),
#: standing in for the allocator baseline of the paper's measurements.
BASE_MEMORY_KB = 64.0


@dataclass
class Counters:
    """Mutable metrics for one optimizer run (one query block)."""

    plans_considered: int = 0
    #: How many of the considered candidates went through the batched
    #: (vectorized) enumeration path. Incremented once per candidate
    #: *row* of a block, never once per block, so it is directly
    #: comparable to ``plans_considered`` — their ratio is the
    #: batch-path hit rate reported by ``RequestMetrics``.
    candidates_vectorized: int = 0
    #: Phase timers (milliseconds), filled by the DP loop when
    #: ``OptimizerConfig.phase_timers`` is on. The four phases are
    #: *disjoint*: ``kernel`` is cost-model block evaluation,
    #: ``pruning`` is dominance filtering (block accept + projection),
    #: ``materialize`` is survivor plan construction, and
    #: ``enumeration`` is everything else in the DP wall time (subset
    #: iteration, pair gathering, leaf access paths) — so their sum tracks
    #: the run's elapsed time.
    enumeration_ms: float = 0.0
    kernel_ms: float = 0.0
    pruning_ms: float = 0.0
    materialize_ms: float = 0.0
    plans_stored_peak: int = 0
    pareto_last_complete: int = 0
    table_sets_completed: int = 0
    table_sets_total: int = 0
    timed_out: bool = False
    _stored_now: int = 0
    _set_sizes: dict[int, int] = field(default_factory=dict)

    def record_set_size(self, mask: int, size: int) -> None:
        """Update the stored-plan total after a table set changed size."""
        previous = self._set_sizes.get(mask, 0)
        self._set_sizes[mask] = size
        self._stored_now += size - previous
        if self._stored_now > self.plans_stored_peak:
            self.plans_stored_peak = self._stored_now

    def complete_table_set(self, mask: int, size: int,
                           fallback: bool = False) -> None:
        """Mark a table set as fully treated (for the Pareto-count metric).

        ``fallback`` marks sets built after a timeout (single-plan mode);
        they do not count as "treated completely" for the paper's
        Pareto-plan metric, which reports the last table set completed
        *before* the timeout occurred.
        """
        self.record_set_size(mask, size)
        self.table_sets_completed += 1
        if not fallback:
            self.pareto_last_complete = size

    @property
    def plans_stored(self) -> int:
        """Number of currently stored plans (over all table sets)."""
        return self._stored_now

    @property
    def memory_kb(self) -> float:
        """Analytic memory estimate for the run (kilobytes)."""
        return BASE_MEMORY_KB + self.plans_stored_peak * PLAN_BYTES / 1024.0

    def phase_ms(self) -> dict[str, float]:
        """Phase-timer totals keyed by canonical phase name.

        Keys match :data:`repro.obs.prom.CANONICAL_PHASES` and the
        ``repro trace`` breakdown; all zeros when phase timing is off.
        """
        return {
            "enumerate": self.enumeration_ms,
            "kernel": self.kernel_ms,
            "prune": self.pruning_ms,
            "materialize": self.materialize_ms,
        }

    def add_work(self, other: "Counters") -> None:
        """Add another run's plans considered and phase time to this one."""
        self.plans_considered += other.plans_considered
        self.candidates_vectorized += other.candidates_vectorized
        self.enumeration_ms += other.enumeration_ms
        self.kernel_ms += other.kernel_ms
        self.pruning_ms += other.pruning_ms
        self.materialize_ms += other.materialize_ms

    def merge_peak(self, other: "Counters") -> None:
        """Fold another run into this one: work adds up, peaks take
        the maximum (the IDP's rounds)."""
        self.add_work(other)
        self.plans_stored_peak = max(
            self.plans_stored_peak, other.plans_stored_peak
        )
        self.pareto_last_complete = max(
            self.pareto_last_complete, other.pareto_last_complete
        )
        self.table_sets_completed += other.table_sets_completed
        self.table_sets_total += other.table_sets_total
        self.timed_out = self.timed_out or other.timed_out


# ----------------------------------------------------------------------
# Latency histogram (serving layer)
# ----------------------------------------------------------------------
class LatencyHistogram:
    """Thread-safe latency sample sink with percentile queries.

    Samples are kept sorted as they arrive (insertion is O(n) worst
    case but effectively cheap at serving rates), so percentile reads
    are O(1) — the read path is a metrics endpoint, hit far more often
    under load than makes re-sorting attractive. ``max_samples`` bounds
    memory: once full, every second incoming sample is dropped
    uniformly at random-ish (deterministic decimation by counter), which
    keeps tail percentiles meaningful without unbounded growth.
    """

    def __init__(self, max_samples: int = 65536) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.max_samples = max_samples
        self._samples: list[float] = []  # guarded-by: _lock
        self._observed = 0  # guarded-by: _lock
        self._dropped = 0  # guarded-by: _lock
        self._total = 0.0  # guarded-by: _lock
        self._max = 0.0  # guarded-by: _lock
        self._lock = threading.Lock()

    def observe(self, value_ms: float) -> None:
        """Record one latency sample (milliseconds)."""
        with self._lock:
            self._observed += 1
            self._total += value_ms
            if value_ms > self._max:
                self._max = value_ms
            if len(self._samples) >= self.max_samples:
                # Deterministic decimation: drop every other arrival.
                self._dropped += 1
                if self._dropped % 2 == 1:
                    return
                self._samples.pop(len(self._samples) // 2)
            insort(self._samples, value_ms)

    @property
    def count(self) -> int:
        """Number of samples observed (including decimated ones)."""
        with self._lock:
            return self._observed

    @property
    def mean(self) -> float:
        with self._lock:
            return self._total / self._observed if self._observed else 0.0

    def _percentile_locked(self, fraction: float) -> float:
        if not self._samples:
            return 0.0
        rank = min(
            len(self._samples) - 1,
            max(0, int(round(fraction * (len(self._samples) - 1)))),
        )
        return self._samples[rank]

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile; ``fraction`` in [0, 1]."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        with self._lock:
            return self._percentile_locked(fraction)

    def snapshot(self) -> dict[str, float]:
        """Point-in-time percentile summary (safe to serialize).

        Everything — count, mean, max, *and* the percentiles — is read
        under one lock acquisition, so concurrent ``observe()`` calls
        can never produce a snapshot whose count disagrees with its
        percentiles (the torn-read hazard of calling :meth:`percentile`
        separately per quantile).
        """
        with self._lock:
            count = self._observed
            return {
                "count": float(count),
                "mean_ms": self._total / count if count else 0.0,
                "p50_ms": self._percentile_locked(0.50),
                "p95_ms": self._percentile_locked(0.95),
                "p99_ms": self._percentile_locked(0.99),
                "max_ms": self._max,
            }


# ----------------------------------------------------------------------
# Service-level metrics (OptimizerService)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RequestMetrics:
    """Immutable per-request record handed to service metrics hooks.

    ``worker`` identifies the process that executed the request: ``""``
    for the in-process path, the worker process name (e.g.
    ``SpawnProcess-2``) when the request ran on the parallel backend.
    ``rerouted`` marks requests the deadline scheduler redirected to
    the anytime algorithm; their results must not be cached under the
    original request's fingerprint.

    ``phase_ms`` breaks the optimizer's elapsed time into the disjoint
    enumerate/kernel/prune/materialize phases (see
    :meth:`Counters.phase_ms`); empty for cache hits or when phase
    timing is disabled. It is excluded from equality so the generated
    ``__hash__`` of this frozen dataclass keeps working.
    """

    fingerprint: str
    query_name: str
    algorithm: str
    tags: tuple[str, ...]
    cache_hit: bool
    elapsed_ms: float
    timed_out: bool
    deadline_hit: bool = False
    worker: str = ""
    rerouted: bool = False
    #: The request exhausted its retry budget and was answered by the
    #: in-process heuristic fallback plan (see ``OptimizerService``);
    #: degraded results are never cached.
    degraded: bool = False
    plans_considered: int = 0
    candidates_vectorized: int = 0
    phase_ms: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def vectorized_fraction(self) -> float:
        """Share of candidates costed through the batched kernels.

        Every join candidate is; only the access paths of single tables
        are not, so this stays just below 1.0. Cache hits report 0
        candidates either way.
        """
        if self.plans_considered <= 0:
            return 0.0
        return self.candidates_vectorized / self.plans_considered


@dataclass
class ServiceMetrics:
    """Thread-safe aggregate counters for one :class:`OptimizerService`.

    ``cache_hits``/``cache_misses`` implement the plan-cache hit counter
    the batch API's acceptance test observes; ``by_algorithm`` counts
    executed (non-cached) requests per algorithm name.

    ``coalesce_hits`` and ``sheds`` are fed by the serving front end
    (:mod:`repro.serving`): coalesced requests never reach
    :meth:`record` (they await another request's optimization), and
    shed requests are refused before a request object even executes —
    both are counted here so one aggregate describes the whole server.
    """

    requests: int = 0  # guarded-by: _lock
    cache_hits: int = 0  # guarded-by: _lock
    cache_misses: int = 0  # guarded-by: _lock
    timeouts: int = 0  # guarded-by: _lock
    deadline_hits: int = 0  # guarded-by: _lock
    coalesce_hits: int = 0  # guarded-by: _lock
    sheds: int = 0  # guarded-by: _lock
    # Resilience counters (see repro.resilience): worker_failures counts
    # observed infrastructure faults, respawns counts pool rebuilds,
    # retries counts re-dispatches/backoff retries, breaker_trips and
    # breaker_recoveries track the degradation ladder, and degraded
    # counts requests answered by the heuristic fallback plan.
    worker_failures: int = 0  # guarded-by: _lock
    respawns: int = 0  # guarded-by: _lock
    retries: int = 0  # guarded-by: _lock
    breaker_trips: int = 0  # guarded-by: _lock
    breaker_recoveries: int = 0  # guarded-by: _lock
    degraded: int = 0  # guarded-by: _lock
    total_optimization_ms: float = 0.0  # guarded-by: _lock
    by_algorithm: dict[str, int] = field(default_factory=dict)  # guarded-by: _lock
    by_worker: dict[str, int] = field(default_factory=dict)  # guarded-by: _lock
    phase_ms: dict[str, float] = field(default_factory=dict)  # guarded-by: _lock
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, metrics: RequestMetrics) -> None:
        """Fold one completed request into the aggregates."""
        with self._lock:
            self.requests += 1
            if metrics.cache_hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
                self.total_optimization_ms += metrics.elapsed_ms
                self.by_algorithm[metrics.algorithm] = (
                    self.by_algorithm.get(metrics.algorithm, 0) + 1
                )
                for phase, spent_ms in metrics.phase_ms.items():
                    self.phase_ms[phase] = (
                        self.phase_ms.get(phase, 0.0) + spent_ms
                    )
            if metrics.timed_out:
                self.timeouts += 1
            if metrics.deadline_hit:
                self.deadline_hits += 1
            if metrics.degraded:
                self.degraded += 1
            if metrics.worker:
                self.by_worker[metrics.worker] = (
                    self.by_worker.get(metrics.worker, 0) + 1
                )

    def record_resilience(self, event: str) -> None:
        """Count one recovery event (pool/service supervision).

        ``event`` is one of ``worker_failure``, ``respawn``, ``retry``
        (pool re-dispatches and service backoff retries both count
        here), ``breaker_trip``, ``breaker_recovery``, ``degraded``.
        Unknown events are ignored — the emitting layers may grow
        event kinds faster than every consumer updates.
        """
        with self._lock:
            if event == "worker_failure":
                self.worker_failures += 1
            elif event == "respawn":
                self.respawns += 1
            elif event in ("retry", "redispatch"):
                self.retries += 1
            elif event == "breaker_trip":
                self.breaker_trips += 1
            elif event == "breaker_recovery":
                self.breaker_recoveries += 1
            elif event == "degraded":
                self.degraded += 1

    def record_coalesce_hit(self) -> None:
        """Count one request served by awaiting an in-flight twin."""
        with self._lock:
            self.coalesce_hits += 1

    def record_shed(self) -> None:
        """Count one request refused by serving admission control."""
        with self._lock:
            self.sheds += 1

    @property
    def hit_rate(self) -> float:
        """Plan-cache hit rate over all requests (0 when none served).

        Takes the lock so the ratio is computed from one coherent
        (hits, requests) pair; a torn read could report a rate > 1.
        """
        with self._lock:
            return self.cache_hits / self.requests if self.requests else 0.0

    def snapshot(self) -> dict[str, object]:
        """Point-in-time copy of the counters (safe to serialize).

        The hit rate is recomputed inline from the locked reads rather
        than via :attr:`hit_rate` — the property acquires the
        (non-reentrant) lock itself, and the inline form also keeps the
        rate consistent with the counters in the same snapshot.
        """
        with self._lock:
            return {
                "requests": self.requests,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "timeouts": self.timeouts,
                "deadline_hits": self.deadline_hits,
                "coalesce_hits": self.coalesce_hits,
                "sheds": self.sheds,
                "worker_failures": self.worker_failures,
                "respawns": self.respawns,
                "retries": self.retries,
                "breaker_trips": self.breaker_trips,
                "breaker_recoveries": self.breaker_recoveries,
                "degraded": self.degraded,
                "total_optimization_ms": self.total_optimization_ms,
                "by_algorithm": dict(self.by_algorithm),
                "by_worker": dict(self.by_worker),
                "phase_ms": dict(self.phase_ms),
                "hit_rate": (
                    self.cache_hits / self.requests if self.requests else 0.0
                ),
            }
