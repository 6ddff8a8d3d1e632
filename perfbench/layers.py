"""Per-layer timing, taken from outside the program.

Traced runs (``--trace 1``) patch timing wrappers around the public
functions of each layer; the program itself carries no benchmark code.
A wrapper adds its wall time to the layer's busy time and counts the
call; an optional tally reads the call's arguments and result for work
counts (rows, survivors, bytes). Nested calls into the same layer on
one thread are timed once, by the outermost call.

``install_optimizer_layers`` covers the in-process optimizer stack
(``rta-9obj``, ``rta-fullspace``); ``install_server_layers`` covers the
HTTP server process (``http-zipf``, via ``serve_traced.py``).
``LayerClock.uninstall`` removes the wrappers again.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import pickle
import threading
import time
from collections import Counter

#: Printed by a traced server once SIGUSR1 has zeroed its layer totals.
RESET_LINE = "perfbench: layer totals reset"


class LayerClock:
    """Busy time (ns), calls and work counts per layer; thread-safe."""

    def __init__(self) -> None:
        self.ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0

    # ------------------------------------------------------------------
    def add(self, layer: str, ns: int) -> None:
        with self._lock:
            self.ns[layer] += ns
            self.calls[layer] += 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def reset(self) -> None:
        with self._lock:
            self.ns.clear()
            self.calls.clear()
            self.counts.clear()

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {
                "ns": dict(self.ns),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def wrap(self, owner, name: str, layer: str, tally=None) -> None:
        """Time ``owner.name`` as ``layer``; ``tally(args, result)`` counts work."""
        original = getattr(owner, name)
        local = self._local

        @functools.wraps(original)
        def timed(*args, **kwargs):
            depth = getattr(local, layer, 0)
            if depth:
                return original(*args, **kwargs)
            setattr(local, layer, 1)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                self.add(layer, time.perf_counter_ns() - start)
                setattr(local, layer, 0)
            if tally is not None:
                tally(args, result)
            return result

        self._patch(owner, name, timed)

    def counted(self, owner, name: str, counter: str) -> None:
        """Count calls of ``owner.name`` without timing them."""
        original = getattr(owner, name)

        @functools.wraps(original)
        def counting(*args, **kwargs):
            self.count(counter)
            return original(*args, **kwargs)

        self._patch(owner, name, counting)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            return
        self.add("gc", time.perf_counter_ns() - self._gc_start)
        if info.get("generation") == 2:
            self.count("gc_gen2")

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


# ----------------------------------------------------------------------
def _install_service_layers(clock: LayerClock) -> None:
    """Wrap core.service (shared by both stacks) and hook the GC."""
    from repro.core.request import OptimizationRequest
    from repro.core.service import PlanCache

    gc.callbacks.append(clock._on_gc)
    clock.wrap(OptimizationRequest, "fingerprint", "fingerprint")
    clock.wrap(
        PlanCache, "get", "cache_lookup",
        lambda args, result: clock.count("cache_hits", result is not None),
    )
    original_put = PlanCache.put

    @functools.wraps(original_put)
    def put(cache, key, result):
        before = cache.evictions
        original_put(cache, key, result)
        clock.count("cache_evictions", cache.evictions - before)

    clock._patch(PlanCache, "put", put)


def install_optimizer_layers(clock: LayerClock) -> None:
    """Wrap core.pruning, cost.model, core.dp, core.select_best,
    core.optimizer and core.service."""
    from repro.core.dp import DPRun
    from repro.core.optimizer import MultiObjectiveOptimizer
    from repro.core.pruning import PlanSet, SingleBestPlanSet
    from repro.cost.model import CostModel

    def block_tally(args, keep) -> None:
        clock.count("prune_rows", len(args[1]))
        clock.count("prune_kept", int(keep.sum()))

    def insert_tally(args, kept) -> None:
        clock.count("prune_rows")
        clock.count("prune_kept", bool(kept))

    for owner in (PlanSet, SingleBestPlanSet):
        clock.wrap(owner, "block_accept", "prune", block_tally)
        clock.wrap(owner, "insert", "prune", insert_tally)
    clock.wrap(PlanSet, "covers_many", "prune", block_tally)

    def kernel_tally(args, costs) -> None:
        clock.count("kernel_rows", int(args[4].size))

    clock.wrap(CostModel, "join_cost_block", "kernel", kernel_tally)
    clock.wrap(CostModel, "index_nl_cost_block", "kernel", kernel_tally)
    clock.counted(CostModel, "join_cost", "scalar_calls")

    def dp_tally(args, sets) -> None:
        clock.count("pareto_plans", sum(len(s) for s in sets.values()))

    clock.wrap(DPRun, "run", "dp", dp_tally)
    for name in ("repro.core.rta", "repro.core.ira"):
        clock.wrap(importlib.import_module(name), "select_best", "select")
    clock.wrap(MultiObjectiveOptimizer, "execute", "optimizer")
    _install_service_layers(clock)


def install_server_layers(clock: LayerClock) -> None:
    """Wrap serving, plans.serialize, core.service and parallel.pool in
    the server process."""
    from repro.parallel.pool import WorkerPool
    from repro.serving import server
    from repro.serving.admission import AdmissionController

    clock.wrap(server, "parse_optimize_body", "parse")
    clock.wrap(server, "result_to_dict", "serialize")

    original_slot = AdmissionController.slot

    @contextlib.asynccontextmanager
    async def slot(admission):
        start = time.perf_counter_ns()
        async with original_slot(admission):
            clock.add("queue", time.perf_counter_ns() - start)
            yield

    clock._patch(AdmissionController, "slot", slot)

    def dispatch_tally(args, returned) -> None:
        request, deadline_epoch = args[1], args[2] if len(args) > 2 else None
        result = returned[0]
        clock.count("worker_ms", result.optimization_time_ms)
        clock.count(
            "request_bytes",
            len(pickle.dumps((request, deadline_epoch, None, None))),
        )
        clock.count("result_bytes", len(pickle.dumps(returned)))

    clock.wrap(WorkerPool, "execute_one", "dispatch", dispatch_tally)
    _install_service_layers(clock)
