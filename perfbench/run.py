"""Benchmark of the repro optimizer: end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rta-9obj --seed 1 --seconds 20 --trace 0

Workloads (README.md has the full record):

* ``rta-9obj`` -- all nine objectives, RTA on TPC-H 2/7/9/10, reduced
  plan space; one closed-loop client calling ``OptimizerService.submit``
  in process. Loads ``core.pruning`` and materialization.
* ``rta-fullspace`` -- every 3-objective subset, RTA(1.15/1.5/2) and
  IRA(1.5) on TPC-H 2/3/5/7/9/10, full plan space; same client. Loads
  ``core.dp`` enumeration and the ``cost.model`` kernels.
* ``http-zipf`` -- ``repro serve`` with one process-pool worker, driven
  by an open loop at a fixed rate with Zipf-popular repeats. Loads
  ``serving``, ``plans.serialize``, ``core.service`` and
  ``parallel.pool``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
timed phase twice, untraced and then with the layer wrappers of
``layers.py`` installed, and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed output check prints
``"correct": false`` and exits 1.
"""

import time

_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import OrderedDict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

WORKLOADS = ("rta-9obj", "rta-fullspace", "http-zipf")
#: Set-up repeats per untraced run; setup_s reports their median.
SETUP_ROUNDS = 3
#: The tail latency is the slowest latency with this many samples
#: beyond it.
TAIL_BEYOND = 10
#: Flag an open-loop run whose generator lag p99 exceeds this.
LATE_FLAG_MS = 20.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "plan_wcost_gm": "cost",
}
PER_LAYER = {
    "pruning.accept_ms": "ms/op",
    "pruning.calls": "count",
    "pruning.rows_in": "count",
    "pruning.accept_frac": "ratio",
    "pruning.dp_frac": "ratio",
    "plans.materialize_ms": "ms/op",
    "dp.enumerate_ms": "ms/op",
    "dp.plans_considered": "count",
    "dp.pareto_plans": "count",
    "dp.block_frac": "ratio",
    "cost.kernel_ms": "ms/op",
    "cost.kernel_rows": "count",
    "cost.kernel_ns_per_row": "ns/row",
    "cost.scalar_calls": "count",
    "select.ms": "ms/op",
    "optimizer.execute_ms": "ms/op",
    "optimizer.calls": "count",
    "service.fingerprint_ms": "ms/op",
    "service.cache_lookup_ms": "ms/op",
    "service.cache_hit_frac": "ratio",
    "service.cache_evictions": "count",
    "pool.dispatch_ms": "ms/op",
    "pool.request_bytes": "B",
    "pool.result_bytes": "B",
    "serving.parse_ms": "ms/op",
    "serving.queue_wait_ms": "ms/op",
    "serving.coalesced_frac": "ratio",
    "serving.shed_frac": "ratio",
    "serving.hit_p50_ms": "ms",
    "serving.miss_p50_ms": "ms",
    "serving.requests": "count",
    "serialize.result_ms": "ms/op",
    "serialize.response_bytes": "B",
    "gc.pause_ms": "ms/op",
    "gc.gen2_collections": "count",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead_frac": "ratio",
    "trace.other_frac": "ratio",
    "host.kernel_ms": "ms",
}


class CheckFailed(Exception):
    """An output or determinism check failed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(values):
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def geometric_mean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def require(problems):
    if problems:
        raise CheckFailed("; ".join(problems[:5]) + (
            f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        ))


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Closed-loop optimizer workloads
# ----------------------------------------------------------------------
def signature(result):
    """What must repeat exactly between two runs of one request."""
    return (result.plans_considered, result.plan_cost, len(result.frontier))


def closed_loop(service, ops, clock):
    """Submit ``ops`` one after another, sampling the host between them.

    Returns (raw latencies, latencies scaled to reference speed, results).
    """
    gc.collect()
    raw, moments, results = [], [], []
    for op in ops:
        if clock.due():
            clock.sample()
        began = time.perf_counter()
        try:
            result = service.submit(op.request)
        except Exception as error:  # counted as a failed operation
            log(f"{op.label} raised {error!r}")
            result = None
        ended = time.perf_counter()
        raw.append(ended - began)
        moments.append((began + ended) / 2)
        results.append(result)
    clock.sample(3)
    scaled = [t * clock.factor_at(m) for t, m in zip(raw, moments)]
    return raw, scaled, results


def succeeded(result):
    return result is not None and not (
        result.timed_out or result.degraded or result.deadline_hit
    )


def run_optimizer_workload(args):
    import mixes
    from checks import check_result
    from hostspeed import HostClock
    from layers import LayerClock, install_optimizer_layers
    from repro import OptimizerService, tpch_schema

    if args.workload == "rta-9obj":
        ops = mixes.nine_objective_ops(args.seed, args.seconds)
        warmup = mixes.nine_objective_warmup()
    else:
        ops = mixes.fullspace_ops(args.seed, args.seconds)
        warmup = mixes.fullspace_warmup()
    config = mixes.CONFIGS[args.workload]
    once_s = time.perf_counter() - _START
    clock = HostClock()
    clock.sample(5)

    round_s, warm_signatures = [], []
    for _ in range(1 if args.trace else SETUP_ROUNDS):
        began = time.perf_counter()
        service = OptimizerService(tpch_schema(), config, backend="inline")
        warm_signatures.append([signature(service.submit(r)) for r in warmup])
        service.cache.clear()
        round_s.append(time.perf_counter() - began)
        clock.sample(3)
    if any(s != warm_signatures[0] for s in warm_signatures):
        raise CheckFailed("warm-up results differ between set-up rounds")
    setup_raw_s = once_s + statistics.median(round_s)
    setup_factor = clock.factor()

    timed_from = time.perf_counter()
    raw, scaled, results = closed_loop(service, ops, clock)
    problems = []
    for op, result in zip(ops, results):
        if result is not None:
            problems.extend(check_result(op.request, result))
    require(problems)
    ok = [r for r in results if succeeded(r)]
    failed = len(ops) - len(ok)
    if not args.trace:
        log(
            f"raw: ops_per_s={len(ok) / sum(raw):.4f} "
            f"lat_p50_ms={statistics.median(raw) * 1e3:.3f} "
            f"lat_tail_ms={tail(raw) * 1e3:.3f} setup_s={setup_raw_s:.4f} "
            f"host kernel={clock.kernel_ms():.3f} ms"
        )
        return len(ops), failed, {
            "setup_s": setup_raw_s * setup_factor,
            "ops_per_s": len(ok) / sum(scaled),
            "lat_p50_ms": statistics.median(scaled) * 1e3,
            "lat_tail_ms": tail(scaled) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": len(ok) / len(ops),
            "plan_wcost_gm": geometric_mean(r.weighted_cost for r in ok),
        }

    service.cache.clear()
    layer_clock = LayerClock()
    traced_from = time.perf_counter()
    try:
        install_optimizer_layers(layer_clock)
        _, traced_scaled, traced = closed_loop(service, ops, clock)
    finally:
        layer_clock.uninstall()
    require([
        f"op {i} ({ops[i].label}) differs between the untraced and traced pass"
        for i, (a, b) in enumerate(zip(results, traced))
        if a is not None and (b is None or signature(a) != signature(b))
    ])
    metrics = optimizer_layers(
        layer_clock.snapshot(), [r for r in traced if r is not None],
        clock.factor(traced_from),
    )
    metrics["trace.overhead_frac"] = (
        statistics.fmean(traced_scaled) / statistics.fmean(scaled) - 1.0
    )
    metrics["host.kernel_ms"] = clock.kernel_ms(timed_from)
    return len(ops), failed, metrics


def optimizer_layers(snapshot, results, factor):
    """Per-layer metrics of the optimizer stack; times at reference speed."""
    ns, calls, counts = snapshot["ns"], snapshot["calls"], snapshot["counts"]
    ops = len(results)

    def ms(layer):
        return ns.get(layer, 0) / 1e6 * factor

    materialize = sum(r.phase_ms.get("materialize", 0.0) for r in results) * factor
    considered = sum(r.plans_considered for r in results)
    dp, prune, kernel = ms("dp"), ms("prune"), ms("kernel")
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "pruning.accept_ms": prune / ops,
        "pruning.calls": calls.get("prune", 0),
        "pruning.rows_in": counts.get("prune_rows", 0),
        "pruning.accept_frac": ratio(counts.get("prune_kept", 0), counts.get("prune_rows", 0)),
        "pruning.dp_frac": ratio(prune, dp),
        "plans.materialize_ms": materialize / ops,
        "dp.enumerate_ms": (dp - prune - kernel - materialize) / ops,
        "dp.plans_considered": considered,
        "dp.pareto_plans": counts.get("pareto_plans", 0),
        "dp.block_frac": ratio(sum(r.candidates_vectorized for r in results), considered),
        "cost.kernel_ms": kernel / ops,
        "cost.kernel_rows": counts.get("kernel_rows", 0),
        "cost.kernel_ns_per_row": ratio(kernel * 1e6, counts.get("kernel_rows", 0)),
        "cost.scalar_calls": counts.get("scalar_calls", 0),
        "select.ms": ms("select") / ops,
        "optimizer.execute_ms": ms("optimizer") / ops,
        "optimizer.calls": calls.get("optimizer", 0),
        "service.fingerprint_ms": ms("fingerprint") / ops,
        "service.cache_lookup_ms": ms("cache_lookup") / ops,
        "service.cache_hit_frac": ratio(counts.get("cache_hits", 0), calls.get("cache_lookup", 0)),
        "service.cache_evictions": counts.get("cache_evictions", 0),
        "gc.pause_ms": ms("gc") / ops,
        "gc.gen2_collections": counts.get("gc_gen2", 0),
        "trace.other_frac": 1.0 - ratio(dp + ms("select"), ms("optimizer")),
    })
    return metrics


# ----------------------------------------------------------------------
# Open-loop HTTP workload
# ----------------------------------------------------------------------
def model_hits(warm_ranks, ranks, capacity):
    """Which requests the server's LRU plan cache holds when they arrive."""
    cache = OrderedDict.fromkeys(warm_ranks)
    hits = []
    for rank in ranks:
        hits.append(rank in cache)
        cache[rank] = None
        cache.move_to_end(rank)
        if len(cache) > capacity:
            cache.popitem(last=False)
    return hits


class Responses:
    """Checks wire responses and remembers each distinct answer."""

    def __init__(self, pool, config) -> None:
        self.pool = pool
        self.config = config
        self.requests = {}
        self.answers = {}
        self.problems = []

    def add(self, rank, status, body):
        """Record one response; returns whether it succeeded."""
        from checks import check_wire_result

        if status == 0:
            return False  # connection error, counted as a failure
        try:
            payload = json.loads(body)
        except ValueError:
            self.problems.append(f"response to member {rank} is not JSON")
            return False
        if payload.get("code") in ("shed", "deadline_expired") or status != 200:
            return False
        if rank not in self.requests:
            request = self.pool.request(rank)
            self.requests[rank] = (request, request.fingerprint(self.config))
        request, fingerprint = self.requests[rank]
        problems = check_wire_result(payload, fingerprint, request)
        self.problems.extend(f"member {rank}: {p}" for p in problems)
        if problems:
            return False
        result = payload["result"]
        answer = (tuple(result["plan_cost"]), result["metrics"]["plans_considered"])
        known = self.answers.setdefault(rank, answer)
        if known != answer:
            self.problems.append(f"member {rank} answered {answer} after {known}")
        return True


def run_http_workload(args):
    import loadgen
    import mixes
    from checks import weighted
    from hostspeed import HostClock
    from repro import FAST_CONFIG

    pool = mixes.ZipfPool(args.seed)
    lead = round(mixes.HTTP_RATE * mixes.LEAD_S)
    sent_ranks = pool.draw(lead + max(1, round(mixes.HTTP_RATE * args.seconds)))
    ranks = sent_ranks[lead:]
    warm_ranks = list(range(mixes.WARM_HEAD))
    encoded = {
        rank: loadgen.encode("POST", "/optimize", pool.payload(rank))
        for rank in set(sent_ranks) | set(warm_ranks)
    }
    warm_requests = [encoded[rank] for rank in warm_ranks]
    sent_requests = [encoded[rank] for rank in sent_ranks]
    connections = min(2, len(os.sched_getaffinity(0)))
    responses = Responses(pool, FAST_CONFIG)
    once_s = time.perf_counter() - _START

    def warm(server):
        for rank, (status, body) in zip(
            warm_ranks, asyncio.run(loadgen.sequential(server.port, warm_requests))
        ):
            if not responses.add(rank, status, body):
                responses.problems.append(f"warm-up of member {rank} failed")

    def load(server):
        clock = HostClock()
        clock.sample(5)
        sent = asyncio.run(loadgen.open_loop(
            server.port, sent_requests, mixes.HTTP_RATE, connections, clock
        ))
        clock.sample(3)
        ok = [
            responses.add(rank, status, body)
            for rank, status, body in zip(sent_ranks, sent.status, sent.body)
        ]
        result = sent.after(lead, mixes.HTTP_RATE)
        result.scaled_s = [
            t * clock.factor_at(m) for t, m in zip(result.latency_s, result.moment_s)
        ]
        result.kernel_ms = clock.kernel_ms()
        log(
            f"raw: lat_p50_ms={statistics.median(result.latency_s) * 1e3:.3f} "
            f"lat_tail_ms={tail(result.latency_s) * 1e3:.3f} "
            f"host kernel={result.kernel_ms:.3f} ms"
        )
        late_p99 = statistics.quantiles(result.lag_s, n=100)[98] * 1e3 if len(ranks) > 1 else 0.0
        if late_p99 > LATE_FLAG_MS:
            log(f"FLAG: load generator fell behind (lag p99 {late_p99:.1f} ms)")
        return sent, result, ok, late_p99

    round_s = []
    setup_clock = HostClock()
    setup_clock.sample(5)
    server = None
    try:
        for _ in range(1 if args.trace else SETUP_ROUNDS):
            if server is not None:
                server.stop()
            began = time.perf_counter()
            server = loadgen.ServerProcess(ROOT)
            warm(server)
            round_s.append(time.perf_counter() - began)
            setup_clock.sample(3)
        _, untraced, ok, late_p99 = load(server)
        peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    require(responses.problems)
    failed = ok.count(False)
    if not args.trace:
        answered = {rank for rank, good in zip(sent_ranks, ok) if good}
        return len(sent_ranks), failed, {
            # Latencies and set-up at reference host speed, from kernel
            # samples before every send and around every set-up round
            # (README.md, "Noise"); the schedule sets ops_per_s.
            "setup_s": (once_s + statistics.median(round_s)) * setup_clock.factor(),
            "ops_per_s": ok[lead:].count(True) / untraced.elapsed_s,
            "lat_p50_ms": statistics.median(untraced.scaled_s) * 1e3,
            "lat_tail_ms": tail(untraced.scaled_s) * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": ok.count(True) / len(sent_ranks),
            "plan_wcost_gm": geometric_mean(
                weighted(responses.answers[rank][0], pool.weights[rank])
                for rank in answered
            ),
        }

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        stats_path = Path(tmp) / "layers.json"
        server = loadgen.ServerProcess(ROOT, stats_path)
        try:
            warm(server)
            server.reset_layers()
            before = asyncio.run(loadgen.get_metrics(server.port))
            traced_sent, traced, _, _ = load(server)
            after = asyncio.run(loadgen.get_metrics(server.port))
        finally:
            server.stop()
        snapshot = json.loads(stats_path.read_text())
    require(responses.problems)
    hits = model_hits(warm_ranks, sent_ranks, mixes.CACHE_SIZE)
    metrics = server_layers(snapshot, before, after, traced_sent, hits, late_p99)
    metrics["trace.overhead_frac"] = (
        statistics.fmean(traced.scaled_s) / statistics.fmean(untraced.scaled_s) - 1.0
    )
    metrics["host.kernel_ms"] = traced.kernel_ms
    return len(sent_ranks), failed, metrics


def server_layers(snapshot, before, after, traced, hits, late_p99):
    """Per-layer metrics of the server process (raw times)."""
    ns, calls, counts = snapshot["ns"], snapshot["calls"], snapshot["counts"]
    requests = len(traced.latency_s)

    def ms(layer):
        return ns.get(layer, 0) / 1e6

    def delta(section, key):
        return after[section][key] - before[section][key]

    served = delta("serving", "requests")
    hit_ms = [t * 1e3 for t, hit in zip(traced.latency_s, hits) if hit]
    miss_ms = [t * 1e3 for t, hit in zip(traced.latency_s, hits) if not hit]
    covered = sum(
        ms(layer) for layer in
        ("parse", "queue", "fingerprint", "cache_lookup", "dispatch", "serialize")
    )
    server_ms = sum(
        json.loads(body).get("latency_ms", 0.0) for body in traced.body if body
    )
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "service.fingerprint_ms": ms("fingerprint") / requests,
        "service.cache_lookup_ms": ms("cache_lookup") / requests,
        "service.cache_hit_frac": ratio(counts.get("cache_hits", 0), calls.get("cache_lookup", 0)),
        "service.cache_evictions": counts.get("cache_evictions", 0),
        "pool.dispatch_ms": (ms("dispatch") - counts.get("worker_ms", 0.0)) / requests,
        "pool.request_bytes": ratio(counts.get("request_bytes", 0), calls.get("dispatch", 0)),
        "pool.result_bytes": ratio(counts.get("result_bytes", 0), calls.get("dispatch", 0)),
        "serving.parse_ms": ms("parse") / requests,
        "serving.queue_wait_ms": ms("queue") / requests,
        "serving.coalesced_frac": ratio(delta("serving", "coalesce_hits"), served),
        "serving.shed_frac": ratio(delta("serving", "sheds"), served),
        "serving.hit_p50_ms": statistics.median(hit_ms) if hit_ms else 0.0,
        "serving.miss_p50_ms": statistics.median(miss_ms) if miss_ms else 0.0,
        "serving.requests": served,
        "serialize.result_ms": ms("serialize") / requests,
        "serialize.response_bytes": statistics.fmean(len(b) for b in traced.body),
        "gc.pause_ms": ms("gc") / requests,
        "gc.gen2_collections": counts.get("gc_gen2", 0),
        "loadgen.late_ms_p99": late_p99,
        "trace.other_frac": 1.0 - ratio(covered, server_ms),
    })
    return metrics


# ----------------------------------------------------------------------
def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        import repro
    except ImportError as error:
        log(f"cannot import the program from {ROOT / 'src'}: {error}")
        return 2
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        log(f"repro imported from {repro.__file__}, not from this checkout")
        return 2
    try:
        if args.workload == "http-zipf":
            attempted, failed, metrics = run_http_workload(args)
        else:
            attempted, failed, metrics = run_optimizer_workload(args)
        correct = True
    except CheckFailed as error:
        log(f"check failed: {error}")
        attempted, failed, metrics, correct = 1, 1, {}, False
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
