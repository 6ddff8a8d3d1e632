"""Command-line interface: optimize TPC-H queries from the terminal.

Examples::

    python -m repro.cli --query 3 --algorithm rta --alpha 1.5 \\
        --objectives total_time,buffer_footprint,tuple_loss \\
        --weight total_time=1 --weight tuple_loss=1e5

    python -m repro.cli --query 5 --algorithm ira --alpha 1.2 \\
        --objectives total_time,cores,tuple_loss \\
        --weight total_time=1 --bound tuple_loss=0 --plot total_time:cores

    # Serve the optimizer over HTTP/JSON (POST /optimize, GET /metrics):
    python -m repro.cli serve --port 8080 --fast --max-in-flight 4 \\
        --queue-limit 64 --deadline-timeout 2.0

    # Serve with request tracing, then summarize the recorded traces:
    python -m repro.cli serve --port 8080 --fast --trace-dir traces/
    python -m repro.cli trace traces/trace-*.jsonl --chrome trace.json

    # Draw a parameterized workload family, calibrate its selectivities
    # against generated data, and validate predicted vs executed work:
    python -m repro.cli workload --family tpch-chain --joins 3 \\
        --count 4 --calibrate --validate
    python -m repro.cli workload --family job-chain --joins 5 --optimize

    # Check the tree against the repo's static invariants (REP001-006):
    python -m repro.cli lint src/repro examples --format json
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import pstats
import sys

from repro.catalog.tpch import tpch_schema
from repro.config import DEFAULT_CONFIG, FAST_CONFIG
from repro.core.preferences import Preferences
from repro.core.registry import available_algorithms
from repro.core.request import OptimizationRequest
from repro.core.service import BACKENDS, OptimizerService
from repro.cost.objectives import Objective, parse_objective
from repro.query.tpch_queries import tpch_query
from repro.viz import frontier_scatter, frontier_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Many-objective query optimization on TPC-H "
            "(Trummer & Koch, SIGMOD 2014 reproduction)"
        ),
    )
    parser.add_argument(
        "--query", type=int, required=True, metavar="N",
        help="TPC-H query number (1..22)",
    )
    parser.add_argument(
        "--algorithm", choices=available_algorithms(), default="rta",
        help="optimization algorithm (default: rta)",
    )
    parser.add_argument(
        "--alpha", type=float, default=1.5,
        help="approximation precision alpha >= 1 (default: 1.5)",
    )
    parser.add_argument(
        "--objectives", required=True, metavar="O1,O2,...",
        help="comma-separated objective names (e.g. total_time,tuple_loss)",
    )
    parser.add_argument(
        "--weight", action="append", default=[], metavar="OBJ=W",
        help="weight for one objective (repeatable)",
    )
    parser.add_argument(
        "--bound", action="append", default=[], metavar="OBJ=B",
        help="upper bound for one objective (repeatable)",
    )
    parser.add_argument(
        "--scale-factor", type=float, default=1.0,
        help="TPC-H scale factor for the statistics (default: 1)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="optimization timeout (default: none)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="use the reduced operator space (faster, smaller plan space)",
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default="threads",
        help="execution backend for batch work (default: threads; "
             "'processes' runs warm spawn-safe worker processes)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker count for the chosen backend (default: auto)",
    )
    parser.add_argument(
        "--sweep-alpha", metavar="A1,A2,...", default=None,
        help="optimize the query at several precisions as one batch "
             "through the chosen backend; prints one summary per alpha",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="strict pruning closure (guarantees for any objective subset)",
    )
    parser.add_argument(
        "--profile", nargs="?", const="-", default=None, metavar="PATH",
        help="run the request under cProfile and print the report "
             "(or write the raw stats to PATH for snakeviz/pstats)",
    )
    parser.add_argument(
        "--frontier", action="store_true",
        help="print the full approximate Pareto frontier",
    )
    parser.add_argument(
        "--plot", metavar="X:Y", default=None,
        help="ASCII scatter of the frontier over two objectives",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve the optimizer over HTTP/JSON: POST /optimize takes "
            "the repro.plans.serialize request format, GET /metrics "
            "reports coalescing/shedding/latency counters"
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    parser.add_argument(
        "--port", type=int, default=8080,
        help="bind port (0 picks an ephemeral port; default: 8080)",
    )
    parser.add_argument(
        "--scale-factor", type=float, default=1.0,
        help="TPC-H scale factor for the statistics (default: 1)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="use the reduced operator space (faster, smaller plan space)",
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default="threads",
        help="service execution backend (default: threads; 'processes' "
             "sidesteps the GIL with warm worker processes)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker count for the process backend (default: auto)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=256, metavar="N",
        help="plan-cache capacity (default: 256; 0 disables)",
    )
    parser.add_argument(
        "--max-in-flight", type=int, default=4, metavar="N",
        help="concurrent optimizations (default: 4)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="admitted requests allowed to wait for a slot before new "
             "arrivals are shed with 429 (default: 64; 0 = never queue)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-optimization timeout baked into the config",
    )
    parser.add_argument(
        "--deadline-timeout", type=float, default=None, metavar="SECONDS",
        help="enable the deadline scheduler with this default end-to-end "
             "budget; queueing time counts against it",
    )
    parser.add_argument(
        "--shed-expired", action="store_true",
        help="503 requests whose budget died while queueing instead of "
             "running the single-plan fallback for them",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="trace every request: append spans to DIR/trace-<pid>.jsonl "
             "(summarize with `repro trace`)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="on SIGTERM/SIGINT, give in-flight optimizations this long "
             "to finish before cancelling them; a forced drain exits "
             "nonzero (default: 10)",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="enable fault injection, e.g. 'seed=7,kill=0.1,drop=0.05' "
             "(same spec format as the REPRO_CHAOS env var; for "
             "resilience testing only)",
    )
    return parser


def serve_main(argv: list[str]) -> int:
    """Entry point of the ``serve`` subcommand."""
    import signal

    from repro.parallel.deadline import DeadlineScheduler
    from repro.resilience.chaos import ChaosInjector, parse_chaos_spec
    from repro.serving.server import AsyncOptimizerServer

    args = build_serve_parser().parse_args(argv)
    config = FAST_CONFIG if args.fast else DEFAULT_CONFIG
    scheduler = None
    try:
        if args.deadline_timeout is not None:
            config = config.with_timeout(args.deadline_timeout)
            scheduler = DeadlineScheduler()
        elif args.timeout is not None:
            config = config.with_timeout(args.timeout)
        chaos = None
        if args.chaos is not None:
            chaos_config = parse_chaos_spec(args.chaos)
            if chaos_config.enabled:
                chaos = ChaosInjector(chaos_config)
        service = OptimizerService(
            tpch_schema(args.scale_factor), config=config,
            cache_size=args.cache_size, backend=args.backend,
            workers=args.workers, scheduler=scheduler,
            chaos=chaos,
        )
        server = AsyncOptimizerServer(
            service,
            host=args.host, port=args.port,
            max_in_flight=args.max_in_flight,
            max_queue_depth=args.queue_limit,
            owns_service=True,
            shed_expired=args.shed_expired,
            trace_dir=args.trace_dir,
        )
    except Exception as error:  # bad flags -> CLI error, no traceback
        raise SystemExit(str(error))

    async def run() -> int:
        # Graceful drain on SIGTERM/SIGINT. Handlers go in *before* the
        # banner prints: supervisors (and the CLI test) treat the banner
        # as "ready", and a signal landing between banner and handler
        # would otherwise kill the process with the default disposition.
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        handled: list[int] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_event.set)
                handled.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # e.g. Windows event loops
        host, port = await server.start()
        print(f"repro optimizer serving on http://{host}:{port}")
        print("  POST /optimize   GET /metrics   GET /healthz")
        print(f"  backend={args.backend} max_in_flight={args.max_in_flight} "
              f"queue_limit={args.queue_limit} "
              f"deadline={'on' if scheduler else 'off'}")
        if args.trace_dir:
            print(f"  tracing to {args.trace_dir}/trace-*.jsonl "
                  f"(summarize with `repro trace`)")
        if service.chaos is not None:
            print(f"  CHAOS ENABLED: {args.chaos or 'REPRO_CHAOS env'}")
        # The started server accepts connections on its own, so the
        # main coroutine just waits for the first signal, then drains
        # with the configured timeout.
        try:
            if handled:
                await stop_event.wait()
                print(
                    f"signal received, draining "
                    f"(timeout {args.drain_timeout:g}s)"
                )
                clean = await server.stop(
                    drain_timeout=args.drain_timeout
                )
                if not clean:
                    print("drain timed out: in-flight work cancelled")
                    return 1
                return 0
            await server.serve_forever()
            return 0
        finally:
            for signum in handled:
                loop.remove_signal_handler(signum)

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Summarize JSONL trace files recorded by `repro serve "
            "--trace-dir`: per-request phase breakdown "
            "(queue/coalesce/cache/dispatch/enumerate/kernel/prune/"
            "materialize) and optional Chrome trace-event export"
        ),
    )
    parser.add_argument(
        "files", nargs="+", metavar="FILE",
        help="one or more trace-*.jsonl files",
    )
    parser.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="also write the spans as Chrome trace-event JSON "
             "(load in Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="only print the first N request summaries",
    )
    return parser


def trace_main(argv: list[str]) -> int:
    """Entry point of the ``trace`` subcommand."""
    import json as json_module

    from repro.obs.trace import (
        format_trace_summaries,
        read_spans_jsonl,
        spans_to_chrome_trace,
        summarize_spans,
    )

    args = build_trace_parser().parse_args(argv)
    spans = []
    for path in args.files:
        try:
            spans.extend(read_spans_jsonl(path))
        except OSError as error:
            raise SystemExit(f"cannot read {path}: {error}")
        except ValueError as error:
            raise SystemExit(f"malformed trace file {path}: {error}")
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as sink:
            json_module.dump(spans_to_chrome_trace(spans), sink)
        print(f"chrome trace written to {args.chrome} "
              f"({len(spans)} spans; open in Perfetto)")
        print()
    summaries = summarize_spans(spans)
    if args.limit is not None:
        summaries = summaries[: args.limit]
    print(format_trace_summaries(summaries))
    return 0


def build_workload_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro workload",
        description=(
            "Draw parameterized query families (TPC-H chains, JOB-style "
            "IMDB chains), calibrate cost-model selectivities against "
            "generated data, and validate predicted vs executed work"
        ),
    )
    parser.add_argument(
        "--family", choices=("tpch-chain", "job-chain"), required=True,
        help="workload family to draw from",
    )
    parser.add_argument(
        "--joins", type=int, default=3, metavar="N",
        help="join count: extra joins beyond lineitem for tpch-chain, "
             "chain length 1..8 for job-chain (default: 3)",
    )
    parser.add_argument(
        "--shape", choices=("chain", "star", "cycle"), default="chain",
        help="tpch-chain join-graph shape (default: chain; cycle "
             "requires --joins 4)",
    )
    parser.add_argument(
        "--selectivity", type=float, default=0.3, metavar="S",
        help="anchor-filter selectivity knob in (0, 1] (default: 0.3)",
    )
    parser.add_argument(
        "--count", type=int, default=4, metavar="N",
        help="number of requests to draw (default: 4)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="family seed (same seed => identical fingerprints)",
    )
    parser.add_argument(
        "--scale-factor", type=float, default=None, metavar="SF",
        help="tpch-chain statistics scale (default: execution-scale "
             "0.0002 so --calibrate/--validate stay fast)",
    )
    parser.add_argument(
        "--row-scale", type=float, default=1.0, metavar="X",
        help="job-chain fact-table scale (default: 1)",
    )
    parser.add_argument(
        "--algorithm", choices=available_algorithms(), default="rta",
        help="algorithm for the emitted requests (default: rta)",
    )
    parser.add_argument(
        "--sample-size", type=int, default=512, metavar="N",
        help="rows sampled per table for --calibrate (default: 512)",
    )
    parser.add_argument(
        "--max-plans", type=int, default=12, metavar="N",
        help="join orders executed per query for --validate (default: 12)",
    )
    parser.add_argument(
        "--calibrate", action="store_true",
        help="measure per-predicate selectivities from generated data "
             "and report q-errors (feeds --validate/--optimize)",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="execute alternative join orders and report rank agreement "
             "between estimated and executed work",
    )
    parser.add_argument(
        "--optimize", action="store_true",
        help="run the drawn requests through OptimizerService "
             "(optimize_many) and print one summary per request",
    )
    return parser


def workload_main(argv: list[str]) -> int:
    """Entry point of the ``workload`` subcommand."""
    from repro.cost.model import CostModel
    from repro.workloads import (
        calibrate_family,
        make_family,
        summarize,
        validate_family,
    )

    args = build_workload_parser().parse_args(argv)
    try:
        if args.family == "tpch-chain":
            knobs = dict(
                extra_joins=args.joins, shape=args.shape,
                selectivity=args.selectivity,
            )
            if args.scale_factor is not None:
                knobs["scale_factor"] = args.scale_factor
        else:
            knobs = dict(
                joins=args.joins, selectivity=args.selectivity,
                row_scale=args.row_scale,
            )
        family = make_family(
            args.family, seed=args.seed, algorithm=args.algorithm, **knobs
        )
        requests = family.requests(args.count)
    except Exception as error:  # bad knobs -> CLI error, no traceback
        raise SystemExit(str(error))

    print(f"family {family.knob_fingerprint()} seed={args.seed}")
    for request in requests:
        block = request.query.main_block
        print(f"  {request.query_name}: {block.num_tables} tables, "
              f"{len(block.joins)} joins, {len(block.filters)} filters, "
              f"fingerprint {request.fingerprint()[:16]}")

    calibration = None
    if args.calibrate:
        result = calibrate_family(
            family, count=args.count, sample_size=args.sample_size
        )
        calibration = result.statistics
        overridden = sum(r.overridden for r in result.reports)
        print()
        print(f"calibration over {len(result.reports)} predicates "
              f"({result.sample_size} rows/table sample, "
              f"{overridden} catalog estimates overridden):")
        print(f"  median q-error  catalog={result.median_q_error(False):.3f} "
              f"calibrated={result.median_q_error(True):.3f}")
        print(f"  max q-error     catalog={result.max_q_error(False):.3f} "
              f"calibrated={result.max_q_error(True):.3f}")
        for report in result.reports:
            marker = "*" if report.overridden else " "
            print(f"  {marker} {report.kind:6s} {report.description:48s} "
                  f"est {report.catalog:.4f} -> {report.calibrated:.4f} "
                  f"actual {report.actual:.4f} "
                  f"(q {report.q_error_catalog:.2f} -> "
                  f"{report.q_error_calibrated:.2f})")

    if args.validate:
        cost_model = (
            CostModel(family.schema, calibration=calibration)
            if calibration is not None else None
        )
        reports = validate_family(
            family, count=args.count, cost_model=cost_model,
            max_plans=args.max_plans,
        )
        metrics = summarize(reports)
        label = "calibrated" if calibration is not None else "catalog"
        print()
        print(f"validation ({label} estimates, "
              f"{args.max_plans} join orders/query):")
        for report in reports:
            print(f"  {report.query_name}: {len(report.measurements)} of "
                  f"{report.structures_total} orders executed, "
                  f"tau={report.kendall_tau:+.3f} "
                  f"top-1 regret={report.top1_regret:.1%}")
        print(f"  mean tau={metrics['mean_kendall_tau']:+.3f} "
              f"min tau={metrics['min_kendall_tau']:+.3f} "
              f"max top-1 regret={metrics['max_top1_regret']:.1%}")

    if args.optimize:
        service = OptimizerService(
            family.schema,
            cost_model=CostModel(family.schema, calibration=calibration),
        )
        try:
            results = service.optimize_many(requests)
        finally:
            service.close()
        print()
        print(f"optimized {len(results)} requests:")
        for result in results:
            print(f"  {result.summary()}")
    return 0


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Static analysis over the repo's invariants: determinism "
            "(REP001), lock discipline (REP002), spawn safety (REP003), "
            "async hygiene (REP004), fingerprint completeness (REP005), "
            "cache purity (REP006). Exit 0 = clean, 1 = violations, "
            "2 = analyzer error."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro", "examples"],
        metavar="PATH",
        help="files or directories to analyze "
             "(default: src/repro examples)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="ignore findings recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="write current findings to FILE as the new baseline "
             "and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def lint_main(argv: list[str]) -> int:
    """Entry point of the ``lint`` subcommand."""
    from repro.analysis import (
        Analyzer,
        AnalyzerError,
        all_rules,
        load_baseline,
        render_json,
        render_text,
        write_baseline,
    )
    from repro.analysis.baseline import apply_baseline

    args = build_lint_parser().parse_args(argv)
    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.name}: {rule.description}")
        return 0
    try:
        report = Analyzer(rules).run(args.paths)
        if args.baseline is not None:
            report = apply_baseline(report, load_baseline(args.baseline))
        if args.write_baseline is not None:
            write_baseline(args.write_baseline, report.violations)
            print(f"baseline with {len(report.violations)} entries "
                  f"written to {args.write_baseline}")
            return 0
    except AnalyzerError as error:
        print(f"repro lint: internal analyzer error: {error}",
              file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(report, rules))
    else:
        print(render_text(report))
    return 0 if report.clean else 1


def _parse_assignments(pairs: list[str], label: str) -> dict[Objective, float]:
    parsed: dict[Objective, float] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not value:
            raise SystemExit(f"malformed --{label} {pair!r}; expected OBJ=VALUE")
        try:
            parsed[parse_objective(name)] = float(value)
        except ValueError as error:
            raise SystemExit(f"bad --{label} {pair!r}: {error}")
    return parsed


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "workload":
        return workload_main(argv[1:])
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        objectives = tuple(
            parse_objective(name)
            for name in args.objectives.split(",")
            if name.strip()
        )
    except ValueError as error:
        raise SystemExit(str(error))
    weights = _parse_assignments(args.weight, "weight")
    bounds = _parse_assignments(args.bound, "bound")
    try:
        preferences = Preferences.from_maps(objectives, weights, bounds)
        query = tpch_query(args.query)
    except Exception as error:  # surfaced as CLI errors, not tracebacks
        raise SystemExit(str(error))

    config = FAST_CONFIG if args.fast else DEFAULT_CONFIG
    try:
        config = config.with_timeout(args.timeout)
    except Exception as error:  # e.g. negative --timeout
        raise SystemExit(str(error))
    service = OptimizerService(
        tpch_schema(args.scale_factor), config=config,
        backend=args.backend, workers=args.workers,
    )
    try:
        request = OptimizationRequest(
            query=query,
            preferences=preferences,
            algorithm=args.algorithm,
            alpha=args.alpha,
            strict=args.strict,
            tags=(f"cli:q{args.query}",),
        )
    except Exception as error:  # invalid request -> CLI error, no traceback
        raise SystemExit(str(error))
    profiler = cProfile.Profile() if args.profile is not None else None
    if profiler is not None:
        profiler.enable()
    try:
        if args.sweep_alpha:
            try:
                alphas = tuple(
                    float(part)
                    for part in args.sweep_alpha.split(",")
                    if part.strip()
                )
                if not alphas:
                    raise ValueError("no values")
                batch = [request.replace(alpha=a) for a in alphas]
            except ValueError as error:
                raise SystemExit(f"bad --sweep-alpha: {error}")
            results = service.optimize_many(batch)
            print(f"alpha sweep over {alphas} ({args.backend} backend):")
            for alpha, sweep_result in zip(alphas, results):
                print(f"  alpha={alpha:<6} {sweep_result.summary()}")
            print()
            result = results[-1]
        else:
            result = service.submit(request)
    except Exception as error:
        raise SystemExit(str(error))
    finally:
        if profiler is not None:
            profiler.disable()
        service.close()

    if profiler is not None:
        if args.profile == "-":
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative").print_stats(30)
        else:
            profiler.dump_stats(args.profile)
            print(f"profile written to {args.profile} "
                  f"(inspect with `python -m pstats` or snakeviz)")
        phase_summary = result.phase_summary()
        if phase_summary:
            print(phase_summary)
        print()

    print(result.summary())
    print()
    if result.plan is not None:
        print(result.plan.describe())
        print()
        for objective in objectives:
            print(f"  {objective.name.lower():20s} "
                  f"{result.cost_of(objective):12.6g} {objective.unit}")
    if args.frontier:
        print()
        print(f"approximate Pareto frontier ({len(result.frontier)} plans):")
        print(frontier_table(result, limit=50))
    if args.plot:
        x_name, _, y_name = args.plot.partition(":")
        try:
            x_objective = parse_objective(x_name)
            y_objective = parse_objective(y_name)
            print()
            print(frontier_scatter(result, x_objective, y_objective))
        except Exception as error:
            raise SystemExit(f"--plot failed: {error}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
