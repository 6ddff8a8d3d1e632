"""Alternating parent/change perfbench pairs, written to one trajectory file.

Usage (from the repository root)::

    python3 tools/bench_pairs.py --parent-rev HEAD~1 --pairs 5 \
        --workloads rta-9obj rta-fullspace http-zipf --out BENCH_<n>.json

Each pair runs ``perfbench/run.py`` once on the parent revision and once
on this working tree, with the same seed; the side that goes first
alternates from pair to pair so that a slow drift of the host does not
favour one side. Pair ``i`` uses seed ``i + 1``, so the two runs of a
pair draw the same requests and ``plan_wcost_gm`` must agree between
them.

The output holds every run's final JSON line and, per workload and
metric, the median and quartiles of each side plus the ratio of the
medians (change / parent). ``--traced`` adds one ``--trace 1`` run per
side (seed 1) for the per-layer metrics. An existing output file is
updated in place, workload by workload, so ``--pairs 0 --traced`` adds
traced runs to earlier pairs. The parent revision is exported with
``git archive`` into a temporary directory; perfbench itself is never
modified.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Seed of the first pair (and of the traced runs).
FIRST_SEED = 1

#: Seconds before one perfbench run is killed.
RUN_TIMEOUT = 600.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-rev", required=True,
                        help="git revision to export as the parent")
    parser.add_argument("--workloads", nargs="+",
                        default=["rta-9obj", "rta-fullspace", "http-zipf"])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--traced", action="store_true",
                        help="also run one traced run per side")
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One perfbench run; returns its final JSON line (or the failure)."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    try:
        done = subprocess.run(command, cwd=checkout, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": f"killed after {RUN_TIMEOUT:g} s"}
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {done.returncode}",
                "stderr": done.stderr[-2000:]}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    """Per metric: both sides' median and quartiles, and their ratio."""
    values: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        for name, metric in run["result"].get("metrics", {}).items():
            sides = values.setdefault(name, {"parent": [], "change": []})
            sides[run["side"]].append(metric["value"])
    summary = {}
    for name, sides in values.items():
        if not (sides["parent"] and sides["change"]):
            continue
        entry = {side: quartiles(sides[side]) for side in ("parent", "change")}
        parent_median = entry["parent"]["median"]
        entry["ratio"] = (
            entry["change"]["median"] / parent_median if parent_median
            else None
        )
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        label = subprocess.run(
            ["git", "rev-parse", args.parent_rev], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        parent = Path(scratch) / "parent"
        parent.mkdir()
        archive = subprocess.run(
            ["git", "archive", label], cwd=ROOT, capture_output=True,
            check=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive,
                       check=True)
        checkouts = {"parent": parent, "change": ROOT}
        report = {"workloads": {}}
        if args.out.exists():
            report = json.loads(args.out.read_text())
        report["parent"] = label
        for workload in args.workloads:
            entry = report["workloads"].setdefault(workload, {})
            if args.traced:
                entry["traced"] = {"seed": FIRST_SEED,
                                   "seconds": args.seconds}
                for side in ("parent", "change"):
                    entry["traced"][side] = run_once(
                        checkouts[side], workload, FIRST_SEED, args.seconds,
                        trace=1,
                    )
            if not args.pairs:
                args.out.write_text(json.dumps(report, indent=1) + "\n")
                continue
            runs = []
            for pair in range(args.pairs):
                seed = FIRST_SEED + pair
                order = ("parent", "change") if pair % 2 == 0 else (
                    "change", "parent")
                for side in order:
                    result = run_once(checkouts[side], workload, seed,
                                      args.seconds)
                    runs.append({"side": side, "pair": pair, "seed": seed,
                                 "result": result})
                    print(f"{workload} pair {pair} {side}: "
                          f"{json.dumps(result)[:160]}", file=sys.stderr,
                          flush=True)
            entry.update(pairs=args.pairs, seconds=args.seconds, runs=runs,
                         summary=summarize(runs))
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
