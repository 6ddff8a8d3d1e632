"""REP001: determinism — no ambient entropy in result-affecting code.

The DP enumerator, pruning, and cost model promise bitwise-identical
frontiers for identical inputs (the tests comparing the batched
enumerator with its per-candidate reference depend on it), and
``fingerprint()`` promises stable cache keys.
Three entropy sources break that silently:

* wall-clock reads (``time.time``/``perf_counter``/``monotonic``) —
  legitimate for deadline checks and phase timers, which suppress with
  a reason; everything else is a latent nondeterminism bug;
* the module-level ``random.*`` functions (shared, unseeded global
  RNG) and zero-argument ``random.Random()``;
* direct iteration over a ``set``/``frozenset`` (hash-order dependent;
  wrap in ``sorted(...)`` instead).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import FileContext, Rule, Violation, register_rule

_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}

_GLOBAL_RNG_CALLS = {
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.uniform",
    "random.gauss",
    "random.expovariate",
    "random.betavariate",
    "random.seed",
}

_SET_CONSTRUCTORS = {"set", "frozenset"}


@register_rule
class DeterminismRule(Rule):
    rule_id = "REP001"
    name = "determinism"
    description = (
        "no unseeded RNG, wall-clock reads, or unordered set iteration "
        "in result-affecting modules"
    )
    path_markers = (
        "/core/dp.py",
        "/core/pruning.py",
        "/cost/",
        "/core/request.py",
        "/core/preferences.py",
        "/config.py",
        "/query/",
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(ctx, node, node.iter)
            elif isinstance(node, ast.comprehension):
                yield from self._check_iteration(ctx, node.iter, node.iter)

    def _check_call(self, ctx: FileContext,
                    node: ast.Call) -> Iterable[Violation]:
        qualified = ctx.qualified_name(node.func)
        if qualified is None:
            return
        if qualified in _CLOCK_CALLS:
            yield self.violation(
                ctx, node,
                f"wall-clock read '{qualified}()' in a result-affecting "
                "module; pass deadlines/timestamps in explicitly or "
                "suppress with a reason",
            )
        elif qualified in _GLOBAL_RNG_CALLS:
            yield self.violation(
                ctx, node,
                f"'{qualified}()' uses the shared unseeded global RNG; "
                "thread a seeded random.Random instance through instead",
            )
        elif qualified == "random.Random" and not node.args \
                and not node.keywords:
            yield self.violation(
                ctx, node,
                "'random.Random()' without a seed is nondeterministic; "
                "pass an explicit seed",
            )

    def _check_iteration(self, ctx: FileContext, report_node: ast.AST,
                         iterable: ast.AST) -> Iterable[Violation]:
        is_set = isinstance(iterable, ast.Set)
        if isinstance(iterable, ast.Call):
            qualified = ctx.qualified_name(iterable.func)
            is_set = qualified in _SET_CONSTRUCTORS
        if is_set:
            yield self.violation(
                ctx, report_node,
                "iteration over an unordered set feeds hash-order into "
                "results; iterate sorted(...) instead",
            )
