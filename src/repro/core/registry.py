"""Pluggable algorithm registry for the service-oriented optimizer API.

Algorithms register under a short name via the :func:`register_algorithm`
decorator and declare their capabilities in an :class:`AlgorithmSpec`:
whether they consume the approximation precision ``alpha``, whether they
honor cost bounds natively (bounded-weighted MOQO) or require them to be
stripped, and whether they are restricted to a single objective.

All runners share one uniform signature::

    runner(block, cost_model, preferences, *,
           alpha, config, deadline, strict) -> OptimizationResult

``deadline`` is an absolute ``time.perf_counter`` instant (or ``None``)
shared across the blocks of one request so multi-block queries consume
a single budget. Every runner is expected to honor it *and* to report
it honestly: the returned result must set ``deadline_hit`` whenever the
deadline had passed by the end of the run — even if the enumeration's
coarse-grained periodic check never tripped into fallback mode. The six
built-in algorithms do both in one place, :mod:`repro.core.rta`:
:func:`~repro.core.rta.start_clock` turns ``config.timeout_seconds``
into a deadline when none is passed, and
:func:`~repro.core.rta.package_result` sets ``deadline_hit``. The
deadline-aware scheduler and the service's metrics rely on it.

The built-in algorithms — the paper's EXA/RTA/IRA, the single-objective
Selinger baseline and the guarantee-free ``wsum``/``idp`` baselines —
are registered at the bottom of this module; external code can register
additional algorithms the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.config import OptimizerConfig
from repro.core.baselines import idp_moqo, weighted_sum_baseline
from repro.core.exa import exact_moqo
from repro.core.ira import ira
from repro.core.preferences import Preferences
from repro.core.result import OptimizationResult
from repro.core.rta import rta
from repro.core.selinger import selinger
from repro.exceptions import OptimizerError


class AlgorithmRunner(Protocol):
    """Uniform call signature every registered algorithm implements."""

    def __call__(
        self,
        block,
        cost_model,
        preferences: Preferences,
        *,
        alpha: float,
        config: OptimizerConfig,
        deadline: float | None,
        strict: bool,
    ) -> OptimizationResult:
        ...  # pragma: no cover - typing protocol


@dataclass(frozen=True)
class AlgorithmSpec:
    """A registered optimization algorithm plus its declared capabilities.

    ``supports_bounds`` distinguishes bounded-weighted MOQO algorithms
    (EXA, IRA) from pure weighted ones (RTA, wsum, IDP): when ``False``
    the dispatcher strips bounds before running — the historical facade
    behavior. ``rejects_bounds`` is stricter: requests carrying finite
    bounds are refused outright at validation time.
    """

    name: str
    runner: AlgorithmRunner = field(compare=False)
    description: str = ""
    uses_alpha: bool = True
    supports_bounds: bool = False
    rejects_bounds: bool = False
    single_objective_only: bool = False
    supports_strict: bool = False

    # ------------------------------------------------------------------
    def validate(self, preferences: Preferences) -> None:
        """Check a preference set against this algorithm's capabilities."""
        if self.single_objective_only and preferences.num_objectives != 1:
            raise OptimizerError(
                f"the {self.name} algorithm optimizes exactly one "
                f"objective, got {preferences.num_objectives}"
            )
        if self.rejects_bounds and preferences.has_bounds:
            bounded = [o.name for o in preferences.bounded_objectives]
            raise OptimizerError(
                f"the {self.name} algorithm does not accept cost bounds "
                f"(bounded: {bounded})"
            )

    def prepare_preferences(self, preferences: Preferences) -> Preferences:
        """Project preferences onto what the algorithm understands.

        Algorithms without native bound support receive the weighted-only
        projection (``without_bounds``) — matching the legacy facade.
        """
        if not self.supports_bounds and preferences.has_bounds:
            return preferences.without_bounds()
        return preferences


#: name -> spec, in registration order (the order drives CLI choices).
_REGISTRY: dict[str, AlgorithmSpec] = {}


def register_algorithm(
    name: str,
    *,
    description: str = "",
    uses_alpha: bool = True,
    supports_bounds: bool = False,
    rejects_bounds: bool = False,
    single_objective_only: bool = False,
    supports_strict: bool = False,
) -> Callable[[AlgorithmRunner], AlgorithmRunner]:
    """Decorator registering a runner under ``name`` with capabilities."""
    if supports_bounds and rejects_bounds:
        raise OptimizerError(
            f"algorithm {name!r} cannot both support and reject bounds"
        )

    def decorate(runner: AlgorithmRunner) -> AlgorithmRunner:
        if name in _REGISTRY:
            raise OptimizerError(f"algorithm {name!r} already registered")
        _REGISTRY[name] = AlgorithmSpec(
            name=name,
            runner=runner,
            description=description,
            uses_alpha=uses_alpha,
            supports_bounds=supports_bounds,
            rejects_bounds=rejects_bounds,
            single_objective_only=single_objective_only,
            supports_strict=supports_strict,
        )
        return runner

    return decorate


def unregister_algorithm(name: str) -> None:
    """Remove a registered algorithm (primarily for tests/plugins)."""
    _REGISTRY.pop(name, None)


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm or fail with the available names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise OptimizerError(
            f"unknown algorithm {name!r}; expected one of "
            f"{available_algorithms()}"
        ) from None


def available_algorithms() -> tuple[str, ...]:
    """Names of all registered algorithms, in registration order."""
    return tuple(_REGISTRY)


def algorithm_specs() -> tuple[AlgorithmSpec, ...]:
    """All registered specs, in registration order."""
    return tuple(_REGISTRY.values())


# ----------------------------------------------------------------------
# Built-in algorithms (the paper's line-up plus baselines)
# ----------------------------------------------------------------------
@register_algorithm(
    "exa",
    description="exact multi-objective algorithm (full Pareto frontier)",
    uses_alpha=False,
    supports_bounds=True,
    supports_strict=True,
)
def _run_exa(block, cost_model, preferences, *, alpha, config, deadline,
             strict) -> OptimizationResult:
    return exact_moqo(
        block, cost_model, preferences, config,
        deadline=deadline, strict=strict,
    )


@register_algorithm(
    "rta",
    description="representative-tradeoffs approximation scheme "
                "(weighted MOQO, precision alpha)",
    uses_alpha=True,
    supports_bounds=False,
    supports_strict=True,
)
def _run_rta(block, cost_model, preferences, *, alpha, config, deadline,
             strict) -> OptimizationResult:
    return rta(
        block, cost_model, preferences, alpha, config,
        deadline=deadline, strict=strict,
    )


@register_algorithm(
    "ira",
    description="iterative-refinement approximation scheme "
                "(bounded-weighted MOQO, precision alpha)",
    uses_alpha=True,
    supports_bounds=True,
    supports_strict=True,
)
def _run_ira(block, cost_model, preferences, *, alpha, config, deadline,
             strict) -> OptimizationResult:
    return ira(
        block, cost_model, preferences, alpha, config,
        deadline=deadline, strict=strict,
    )


@register_algorithm(
    "selinger",
    description="single-objective Selinger baseline",
    uses_alpha=False,
    supports_bounds=False,
    single_objective_only=True,
)
def _run_selinger(block, cost_model, preferences, *, alpha, config,
                  deadline, strict) -> OptimizationResult:
    return selinger(
        block, cost_model, preferences.objectives[0], config,
        deadline=deadline,
    )


@register_algorithm(
    "wsum",
    description="weighted-sum scalarization baseline (guarantee-free)",
    uses_alpha=False,
    supports_bounds=False,
)
def _run_wsum(block, cost_model, preferences, *, alpha, config, deadline,
              strict) -> OptimizationResult:
    return weighted_sum_baseline(
        block, cost_model, preferences, config, deadline=deadline,
    )


@register_algorithm(
    "idp",
    description="iterative dynamic programming baseline (guarantee-free)",
    uses_alpha=True,
    supports_bounds=False,
)
def _run_idp(block, cost_model, preferences, *, alpha, config, deadline,
             strict) -> OptimizationResult:
    return idp_moqo(
        block, cost_model, preferences, alpha_u=alpha, config=config,
        deadline=deadline,
    )
