"""Optimizer configuration: operator space, parallelism, timeouts.

The defaults replicate the paper's extended Postgres plan space:
sampling scans over 1%..5% of a base table, joins parameterized by a
degree of parallelism of up to 4, and the two Postgres search-space
heuristics (no Cartesian products unless unavoidable, per-block
optimization) which are hard-wired in the enumerator.

The paper used a two-hour timeout on a 12-core Xeon running C code; the
default here is seconds-scale because pure Python is orders of magnitude
slower — the timeout *mechanism* (finish quickly, keeping a single plan
for untreated table sets) is identical.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from repro.exceptions import OptimizerError
from repro.plans.operators import DEFAULT_SAMPLING_RATES, MAX_DOP, JoinMethod


class PlanShape(enum.Enum):
    """Shape of the enumerated join trees.

    The paper extends Ganguly et al.'s (left-deep) algorithm "to
    generate bushy plans in addition to left-deep plans"; the left-deep
    restriction is kept for ablation (smaller search space, possibly
    worse plans).
    """

    BUSHY = "bushy"
    LEFT_DEEP = "left_deep"


@dataclass(frozen=True)
class OptimizerConfig:
    """Plan-space and resource limits for one optimizer instance."""

    #: Degrees of parallelism offered for join operators.
    dop_values: tuple[int, ...] = (1, 2, 3, 4)

    #: Sampling rates offered by the sampling scan; empty disables sampling.
    sampling_rates: tuple[float, ...] = DEFAULT_SAMPLING_RATES

    #: Join methods available to the enumerator.
    join_methods: tuple[JoinMethod, ...] = (
        JoinMethod.HASH,
        JoinMethod.MERGE,
        JoinMethod.NESTED_LOOP,
        JoinMethod.INDEX_NESTED_LOOP,
    )

    #: Whether index scans are offered as base-table access paths.
    enable_index_scans: bool = True

    #: Join-tree shape: bushy (the paper's extension, default) or
    #: left-deep (the original Ganguly et al. / Selinger space).
    plan_shape: PlanShape = PlanShape.BUSHY

    #: Wall-clock optimization timeout in seconds; ``None`` disables it.
    timeout_seconds: float | None = None

    #: How many candidate plans to generate between timeout checks (the
    #: enumerator checks after each costed block once this many have
    #: accumulated).
    timeout_check_interval: int = 256

    #: Whether the DP loop accumulates per-phase wall-clock timers
    #: (enumerate/kernel/prune/materialize) into its
    #: :class:`~repro.core.instrumentation.Counters`. Timing happens at
    #: block granularity only, so the overhead is a few clock reads per
    #: candidate batch; disable for the leanest possible hot path.
    phase_timers: bool = True

    # Fields deliberately excluded from fingerprint() — REP005 enforces
    # that every exclusion is listed here. Phase timing changes what
    # the DP measures, never which plans come out, so cached results
    # are valid across its settings.
    _FINGERPRINT_EXCLUDED = frozenset({
        "phase_timers",
    })

    def __post_init__(self) -> None:
        if not self.dop_values:
            raise OptimizerError("dop_values must be non-empty")
        for dop in self.dop_values:
            if not 1 <= dop <= MAX_DOP:
                raise OptimizerError(f"DOP {dop} outside [1, {MAX_DOP}]")
        if len(set(self.dop_values)) != len(self.dop_values):
            raise OptimizerError("dop_values must be distinct")
        for rate in self.sampling_rates:
            if not 0.0 < rate < 1.0:
                raise OptimizerError(f"sampling rate {rate} outside (0, 1)")
        if not self.join_methods:
            raise OptimizerError("at least one join method is required")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise OptimizerError("timeout_seconds must be > 0")
        if self.timeout_check_interval < 1:
            raise OptimizerError("timeout_check_interval must be >= 1")

    @property
    def num_join_configs(self) -> int:
        """Number of join operator configurations (method x DOP)."""
        return len(self.join_methods) * len(self.dop_values)

    def fingerprint(self) -> str:
        """Stable canonical string for cache keys.

        Operator sets are order-normalized (sorted) so two configs that
        list the same join methods or DOPs in a different order
        canonicalize identically. All result-affecting fields
        participate — including the timeout, since it changes which
        plans a run can produce. ``phase_timers`` is deliberately
        excluded: it only changes what gets *measured*, never which
        plans are produced.
        """
        return (
            "cfg["
            f"dop={tuple(sorted(self.dop_values))!r};"
            f"rates={tuple(sorted(self.sampling_rates))!r};"
            f"joins={tuple(sorted(m.value for m in self.join_methods))!r};"
            f"index={self.enable_index_scans};"
            f"shape={self.plan_shape.value};"
            f"timeout={self.timeout_seconds!r};"
            f"interval={self.timeout_check_interval}"
            "]"
        )

    def with_timeout(self, timeout_seconds: float | None) -> "OptimizerConfig":
        """Copy of this configuration with a different timeout."""
        return dataclasses.replace(self, timeout_seconds=timeout_seconds)

    def without_sampling(self) -> "OptimizerConfig":
        """Copy of this configuration with sampling scans disabled.

        Used by the single-objective Selinger baseline: without sampling
        every plan for a table set has the same output cardinality, which
        is what makes scalar pruning exact (the classic single-objective
        setting; the original Postgres optimizer has no sampling scan).
        """
        return dataclasses.replace(self, sampling_rates=())


#: Full plan space (paper's setup), no timeout.
DEFAULT_CONFIG = OptimizerConfig()

#: Reduced plan space for fast unit tests and small benchmarks.
FAST_CONFIG = OptimizerConfig(
    dop_values=(1, 2),
    sampling_rates=(0.01, 0.05),
)

#: Single-objective-style plan space (no sampling, serial operators).
SERIAL_CONFIG = OptimizerConfig(
    dop_values=(1,),
    sampling_rates=(),
)
