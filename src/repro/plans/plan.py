"""Query-plan trees with attached cardinality and cost estimates.

Plans are immutable once built; the cost model constructs them and fills
in the 9-dimensional cost vector (see :mod:`repro.cost.objectives` for
the vector layout). ``__slots__`` keeps per-plan memory small — the exact
algorithm stores up to millions of plans, and the paper's memory analysis
assumes O(1) space per stored plan (operator ID plus sub-plan pointers),
which this layout matches.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.plans.operators import JoinSpec, ScanMethod, ScanSpec

#: Approximate bytes a stored plan occupies (node + 9-dim cost vector).
#: Used for the analytic memory accounting of the benchmark harness.
PLAN_BYTES = 200


class Plan:
    """Base class for plan nodes."""

    __slots__ = ("rows", "width", "cost", "loss")

    rows: float  #: estimated output cardinality (after sampling)
    width: int  #: estimated output tuple width in bytes
    cost: tuple[float, ...]  #: full 9-dimensional cost vector
    loss: float  #: accumulated tuple-loss fraction in [0, 1]

    @property
    def aliases(self) -> frozenset[str]:
        """Aliases of the table instances the plan joins."""
        raise NotImplementedError

    @property
    def output_bytes(self) -> float:
        """Estimated output size in bytes."""
        return self.rows * self.width

    def walk(self) -> Iterator["Plan"]:
        """Pre-order traversal of the plan tree."""
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:
        """Readable multi-line plan tree."""
        raise NotImplementedError

    def operator_labels(self) -> list[str]:
        """Labels of all operators in the tree (pre-order)."""
        labels = []
        for node in self.walk():
            if isinstance(node, ScanPlan):
                labels.append(node.spec.label)
            elif isinstance(node, JoinPlan):
                labels.append(node.spec.label)
        return labels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


class ScanPlan(Plan):
    """Leaf node: one access path for one base-table instance."""

    __slots__ = ("alias", "table_name", "spec", "probe_info")

    def __init__(
        self,
        alias: str,
        table_name: str,
        spec: ScanSpec,
        rows: float,
        width: int,
        cost: tuple[float, ...],
        loss: float,
        probe_info: "ProbeInfo | None" = None,
    ) -> None:
        self.alias = alias
        self.table_name = table_name
        self.spec = spec
        self.rows = rows
        self.width = width
        self.cost = cost
        self.loss = loss
        self.probe_info = probe_info

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset((self.alias,))

    @property
    def is_probe(self) -> bool:
        """Whether this leaf is an index-probe inner (IdxNL only)."""
        return self.spec.method is ScanMethod.INDEX_PROBE

    def walk(self) -> Iterator[Plan]:
        yield self

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        return (
            f"{pad}{self.spec.label} {self.table_name}"
            f"{' AS ' + self.alias if self.alias != self.table_name else ''}"
            f"  (rows={self.rows:.0f})"
        )


class ProbeInfo:
    """Per-probe quantities for an index-nested-loop inner.

    ``matched_rows`` is the expected number of heap rows fetched per
    probe (before residual filters); ``heap_pages`` the expected number
    of heap page fetches per probe; ``residual_quals`` the number of
    filter predicates re-checked after the fetch.
    """

    __slots__ = ("index_height", "matched_rows", "heap_pages", "residual_quals")

    def __init__(
        self,
        index_height: int,
        matched_rows: float,
        heap_pages: float,
        residual_quals: int,
    ) -> None:
        self.index_height = index_height
        self.matched_rows = matched_rows
        self.heap_pages = heap_pages
        self.residual_quals = residual_quals


class JoinPlan(Plan):
    """Inner node: a join of two sub-plans with a concrete configuration."""

    __slots__ = ("spec", "left", "right", "_aliases")

    def __init__(
        self,
        spec: JoinSpec,
        left: Plan,
        right: Plan,
        rows: float,
        width: int,
        cost: tuple[float, ...],
        loss: float,
    ) -> None:
        self.spec = spec
        self.left = left
        self.right = right
        self.rows = rows
        self.width = width
        self.cost = cost
        self.loss = loss
        # Computed lazily: most candidate plans are pruned immediately
        # and never need their alias set.
        self._aliases: frozenset[str] | None = None

    @property
    def aliases(self) -> frozenset[str]:
        if self._aliases is None:
            self._aliases = self.left.aliases | self.right.aliases
        return self._aliases

    def walk(self) -> Iterator[Plan]:
        yield self
        yield from self.left.walk()
        yield from self.right.walk()

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.spec.label}  (rows={self.rows:.0f})"]
        lines.append(self.left.describe(indent + 1))
        lines.append(self.right.describe(indent + 1))
        return "\n".join(lines)


class PlanBlock:
    """Columnar (numpy) mirror of a sequence of plans for batched costing.

    The enumerator (:mod:`repro.core.dp`) costs whole candidate blocks
    at once; the batched cost kernels
    (:meth:`repro.cost.model.CostModel.join_cost_block`) read operand
    quantities from these arrays so the hot loop never touches plan
    objects. ``plans`` keeps the originals in the same order, so
    surviving candidates materialize by index.

    ``log2_rows`` stores ``math.log2(max(rows, 2.0))`` per plan. It is
    precomputed here with the *same* ``math.log2`` call the scalar
    sort-merge cost formula makes (one call per stored plan instead of
    one per candidate), which both removes a transcendental from the
    kernel and keeps the kernels bit-for-bit identical to the scalar
    formulas — ``np.log2`` is not guaranteed to round like libm.

    ``probe`` is ``None`` except in blocks of index-probe inners (see
    :meth:`of_probes`), where row ``k`` holds ``(index_height,
    heap_pages, matched_rows, residual_quals)`` of plan ``k``.
    """

    __slots__ = ("plans", "costs", "rows", "out_bytes", "log2_rows", "probe")

    _COLUMNS = ("costs", "rows", "out_bytes", "log2_rows", "probe")

    def __init__(self, plans: Sequence["Plan"]) -> None:
        count = len(plans)
        self.plans: tuple[Plan, ...] = tuple(plans)
        self.costs = np.empty((count, 9))
        self.rows = np.empty(count)
        self.out_bytes = np.empty(count)
        self.log2_rows = np.empty(count)
        self.probe: np.ndarray | None = None
        for position, plan in enumerate(self.plans):
            self.costs[position] = plan.cost
            rows = plan.rows
            self.rows[position] = rows
            self.out_bytes[position] = rows * plan.width
            self.log2_rows[position] = math.log2(max(rows, 2.0))

    @classmethod
    def of_probes(cls, probes: Sequence["ScanPlan"]) -> "PlanBlock":
        """Block of index-probe inners, with their ``probe`` columns."""
        block = cls(probes)
        block.probe = np.array([
            (info.index_height, info.heap_pages, info.matched_rows,
             info.residual_quals)
            for info in (probe.probe_info for probe in probes)
        ], dtype=float).reshape(len(probes), 4)
        return block

    def __len__(self) -> int:
        return len(self.rows)

    def slice(self, start: int, stop: int) -> "PlanBlock":
        """Rows ``[start, stop)``, plans included (numpy views)."""
        block = self.take(np.s_[start:stop])
        block.plans = self.plans[start:stop]
        return block

    def take(self, index) -> "PlanBlock":
        """Columns at ``index`` (any numpy index), without ``plans``.

        Shapes operand columns for the kernels, which broadcast them
        elementwise: ``np.s_[:, None]`` and ``np.s_[None]`` give the
        axes of an ``outer x inner`` block, an integer array gathers
        one row per candidate.
        """
        block = object.__new__(PlanBlock)
        block.plans = ()
        for name in self._COLUMNS:
            column = getattr(self, name)
            setattr(block, name, None if column is None else column[index])
        return block

    @staticmethod
    def concatenate(blocks: Sequence["PlanBlock"]) -> "PlanBlock":
        """The columns of ``blocks`` stacked in order, without ``plans``."""
        block = object.__new__(PlanBlock)
        block.plans = ()
        for name in PlanBlock._COLUMNS:
            columns = [getattr(part, name) for part in blocks]
            setattr(
                block, name,
                None if columns[0] is None else np.concatenate(columns),
            )
        return block


def plan_depth(plan: Plan) -> int:
    """Height of the plan tree (a single scan has depth 1)."""
    if isinstance(plan, JoinPlan):
        return 1 + max(plan_depth(plan.left), plan_depth(plan.right))
    return 1


def count_joins(plan: Plan) -> int:
    """Number of join operators in the plan."""
    return sum(1 for node in plan.walk() if isinstance(node, JoinPlan))


def is_left_deep(plan: Plan) -> bool:
    """Whether every join's right operand is a base-table access."""
    return all(
        isinstance(node.right, ScanPlan)
        for node in plan.walk()
        if isinstance(node, JoinPlan)
    )
