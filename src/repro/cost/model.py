"""The nine-objective cost model (Section 4 of the paper).

The model constructs plan nodes and annotates them with full
9-dimensional cost vectors. The formulas are recursive: the cost of a
join plan is computed from the costs of its sub-plans using only the
functions **sum**, **maximum**, **minimum** and **multiplication by a
constant** — plus the tuple-loss formula ``1 - (1 - a) * (1 - b)``. This
is exactly the structural property Section 6.1 of the paper needs for
the principle of near-optimality (PONO), which the property-based tests
in ``tests/test_pono.py`` verify against this implementation.

Objective semantics (vector layout in :mod:`repro.cost.objectives`):

* ``TOTAL_TIME`` / ``STARTUP_TIME`` — Postgres-style formulas; inputs of
  hash and merge joins are generated in parallel, so elapsed time
  combines with ``max`` while the per-operator work is divided by the
  operator's DOP.
* ``IO_LOAD`` / ``CPU_LOAD`` / ``DISK_FOOTPRINT`` / ``ENERGY`` —
  accumulative (sums over the tree); CPU and energy grow with DOP due to
  coordination overhead (this is why energy is *not* perfectly
  correlated with time, as the paper stresses).
* ``CORES`` — parallel-input joins occupy the cores of both inputs
  simultaneously (sum), pipelined joins only the maximum.
* ``BUFFER_FOOTPRINT`` — peak memory: hash joins hold the whole inner in
  memory, sorts hold at most ``work_mem`` per input (spilling to disk
  instead), index-nested-loop joins hold only a probe buffer. This
  reproduces the tradeoff of Figure 3 (weighting buffer space moves
  plans from hash joins to sort-merge / index-nested-loop joins).
* ``TUPLE_LOSS`` — ``1 - (1 - a) * (1 - b)``, the loss of independent
  samples, in one of two forms. When both input losses are below 1/2
  it is computed as ``a + b - a * b``: there ``1 - (1 - x)`` would
  round ``x`` to a multiple of ``2**-53``, so a loss of 3.05e-16
  (1.375x 2.22e-16) would come out as 3.33e-16 (1.5x) and break the
  PONO at alpha 1.375. Otherwise it is computed from the survival
  product, as written. Sampling scans at the default rates (at most
  0.05) produce losses of 0.95 and above, and there ``a + b - a * b``
  would give one table set different last bits along different join
  orders (0.9999749999999998 vs 0.9999750000000001), so exact pruning
  would keep both plans; on a five-table chain query that grew the
  EXA's Pareto set from 254 to 277 plans. Both forms give 0 for two
  losses of 0, so plans built from sampling scans at rates up to 1/2
  keep the survival form's cost bits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.catalog.schema import Schema
from repro.cost import cardinality
from repro.cost.postgres_params import DEFAULT_PARAMS, CostParams
from repro.exceptions import CostModelError
from repro.plans.operators import JoinMethod, JoinSpec, ScanMethod, ScanSpec
from repro.plans.plan import JoinPlan, Plan, PlanBlock, ProbeInfo, ScanPlan
from repro.query.predicate import JoinPredicate
from repro.query.query import Query

# Vector positions (kept as module constants for hot-loop speed).
_TIME = 0
_STARTUP = 1
_IO = 2
_CPU = 3
_CORES = 4
_DISK = 5
_BUFFER = 6
_ENERGY = 7
_LOSS = 8


class CostModel:
    """Builds cost-annotated plan nodes over a schema."""

    def __init__(self, schema: Schema, params: CostParams = DEFAULT_PARAMS,
                 calibration=None):
        self.schema = schema
        self.params = params
        #: Optional data-calibrated selectivity overlay (see
        #: :mod:`repro.cost.cardinality` for the duck-typed protocol and
        #: :class:`repro.workloads.calibrate.CalibratedStatistics` for
        #: the shipped implementation). ``None`` means pure catalog
        #: estimates.
        self.calibration = calibration
        # Join-selectivity memo shared by every enumeration over this
        # cost model — the IRA re-enumerates the same splits each
        # refinement iteration and would otherwise recompute identical
        # estimates (see SelectivityCache).
        self.selectivities = cardinality.SelectivityCache(
            schema, overlay=calibration
        )

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan_plan(self, query: Query, alias: str, spec: ScanSpec) -> ScanPlan:
        """Build a cost-annotated access path for one table instance."""
        table = self.schema.table(query.table_name(alias))
        filters = query.filters_on(alias)
        if spec.method in (ScanMethod.SEQ, ScanMethod.SAMPLE):
            return self._streaming_scan(alias, table, spec, filters)
        if spec.method is ScanMethod.INDEX:
            return self._index_scan(alias, table, spec, filters)
        if spec.method is ScanMethod.INDEX_PROBE:
            raise CostModelError(
                "index probes are built via index_probe_plan(), not scan_plan()"
            )
        raise CostModelError(f"unsupported scan method: {spec.method}")

    def _streaming_scan(self, alias, table, spec, filters) -> ScanPlan:
        p = self.params
        rate = spec.sampling_rate
        pages_read = max(1.0, table.pages * rate)
        rows_scanned = table.row_count * rate
        quals = len(filters)
        local_cpu = (
            p.cpu_tuple_cost * rows_scanned
            + p.cpu_operator_cost * rows_scanned * quals
        )
        total = p.seq_page_cost * pages_read + local_cpu
        loss = 1.0 - rate
        cost = (
            total,
            0.0,
            pages_read,
            local_cpu,
            1.0,
            0.0,
            float(p.scan_buffer),
            p.energy_per_cpu_unit * local_cpu + p.energy_per_page * pages_read,
            loss,
        )
        rows = cardinality.scan_output_rows(table.row_count, rate, filters,
                                            self.calibration)
        return ScanPlan(alias, table.name, spec, rows, table.tuple_width,
                        cost, loss)

    def _index_scan(self, alias, table, spec, filters) -> ScanPlan:
        p = self.params
        index = next(
            (i for i in self.schema.indexes_on(table.name)
             if i.name == spec.index_name),
            None,
        )
        if index is None:
            raise CostModelError(
                f"no index {spec.index_name!r} on table {table.name!r}"
            )
        leading = [f for f in filters if f.column == index.leading_column]
        if not leading:
            raise CostModelError(
                f"index scan on {index.name!r} requires a filter on "
                f"{index.leading_column!r}"
            )
        index_sel = cardinality.filter_selectivity(leading, self.calibration)
        residual = [f for f in filters if f.column != index.leading_column]
        matched = table.row_count * index_sel
        heap_pages = min(float(table.pages), matched)
        leaf_pages = index.leaf_pages * index_sel
        io_pages = index.height + leaf_pages + heap_pages
        local_cpu = (
            p.cpu_index_tuple_cost * matched
            + p.cpu_tuple_cost * matched
            + p.cpu_operator_cost * matched * len(residual)
        )
        total = (
            p.random_page_cost * (index.height + heap_pages)
            + p.seq_page_cost * leaf_pages
            + local_cpu
        )
        startup = p.random_page_cost * index.height
        cost = (
            total,
            startup,
            io_pages,
            local_cpu,
            1.0,
            0.0,
            float(p.scan_buffer),
            p.energy_per_cpu_unit * local_cpu + p.energy_per_page * io_pages,
            0.0,
        )
        rows = cardinality.scan_output_rows(table.row_count, 1.0, filters,
                                            self.calibration)
        return ScanPlan(alias, table.name, spec, rows, table.tuple_width,
                        cost, 0.0)

    def index_probe_plan(
        self, query: Query, alias: str, index_name: str, join_column: str
    ) -> ScanPlan:
        """Build the parameterized inner of an index-nested-loop join.

        The node carries per-probe quantities; its standalone cost vector
        is all zeros because probe work is charged by the join operator
        (it depends on the outer cardinality).
        """
        table = self.schema.table(query.table_name(alias))
        index = self.schema.index_on_column(table.name, join_column)
        if index is None or index.name != index_name:
            raise CostModelError(
                f"no index {index_name!r} with leading column "
                f"{join_column!r} on {table.name!r}"
            )
        filters = query.filters_on(alias)
        matched_rows = table.row_count / table.n_distinct(join_column)
        heap_pages = min(float(table.pages), matched_rows)
        probe_info = ProbeInfo(
            index_height=index.height,
            matched_rows=matched_rows,
            heap_pages=heap_pages,
            residual_quals=len(filters),
        )
        spec = ScanSpec(method=ScanMethod.INDEX_PROBE, index_name=index_name)
        rows = cardinality.scan_output_rows(table.row_count, 1.0, filters,
                                            self.calibration)
        zero = (0.0,) * 9
        return ScanPlan(alias, table.name, spec, rows, table.tuple_width,
                        zero, 0.0, probe_info=probe_info)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def join_plan(
        self,
        query: Query,
        spec: JoinSpec,
        left: Plan,
        right: Plan,
        predicates: tuple[JoinPredicate, ...],
        selectivity: float | None = None,
    ) -> JoinPlan:
        """Build a cost-annotated join of two sub-plans.

        ``selectivity`` may be passed when the caller has already
        estimated it (the enumerator hoists the estimate out of its
        inner loop); otherwise it is derived from the predicates.
        """
        if selectivity is None:
            selectivity = cardinality.join_selectivity(
                self.schema, query, predicates, self.calibration
            )
        out_rows = cardinality.join_output_rows(
            left.rows, right.rows, selectivity
        )
        cost = self.join_cost(spec, left, right, out_rows)
        return JoinPlan(
            spec, left, right, out_rows, left.width + right.width,
            cost, cost[_LOSS],
        )

    def join_cost(
        self, spec: JoinSpec, left: Plan, right: Plan, out_rows: float
    ) -> tuple[float, ...]:
        """Cost vector of joining ``left`` and ``right`` (no plan built).

        Hot-loop entry point: the enumerator prunes on this vector and
        only materializes a :class:`JoinPlan` for surviving candidates.
        """
        method = spec.method
        if method is JoinMethod.HASH:
            return self._hash_cost(spec, left, right, out_rows)
        if method is JoinMethod.MERGE:
            return self._merge_cost(spec, left, right, out_rows)
        if method is JoinMethod.NESTED_LOOP:
            return self._nested_loop_cost(spec, left, right, out_rows)
        if method is JoinMethod.INDEX_NESTED_LOOP:
            return self._index_nl_cost(spec, left, right, out_rows)
        raise CostModelError(f"unsupported join method: {method}")

    # -- shared helpers --------------------------------------------------
    def _accumulate(
        self,
        left: tuple[float, ...],
        right: tuple[float, ...],
        dop: int,
        local_cpu: float,
        local_io: float,
        spill_bytes: float,
    ) -> tuple[float, float, float, float, float]:
        """IO, CPU, disk, energy and loss components (common to all joins)."""
        p = self.params
        cpu_factor = 1.0 + p.parallel_cpu_overhead * (dop - 1)
        energy_factor = 1.0 + p.parallel_energy_overhead * (dop - 1)
        io = left[_IO] + right[_IO] + local_io
        cpu = left[_CPU] + right[_CPU] + local_cpu * cpu_factor
        disk = left[_DISK] + right[_DISK] + spill_bytes
        local_energy = (
            p.energy_per_cpu_unit * local_cpu + p.energy_per_page * local_io
        ) * energy_factor
        energy = left[_ENERGY] + right[_ENERGY] + local_energy
        a, b = left[_LOSS], right[_LOSS]
        # Two forms of one formula; see TUPLE_LOSS in the module docstring.
        if a < 0.5 and b < 0.5:
            loss = a + b - a * b
        else:
            loss = 1.0 - (1.0 - a) * (1.0 - b)
        return io, cpu, disk, energy, loss

    def _hash_cost(self, spec, left, right, out_rows) -> tuple[float, ...]:
        p = self.params
        dop = spec.dop
        build_cpu = 2.0 * p.cpu_operator_cost * right.rows
        probe_cpu = p.cpu_operator_cost * left.rows + p.cpu_tuple_cost * out_rows
        local_cpu = build_cpu + probe_cpu
        io, cpu, disk, energy, loss = self._accumulate(
            left.cost, right.cost, dop, local_cpu, 0.0, 0.0
        )
        lc, rc = left.cost, right.cost
        time = max(lc[_TIME], rc[_TIME]) + local_cpu / dop
        startup = max(lc[_STARTUP], rc[_TIME] + build_cpu / dop)
        cores = max(lc[_CORES] + rc[_CORES], float(dop))
        # In-memory hash table over the whole inner (1.2x for buckets).
        hash_bytes = right.output_bytes * 1.2
        buffer = lc[_BUFFER] + rc[_BUFFER] + hash_bytes
        return (time, startup, io, cpu, cores, disk, buffer, energy, loss)

    def _merge_cost(self, spec, left, right, out_rows) -> tuple[float, ...]:
        p = self.params
        dop = spec.dop

        def sort_terms(child: Plan) -> tuple[float, float, float]:
            """(cpu, spill pages, spill bytes) for sorting one input."""
            rows = max(child.rows, 2.0)
            sort_cpu = 2.0 * p.cpu_operator_cost * child.rows * math.log2(rows)
            if child.output_bytes > p.work_mem:
                spill_bytes = child.output_bytes
                # External sort writes and re-reads each run once.
                spill_pages = 2.0 * spill_bytes / 8192.0
            else:
                spill_bytes = 0.0
                spill_pages = 0.0
            return sort_cpu, spill_pages, spill_bytes

        sort_cpu_l, spill_pages_l, spill_bytes_l = sort_terms(left)
        sort_cpu_r, spill_pages_r, spill_bytes_r = sort_terms(right)
        merge_cpu = (
            p.cpu_tuple_cost * (left.rows + right.rows)
            + p.cpu_tuple_cost * out_rows
        )
        local_cpu = sort_cpu_l + sort_cpu_r + merge_cpu
        local_io = spill_pages_l + spill_pages_r
        spill_bytes = spill_bytes_l + spill_bytes_r
        io, cpu, disk, energy, loss = self._accumulate(
            left.cost, right.cost, dop, local_cpu, local_io, spill_bytes
        )
        lc, rc = left.cost, right.cost
        side_l = lc[_TIME] + (sort_cpu_l + p.seq_page_cost * spill_pages_l) / dop
        side_r = rc[_TIME] + (sort_cpu_r + p.seq_page_cost * spill_pages_r) / dop
        startup = max(side_l, side_r)
        time = startup + merge_cpu / dop
        cores = max(lc[_CORES] + rc[_CORES], float(dop))
        buffer = (
            lc[_BUFFER]
            + rc[_BUFFER]
            + min(left.output_bytes, float(p.work_mem))
            + min(right.output_bytes, float(p.work_mem))
        )
        return (time, startup, io, cpu, cores, disk, buffer, energy, loss)

    def _nested_loop_cost(self, spec, left, right, out_rows) -> tuple[float, ...]:
        p = self.params
        dop = spec.dop
        mat_cpu = p.cpu_tuple_cost * right.rows
        pair_cpu = p.cpu_operator_cost * left.rows * right.rows
        local_cpu = mat_cpu + pair_cpu + p.cpu_tuple_cost * out_rows
        if right.output_bytes > p.work_mem:
            spill_bytes = right.output_bytes
            spill_pages = spill_bytes / 8192.0
            # Write the materialization once, re-read it per outer tuple.
            local_io = spill_pages * (1.0 + max(left.rows - 1.0, 0.0))
        else:
            spill_bytes = 0.0
            local_io = 0.0
        io, cpu, disk, energy, loss = self._accumulate(
            left.cost, right.cost, dop, local_cpu, local_io, spill_bytes
        )
        lc, rc = left.cost, right.cost
        time = (
            max(lc[_TIME], rc[_TIME])
            + (local_cpu + p.seq_page_cost * local_io) / dop
        )
        startup = max(lc[_STARTUP], rc[_TIME] + mat_cpu / dop)
        cores = max(lc[_CORES] + rc[_CORES], float(dop))
        buffer = (
            lc[_BUFFER]
            + rc[_BUFFER]
            + min(right.output_bytes, float(p.work_mem))
        )
        return (time, startup, io, cpu, cores, disk, buffer, energy, loss)

    def _index_nl_cost(self, spec, left, right, out_rows) -> tuple[float, ...]:
        if not isinstance(right, ScanPlan) or right.probe_info is None:
            raise CostModelError(
                "index-nested-loop join requires an index-probe inner"
            )
        p = self.params
        dop = spec.dop
        info = right.probe_info
        probes = left.rows
        probe_io = probes * (info.index_height + info.heap_pages)
        probe_cpu = probes * (
            p.cpu_index_tuple_cost * info.matched_rows
            + p.cpu_tuple_cost * info.matched_rows
            + p.cpu_operator_cost * info.matched_rows * info.residual_quals
        )
        local_cpu = probe_cpu + p.cpu_tuple_cost * out_rows
        io, cpu, disk, energy, loss = self._accumulate(
            left.cost, right.cost, dop, local_cpu, probe_io, 0.0
        )
        lc = left.cost
        time = lc[_TIME] + (p.random_page_cost * probe_io + local_cpu) / dop
        # Pipelined: the first outer tuple triggers the first probe. The
        # min() keeps startup <= total for tiny outers (the first-probe
        # charge is not divided by the DOP) and is PONO-safe.
        startup = min(
            lc[_STARTUP] + p.random_page_cost * (info.index_height + 1.0),
            time,
        )
        cores = max(lc[_CORES], float(dop))
        buffer = lc[_BUFFER] + float(p.probe_buffer)
        return (time, startup, io, cpu, cores, disk, buffer, energy, loss)

    # ------------------------------------------------------------------
    # Batched join-cost kernels (vectorized enumeration hot path)
    # ------------------------------------------------------------------
    # Each kernel mirrors its scalar counterpart above operation for
    # operation, in the same association order, using only elementwise
    # IEEE-exact numpy primitives (+, -, *, /, maximum, minimum, where).
    # This is what makes the vectorized enumerator's results bit-for-bit
    # identical to the scalar loop — do not "simplify" an expression
    # here without making the same change in the scalar formula.

    def join_cost_block(
        self,
        spec: JoinSpec,
        outer: PlanBlock,
        inner: PlanBlock,
        out_rows: np.ndarray,
    ) -> np.ndarray:
        """Cost vectors of joining every (outer, inner) plan pair.

        Batched mirror of :meth:`join_cost`: ``out_rows`` is the
        ``(n_outer, n_inner)`` output-cardinality matrix and the result
        has shape ``(n_outer, n_inner, 9)``, laid out so that
        ``result[i, j]`` equals ``join_cost(spec, outer.plans[i],
        inner.plans[j], out_rows[i, j])`` bit for bit.
        Index-nested-loop joins batch over the outer only — see
        :meth:`index_nl_cost_block`.
        """
        method = spec.method
        if method is JoinMethod.HASH:
            return self._hash_cost_block(spec, outer, inner, out_rows)
        if method is JoinMethod.MERGE:
            return self._merge_cost_block(spec, outer, inner, out_rows)
        if method is JoinMethod.NESTED_LOOP:
            return self._nested_loop_cost_block(spec, outer, inner, out_rows)
        raise CostModelError(
            f"unsupported join method for block costing: {method}"
        )

    def _accumulate_block(self, l, r, dop, local_cpu, local_io, spill_bytes):
        """Batched :meth:`_accumulate`; ``l``/``r`` broadcast over cost rows."""
        p = self.params
        cpu_factor = 1.0 + p.parallel_cpu_overhead * (dop - 1)
        energy_factor = 1.0 + p.parallel_energy_overhead * (dop - 1)
        io = l[..., _IO] + r[..., _IO] + local_io
        cpu = l[..., _CPU] + r[..., _CPU] + local_cpu * cpu_factor
        disk = l[..., _DISK] + r[..., _DISK] + spill_bytes
        local_energy = (
            p.energy_per_cpu_unit * local_cpu + p.energy_per_page * local_io
        ) * energy_factor
        energy = l[..., _ENERGY] + r[..., _ENERGY] + local_energy
        a, b = l[..., _LOSS], r[..., _LOSS]
        loss = np.where(
            (a < 0.5) & (b < 0.5), a + b - a * b, 1.0 - (1.0 - a) * (1.0 - b)
        )
        return io, cpu, disk, energy, loss

    @staticmethod
    def _pack_block(shape, time, startup, io, cpu, cores, disk, buffer,
                    energy, loss) -> np.ndarray:
        """Assemble broadcastable components into a ``shape + (9,)`` block."""
        block = np.empty(shape + (9,))
        block[..., _TIME] = time
        block[..., _STARTUP] = startup
        block[..., _IO] = io
        block[..., _CPU] = cpu
        block[..., _CORES] = cores
        block[..., _DISK] = disk
        block[..., _BUFFER] = buffer
        block[..., _ENERGY] = energy
        block[..., _LOSS] = loss
        return block

    def _hash_cost_block(self, spec, outer, inner, out_rows) -> np.ndarray:
        p = self.params
        dop = spec.dop
        l = outer.costs[:, None, :]
        r = inner.costs[None, :, :]
        build_cpu = 2.0 * p.cpu_operator_cost * inner.rows
        probe_cpu = (
            p.cpu_operator_cost * outer.rows[:, None]
            + p.cpu_tuple_cost * out_rows
        )
        local_cpu = build_cpu[None, :] + probe_cpu
        io, cpu, disk, energy, loss = self._accumulate_block(
            l, r, dop, local_cpu, 0.0, 0.0
        )
        time = np.maximum(l[..., _TIME], r[..., _TIME]) + local_cpu / dop
        startup = np.maximum(
            l[..., _STARTUP], r[..., _TIME] + (build_cpu / dop)[None, :]
        )
        cores = np.maximum(l[..., _CORES] + r[..., _CORES], float(dop))
        hash_bytes = inner.out_bytes * 1.2
        buffer = l[..., _BUFFER] + r[..., _BUFFER] + hash_bytes[None, :]
        return self._pack_block(
            out_rows.shape, time, startup, io, cpu, cores, disk, buffer,
            energy, loss,
        )

    def _merge_cost_block(self, spec, outer, inner, out_rows) -> np.ndarray:
        p = self.params
        dop = spec.dop
        l = outer.costs[:, None, :]
        r = inner.costs[None, :, :]
        work_mem = p.work_mem

        def sort_terms(block: PlanBlock):
            """(cpu, spill pages, spill bytes) vectors for one operand.

            ``block.log2_rows`` already holds ``log2(max(rows, 2))``
            computed with the scalar formula's ``math.log2``.
            """
            sort_cpu = (
                2.0 * p.cpu_operator_cost * block.rows * block.log2_rows
            )
            spills = block.out_bytes > work_mem
            spill_bytes = np.where(spills, block.out_bytes, 0.0)
            spill_pages = np.where(
                spills, 2.0 * block.out_bytes / 8192.0, 0.0
            )
            return sort_cpu, spill_pages, spill_bytes

        sort_cpu_l, spill_pages_l, spill_bytes_l = sort_terms(outer)
        sort_cpu_r, spill_pages_r, spill_bytes_r = sort_terms(inner)
        merge_cpu = (
            p.cpu_tuple_cost * (outer.rows[:, None] + inner.rows[None, :])
            + p.cpu_tuple_cost * out_rows
        )
        local_cpu = sort_cpu_l[:, None] + sort_cpu_r[None, :] + merge_cpu
        local_io = spill_pages_l[:, None] + spill_pages_r[None, :]
        spill_bytes = spill_bytes_l[:, None] + spill_bytes_r[None, :]
        io, cpu, disk, energy, loss = self._accumulate_block(
            l, r, dop, local_cpu, local_io, spill_bytes
        )
        side_l = outer.costs[:, _TIME] + (
            sort_cpu_l + p.seq_page_cost * spill_pages_l
        ) / dop
        side_r = inner.costs[:, _TIME] + (
            sort_cpu_r + p.seq_page_cost * spill_pages_r
        ) / dop
        startup = np.maximum(side_l[:, None], side_r[None, :])
        time = startup + merge_cpu / dop
        cores = np.maximum(l[..., _CORES] + r[..., _CORES], float(dop))
        buffer = (
            l[..., _BUFFER]
            + r[..., _BUFFER]
            + np.minimum(outer.out_bytes, float(work_mem))[:, None]
            + np.minimum(inner.out_bytes, float(work_mem))[None, :]
        )
        return self._pack_block(
            out_rows.shape, time, startup, io, cpu, cores, disk, buffer,
            energy, loss,
        )

    def _nested_loop_cost_block(self, spec, outer, inner, out_rows) -> np.ndarray:
        p = self.params
        dop = spec.dop
        l = outer.costs[:, None, :]
        r = inner.costs[None, :, :]
        mat_cpu = p.cpu_tuple_cost * inner.rows
        pair_cpu = (
            (p.cpu_operator_cost * outer.rows)[:, None] * inner.rows[None, :]
        )
        local_cpu = mat_cpu[None, :] + pair_cpu + p.cpu_tuple_cost * out_rows
        spills = inner.out_bytes > p.work_mem
        spill_bytes_row = np.where(spills, inner.out_bytes, 0.0)
        spill_pages_row = np.where(spills, inner.out_bytes / 8192.0, 0.0)
        # Write the materialization once, re-read it per outer tuple.
        outer_factor = 1.0 + np.maximum(outer.rows - 1.0, 0.0)
        local_io = spill_pages_row[None, :] * outer_factor[:, None]
        io, cpu, disk, energy, loss = self._accumulate_block(
            l, r, dop, local_cpu, local_io, spill_bytes_row[None, :]
        )
        time = (
            np.maximum(l[..., _TIME], r[..., _TIME])
            + (local_cpu + p.seq_page_cost * local_io) / dop
        )
        startup = np.maximum(
            l[..., _STARTUP], r[..., _TIME] + (mat_cpu / dop)[None, :]
        )
        cores = np.maximum(l[..., _CORES] + r[..., _CORES], float(dop))
        buffer = (
            l[..., _BUFFER]
            + r[..., _BUFFER]
            + np.minimum(inner.out_bytes, float(p.work_mem))[None, :]
        )
        return self._pack_block(
            out_rows.shape, time, startup, io, cpu, cores, disk, buffer,
            energy, loss,
        )

    def index_nl_cost_block(
        self,
        spec: JoinSpec,
        outer: PlanBlock,
        probe: Plan,
        out_rows: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`_index_nl_cost` over the outer operand.

        The index-probe inner is a single fixed plan, so the candidate
        block is one-dimensional: ``out_rows`` has shape ``(n_outer,)``
        and so does the first axis of the returned ``(n_outer, 9)``
        block.
        """
        if not isinstance(probe, ScanPlan) or probe.probe_info is None:
            raise CostModelError(
                "index-nested-loop join requires an index-probe inner"
            )
        p = self.params
        dop = spec.dop
        info = probe.probe_info
        l = outer.costs
        r = np.asarray(probe.cost)
        probes = outer.rows
        probe_io = probes * (info.index_height + info.heap_pages)
        probe_cpu = probes * (
            p.cpu_index_tuple_cost * info.matched_rows
            + p.cpu_tuple_cost * info.matched_rows
            + p.cpu_operator_cost * info.matched_rows * info.residual_quals
        )
        local_cpu = probe_cpu + p.cpu_tuple_cost * out_rows
        io, cpu, disk, energy, loss = self._accumulate_block(
            l, r, dop, local_cpu, probe_io, 0.0
        )
        time = l[..., _TIME] + (
            p.random_page_cost * probe_io + local_cpu
        ) / dop
        # Pipelined first-probe startup, clamped to total (see the
        # scalar formula's PONO note).
        startup = np.minimum(
            l[..., _STARTUP]
            + p.random_page_cost * (info.index_height + 1.0),
            time,
        )
        cores = np.maximum(l[..., _CORES], float(dop))
        buffer = l[..., _BUFFER] + float(p.probe_buffer)
        return self._pack_block(
            out_rows.shape, time, startup, io, cpu, cores, disk, buffer,
            energy, loss,
        )
