"""Plan-set maintenance with (approximate) dominance pruning.

``PlanSet`` implements the ``Prune`` procedure shared by Algorithm 1
(EXA) and Algorithm 2 (RTA):

* a new plan is **rejected** if an existing plan (approximately,
  with internal precision alpha) dominates its cost vector;
* on insertion, existing plans **strictly dominated** by the new plan
  are discarded (always with exact dominance — the paper warns that
  discarding approximately dominated plans would let stored vectors
  drift arbitrarily far from the true frontier; that variant is provided
  as :class:`AggressivePlanSet` for the ablation study).

``SingleBestPlanSet`` keeps only the best weighted plan — the behaviour
the paper's implementation switches to after a timeout ("finishes
quickly by only generating one plan for all table sets that have not
been treated so far"), and also exactly Selinger-style single-objective
pruning.

Performance: coverage checks run once per *candidate* plan (millions per
query) against sets that can hold thousands of entries, so the cost
vectors are mirrored in a capacity-doubling numpy matrix and coverage /
discard are evaluated as vectorized comparisons. Small sets use a plain
Python loop (numpy call overhead dominates below ~16 entries). The
block check behind :meth:`PlanSet.covers_many` eliminates rows: it
compares the candidates with the stored entries slab by slab (64
entries, then 128, 256, ...) and drops each candidate as soon as a slab
covers it, so the later, larger slabs meet only the few rows still
uncovered (on nine objectives most candidates are covered early). Small
slab comparisons broadcast to one ``rows x entries x width`` boolean
cube; larger ones AND the per-dimension ``rows x entries`` comparisons
instead, which skips the slow reduction over the short trailing axis.

Block operations: the batched enumerator of :mod:`repro.core.dp` tests
whole candidate blocks via :meth:`PlanSet.block_accept` — a coverage
check against the stored entries (:meth:`PlanSet.covers_many`, with the
thresholds of :meth:`PlanSet.covers`) followed by an ordered sweep
against the block's earlier *accepted* candidates — and stores the
accepted rows with one :meth:`PlanSet.insert_block` call, which
settles them in one matrix pass and builds plans only for the rows
that stay. **Determinism contract:** for every structure here,
``block_accept`` plus ``insert_block`` equals inserting the candidates
one by one with :meth:`PlanSet.insert`. For ``PlanSet`` this holds
because discards use *exact* dominance: a discarded entry is covered
by its discarder, so removing it never un-covers a later candidate,
and which rows and entries survive a block does not depend on the
order of the discards. :class:`AggressivePlanSet` discards
*approximately* dominated entries, so its ``block_accept`` and
``insert_block`` replay its own insert/discard loop instead.
:meth:`PlanSet.force_insert` (insert without the coverage check) stays
as the per-row reference that the tests replay.

``repro lint`` rule REP001 statically enforces this module's side of
the contract: no ambient entropy (unseeded RNG, clock reads, unordered
set iteration) may influence which plans are kept.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.cost.vector import approx_dominates, dominates, weighted_cost
from repro.plans.plan import Plan, PlanBlock

CostTuple = tuple[float, ...]
Entry = tuple[CostTuple, Plan]

#: Below this size, pure-Python scans beat numpy call overhead.
_SMALL_SET = 16

#: Initial capacity of the numpy cost matrix.
_INITIAL_CAPACITY = 32

#: Element budget (rows x entries x width) per slab comparison in
#: covers_many (bounds the temporary bool arrays to a few MB regardless
#: of block and set size).
_BLOCK_CMP_BUDGET = 1 << 22

#: Stored entries in the first slab of covers_many's row-eliminating
#: scan; each later slab is twice the size of the one before.
_FIRST_SLAB = 64

#: Up to this many elements (rows x entries x width) a slab comparison
#: builds the 3-D boolean cube in one broadcast; above it, ANDing the
#: per-dimension (rows, entries) comparisons is faster. Measured
#: crossover: ~400 elements at width 3, ~5000 at width 9.
_CUBE_ELEMENTS = 1 << 10


def _covered_rows(stored: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Rows of ``thresholds`` that some row of ``stored`` dominates."""
    width = stored.shape[1]
    if len(thresholds) * len(stored) * width <= _CUBE_ELEMENTS:
        return (
            (stored[None, :, :] <= thresholds[:, None, :])
            .all(axis=2)
            .any(axis=1)
        )
    hit = stored[:, 0] <= thresholds[:, 0, None]
    for dimension in range(1, width):
        hit &= stored[:, dimension] <= thresholds[:, dimension, None]
    return hit.any(axis=1)


class PlanSet:
    """Set of cost-incomparable plans for one table set.

    ``exact_suffix`` marks how many trailing dimensions of the stored
    tuples are compared *exactly* even when ``alpha > 1``. Strict-mode
    pruning (see :func:`repro.core.dp.strict_closure`) appends the plan's output cardinality as
    such a dimension: a plan may then only prune another if it produces
    no more rows, which is what makes the near-optimality argument
    sound when sampling makes cardinality plan-dependent.
    """

    __slots__ = ("alpha", "entries", "exact_suffix", "_costs", "_size",
                 "_block")

    def __init__(self, alpha: float = 1.0, exact_suffix: int = 0) -> None:
        if alpha < 1.0:
            raise ValueError(f"internal precision must be >= 1, got {alpha}")
        if exact_suffix < 0:
            raise ValueError("exact_suffix must be >= 0")
        self.alpha = alpha
        self.exact_suffix = exact_suffix
        self.entries: list[Entry] = []
        self._costs: np.ndarray | None = None
        self._size = 0
        self._block: PlanBlock | None = None

    # ------------------------------------------------------------------
    # Pruning protocol
    # ------------------------------------------------------------------
    def insert(self, cost: CostTuple, plan: Plan) -> bool:
        """Prune the set with a new plan; returns True if it was kept."""
        if self.covers(cost):
            return False
        self.force_insert(cost, plan)
        return True

    def covers(self, cost: CostTuple) -> bool:
        """Whether an existing plan (approximately) dominates ``cost``.

        Hot-loop pre-check: candidates whose cost is covered can be
        discarded before a plan object is even constructed.
        """
        size = self._size
        if size == 0:
            return False
        alpha = self.alpha
        threshold = self._threshold(cost, alpha)
        if size <= _SMALL_SET:
            for existing_cost, _ in self.entries:
                if dominates(existing_cost, threshold):
                    return True
            return False
        matrix = self._costs[:size]
        return bool((matrix <= threshold).all(axis=1).any())

    def _threshold(self, cost: CostTuple, alpha: float) -> CostTuple:
        """Per-dimension acceptance threshold for the coverage check."""
        if alpha == 1.0:
            return cost
        if self.exact_suffix == 0:
            return tuple(c * alpha for c in cost)
        scaled = len(cost) - self.exact_suffix
        return tuple(
            c * alpha if i < scaled else c for i, c in enumerate(cost)
        )

    def force_insert(self, cost: CostTuple, plan: Plan) -> None:
        """Insert without the coverage check (caller ran ``covers``)."""
        self._discard_dominated(cost)
        self._append(cost, plan)

    def insert_block(
        self,
        keys: np.ndarray,
        build: Callable[[np.ndarray], list[Entry]],
    ) -> None:
        """Insert a block's accepted rows at once (caller ran
        :meth:`block_accept`); equals :meth:`force_insert` of each row
        in order, entry order and stored costs included.

        ``keys`` is the ``(k, width)`` matrix of accepted rows, and
        ``build(positions)`` returns the ``(cost, plan)`` entries of the
        rows at ``positions`` (cost tuples equal to those rows), so
        plans are built only for the rows that stay. Exact discards
        make the replay's outcome order-free: a row stays iff no
        *later* row dominates it, and a stored entry goes iff any row
        does — equivalently, any staying row, since exact dominance is
        transitive. The survivors keep their order, followed by the
        staying rows in order.
        """
        if len(keys) == 0:
            return
        # dominated[i, j]: row j dominates row i. ANDing the
        # per-dimension (k, k) comparisons keeps the temporaries at
        # k x k, never k x k x width.
        dominated = keys[None, :, 0] <= keys[:, 0, None]
        for dimension in range(1, keys.shape[1]):
            dominated &= keys[None, :, dimension] <= keys[:, dimension, None]
        stay = np.flatnonzero(~np.triu(dominated, 1).any(axis=1))
        kept = keys[stay]
        size = self._size
        if size:
            discarded = _covered_rows(kept, self._costs[:size])
            if discarded.any():
                self._rebuild(~discarded)
                size = self._size
        self.entries.extend(build(stay))
        end = size + len(stay)
        self._reserve(end, keys.shape[1])
        self._costs[size:end] = kept
        self._size = end
        self._block = None

    # ------------------------------------------------------------------
    # Block operations (batched enumeration)
    # ------------------------------------------------------------------
    def covers_many(self, candidates: np.ndarray) -> np.ndarray:
        """Keep mask over a candidate cost matrix vs the stored entries.

        ``candidates`` is ``(k, width)`` in enumeration order; the
        result is ``True`` where **no** stored entry (approximately,
        with the set's alpha and exact-suffix thresholds) dominates the
        row — the batched equivalent of ``not covers(row)`` for every
        row, against the *current* entries only (candidates are not
        compared to each other; see :meth:`block_accept`).
        """
        return self._not_covered(candidates, self._block_thresholds(candidates))

    def block_accept(self, candidates: np.ndarray) -> np.ndarray:
        """Accept mask for an ordered candidate block (does not mutate).

        Phase 1 masks rows covered by the stored entries
        (:meth:`covers_many`); phase 2 sweeps the survivors in
        enumeration order, dropping any candidate approximately
        dominated by an earlier *accepted* candidate of the same block.
        The first survivor left is always accepted, so the sweep accepts
        it and drops, in one comparison, every later survivor it covers:
        it takes one step per accepted row, not per survivor. One
        ``alive`` mask over the survivors records the drops, so no step
        copies the arrays; a dropped survivor never drops another, which
        keeps the sweep greedy when approximate dominance is not
        transitive. :meth:`insert_block` of the accepted rows then
        reproduces the sequential :meth:`insert` loop bit for bit
        (module docstring: determinism contract).
        """
        thresholds = self._block_thresholds(candidates)
        keep = self._not_covered(candidates, thresholds)
        survivors = np.flatnonzero(keep)
        if len(survivors) <= 1:
            return keep
        rows = candidates[survivors]
        # One row per dimension: each step then compares contiguous
        # runs and reduces over the short axis, which is faster.
        limits = thresholds[survivors].T.copy()
        alive = np.ones(len(survivors), dtype=bool)
        accepted = 0
        while accepted < len(survivors) - 1:
            later = alive[accepted + 1:]
            # Uncovered: some dimension's limit is below the row's cost.
            later &= (
                limits[:, accepted + 1:] < rows[accepted][:, None]
            ).any(axis=0)
            step = later.argmax()
            if not later[step]:
                break
            accepted += 1 + step
        keep[survivors[~alive]] = False
        return keep

    def plan_block(self) -> PlanBlock:
        """Cached columnar mirror of the stored plans (operand view).

        Built lazily the first time the set is used as a join operand —
        by then the bottom-up DP has finished mutating it — and
        invalidated on any later mutation.
        """
        if self._block is None:
            self._block = PlanBlock([plan for _, plan in self.entries])
        return self._block

    def _block_thresholds(self, candidates: np.ndarray) -> np.ndarray:
        """Batched :meth:`_threshold` (per-row acceptance thresholds)."""
        alpha = self.alpha
        if alpha == 1.0:
            return candidates
        if self.exact_suffix == 0:
            return candidates * alpha
        scaled = candidates.shape[1] - self.exact_suffix
        thresholds = candidates.copy()
        thresholds[:, :scaled] = candidates[:, :scaled] * alpha
        return thresholds

    def _not_covered(
        self, candidates: np.ndarray, thresholds: np.ndarray
    ) -> np.ndarray:
        """Rows of ``thresholds`` that no stored entry dominates.

        Row elimination: the stored entries are visited in slabs of
        doubling size, and each slab is compared only against the rows
        no earlier slab covered, so a block whose rows are mostly
        covered by the first entries never meets the rest. The visiting
        order cannot change an any-reduction, so the mask equals the
        all-pairs check.
        """
        size = self._size
        if size == 0 or len(candidates) == 0:
            return np.ones(len(candidates), dtype=bool)
        matrix = self._costs[:size]
        width = candidates.shape[1]
        rows = thresholds
        alive = None  # block positions of ``rows`` after the first slab
        start = 0
        slab = _FIRST_SLAB
        while True:
            step = min(slab, max(1, _BLOCK_CMP_BUDGET // (len(rows) * width)))
            covered = _covered_rows(matrix[start:start + step], rows)
            start += step
            slab *= 2
            if alive is None:
                keep = ~covered
                if start >= size:
                    return keep
                alive = np.flatnonzero(keep)
                rows = rows[keep]
            else:
                keep[alive[covered]] = False
                if start >= size:
                    return keep
                uncovered = ~covered
                alive = alive[uncovered]
                rows = rows[uncovered]
            if len(alive) == 0:
                return keep

    # ------------------------------------------------------------------
    # Internal storage
    # ------------------------------------------------------------------
    def _append(self, cost: CostTuple, plan: Plan) -> None:
        self.entries.append((cost, plan))
        self._block = None
        size = self._size
        self._reserve(size + 1, len(cost))
        self._costs[size] = cost
        self._size = size + 1

    def _reserve(self, rows: int, width: int) -> None:
        """Grow the cost matrix (doubling) to hold at least ``rows``."""
        if self._costs is None:
            capacity = max(_INITIAL_CAPACITY, rows)
            self._costs = np.empty((capacity, width))
            return
        capacity = self._costs.shape[0]
        if rows <= capacity:
            return
        while capacity < rows:
            capacity *= 2
        size = self._size
        grown = np.empty((capacity, width))
        grown[:size] = self._costs[:size]
        self._costs = grown

    def _rebuild(self, keep_mask: np.ndarray) -> None:
        """Compact storage to the entries selected by ``keep_mask``."""
        kept_indices = np.nonzero(keep_mask)[0]
        self.entries = [self.entries[i] for i in kept_indices]
        self._costs[: len(kept_indices)] = self._costs[kept_indices]
        self._size = len(kept_indices)
        self._block = None

    def _discard_dominated(self, cost: CostTuple) -> None:
        """Drop stored plans the new cost vector dominates (exact)."""
        size = self._size
        if size == 0:
            return
        if size <= _SMALL_SET:
            kept = [
                entry for entry in self.entries if not dominates(cost, entry[0])
            ]
            if len(kept) != size:
                self.entries = kept
                for position, entry in enumerate(kept):
                    self._costs[position] = entry[0]
                self._size = len(kept)
                self._block = None
            return
        dominated = (self._costs[:size] >= cost).all(axis=1)
        if dominated.any():
            self._rebuild(~dominated)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    @property
    def costs(self) -> list[CostTuple]:
        """Stored cost vectors."""
        return [cost for cost, _ in self.entries]

    def best_weighted(self, weights: Sequence[float]) -> Entry | None:
        """Entry minimizing the weighted cost, or None if empty."""
        best: Entry | None = None
        best_value = float("inf")
        for entry in self.entries:
            value = weighted_cost(entry[0], weights)
            if value < best_value:
                best_value = value
                best = entry
        return best


class AggressivePlanSet(PlanSet):
    """Ablation variant: also *discards* approximately dominated plans.

    Section 6.2 explains why this destroys the near-optimality
    guarantee: stored vectors can drift from the real Pareto frontier by
    an unbounded factor as insertions accumulate. Kept for the ablation
    benchmark; never used by RTA/IRA.
    """

    __slots__ = ()

    def block_accept(self, candidates: np.ndarray) -> np.ndarray:
        """Accept mask for an ordered candidate block (does not mutate).

        An approximate discard can remove an entry that later candidates
        would have been covered by, so this runs the insert loop itself
        (coverage check, discard, append) over a copy of the stored
        costs.
        """
        thresholds = self._block_thresholds(candidates)
        alpha = self.alpha
        size = self._size
        stored = np.empty((size + len(candidates), candidates.shape[1]))
        if size:
            stored[:size] = self._costs[:size]
        keep = np.zeros(len(candidates), dtype=bool)
        for position, row in enumerate(candidates):
            live = stored[:size]
            if size and (live <= thresholds[position]).all(axis=1).any():
                continue
            keep[position] = True
            kept = live[~(live * alpha >= row).all(axis=1)]
            size = len(kept)
            stored[:size] = kept
            stored[size] = row
            size += 1
        return keep

    def insert_block(
        self,
        keys: np.ndarray,
        build: Callable[[np.ndarray], list[Entry]],
    ) -> None:
        """Ordered :meth:`force_insert` replay of the accepted rows.

        An approximate discard is not decided by the rows alone (a row
        may discard an entry that does not dominate it exactly), so
        every row is built and inserted in turn.
        """
        for cost, plan in build(np.arange(len(keys))):
            self.force_insert(cost, plan)

    def _discard_dominated(self, cost: CostTuple) -> None:
        size = self._size
        if size == 0:
            return
        alpha = self.alpha
        if size <= _SMALL_SET:
            kept = [
                entry
                for entry in self.entries
                if not approx_dominates(cost, entry[0], alpha)
            ]
            if len(kept) != size:
                self.entries = kept
                for position, entry in enumerate(kept):
                    self._costs[position] = entry[0]
                self._size = len(kept)
                self._block = None
            return
        dominated = (self._costs[:size] * alpha >= cost).all(axis=1)
        if dominated.any():
            self._rebuild(~dominated)


class SingleBestPlanSet(PlanSet):
    """Keeps only the plan with minimal weighted cost.

    Used as the timeout fallback and for single-objective (Selinger
    style) optimization when only the weighted optimum is needed.
    """

    __slots__ = ("weights", "_best_value")

    def __init__(self, weights: tuple[float, ...]) -> None:
        super().__init__(alpha=1.0)
        self.weights = weights
        self._best_value = float("inf")

    def insert(self, cost: CostTuple, plan: Plan) -> bool:
        value = weighted_cost(cost, self.weights)
        if value < self._best_value:
            self._best_value = value
            self.entries = [(cost, plan)]
            self._size = 1
            self._block = None
            if self._costs is None:
                self._costs = np.empty((1, len(cost)))
            self._costs[0] = cost
            return True
        return False

    def covers(self, cost: CostTuple) -> bool:
        return weighted_cost(cost, self.weights) >= self._best_value

    def force_insert(self, cost: CostTuple, plan: Plan) -> None:
        self.insert(cost, plan)

    def insert_block(
        self,
        keys: np.ndarray,
        build: Callable[[np.ndarray], list[Entry]],
    ) -> None:
        """Keep the last accepted row: each accepted row improves on the
        one before (:meth:`block_accept`), so the replay ends with it."""
        if len(keys):
            (cost, plan), = build(np.array([len(keys) - 1]))
            self.insert(cost, plan)

    def block_accept(self, candidates: np.ndarray) -> np.ndarray:
        """Accept exactly the candidates that improve the running best.

        A sequential insert accepts a candidate iff its weighted cost is
        strictly below the best seen so far (initial best included), so
        the batch equivalent is a strict comparison against the running
        prefix minimum. The weighted sum is accumulated dimension by
        dimension in the same order as
        :func:`repro.cost.vector.weighted_cost` to keep the values (and
        hence the strict-inequality decisions) bit-identical.
        """
        width = candidates.shape[1]
        weighted = np.zeros(len(candidates))
        for dimension, weight in zip(range(width), self.weights):
            weighted = weighted + candidates[:, dimension] * weight
        running_best = np.minimum.accumulate(
            np.concatenate(([self._best_value], weighted))
        )[:-1]
        return weighted < running_best
