"""Tests for plan-set pruning (exact, approximate, aggressive, single-best).

Includes hypothesis invariants: after any insertion sequence, an exact
PlanSet holds a mutually non-dominated frontier that covers every
inserted vector, and an approximate PlanSet alpha-covers every inserted
vector (the local building block of Theorem 3).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.pruning import AggressivePlanSet, PlanSet, SingleBestPlanSet
from repro.cost.vector import approx_dominates, dominates, strictly_dominates

vectors = st.tuples(
    st.floats(0.1, 100, allow_nan=False),
    st.floats(0.1, 100, allow_nan=False),
    st.floats(0.1, 100, allow_nan=False),
)
vector_lists = st.lists(vectors, min_size=1, max_size=60)

#: Inserted at alpha 1.5, these leave two entries in the approximate
#: set and one in the exact set.
NOT_SMALLER_THAN_EXACT = [(2.0, 4.0, 2.0), (2.0, 2.0, 3.0), (2.0, 2.0, 2.0)]


class TestExactPlanSet:
    def test_keeps_incomparable(self):
        plan_set = PlanSet()
        assert plan_set.insert((1, 3), "a")
        assert plan_set.insert((3, 1), "b")
        assert len(plan_set) == 2

    def test_rejects_dominated(self):
        plan_set = PlanSet()
        plan_set.insert((1, 1), "a")
        assert not plan_set.insert((2, 2), "b")
        assert len(plan_set) == 1

    def test_rejects_equal(self):
        plan_set = PlanSet()
        plan_set.insert((1, 1), "a")
        assert not plan_set.insert((1, 1), "b")
        assert len(plan_set) == 1

    def test_evicts_dominated_on_insert(self):
        plan_set = PlanSet()
        plan_set.insert((3, 3), "a")
        plan_set.insert((2, 4), "b")
        assert plan_set.insert((1, 1), "c")
        assert [plan for _, plan in plan_set] == ["c"]

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError):
            PlanSet(alpha=0.9)

    def test_covers_matches_insert_decision(self):
        plan_set = PlanSet()
        plan_set.insert((2, 2), "a")
        assert plan_set.covers((3, 3))
        assert not plan_set.covers((1, 3))

    def test_best_weighted(self):
        plan_set = PlanSet()
        plan_set.insert((1, 10), "a")
        plan_set.insert((10, 1), "b")
        cost, plan = plan_set.best_weighted((1.0, 0.0))
        assert plan == "a"
        assert PlanSet().best_weighted((1.0,)) is None

    @given(vector_lists)
    @settings(max_examples=80, deadline=None)
    def test_invariant_nondominated_cover(self, inserted):
        plan_set = PlanSet()
        for index, vector in enumerate(inserted):
            plan_set.insert(vector, index)
        stored = plan_set.costs
        # Mutually non-dominated.
        for c1 in stored:
            for c2 in stored:
                if c1 is not c2:
                    assert not strictly_dominates(c1, c2) or c1 == c2
        # Every inserted vector is dominated by a stored one.
        for vector in inserted:
            assert any(dominates(c, vector) for c in stored)

    @given(vector_lists)
    @settings(max_examples=50, deadline=None)
    def test_growth_past_numpy_threshold(self, inserted):
        # Force exercising both the small-set Python path and the
        # vectorized path by inserting many incomparable vectors.
        plan_set = PlanSet()
        for index, (a, b, c) in enumerate(inserted):
            # Anti-correlated coordinates maximize incomparability.
            plan_set.insert((a, 100 - a + b * 0, c), index)
        for vector, _ in plan_set:
            assert plan_set.covers(vector)


class TestApproximatePlanSet:
    def test_rejects_approximately_dominated(self):
        plan_set = PlanSet(alpha=1.5)
        plan_set.insert((2.0, 2.0), "a")
        # (1.5, 1.5) is not dominated but approx-dominated at 1.5.
        assert not plan_set.insert((1.5, 1.5), "b")
        # (1.0, 3.0): 2.0 > 1.5 * 1.0 -> not approx-dominated.
        assert plan_set.insert((1.0, 3.0), "c")

    def test_deletion_stays_exact(self):
        # The RTA deletes only *exactly* dominated plans (Section 6.2).
        plan_set = PlanSet(alpha=2.0)
        plan_set.insert((3.0, 3.0), "a")
        plan_set.insert((1.0, 4.0), "b")  # kept: 3 > 2*1 in dim 0? no...
        # (1.0, 4.0): approx check 3 <= 2*1? no -> kept. It does not
        # dominate (3, 3), so both stay.
        assert len(plan_set) == 2

    @given(vector_lists, st.floats(1.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_invariant_alpha_cover(self, inserted, alpha):
        plan_set = PlanSet(alpha=alpha)
        for index, vector in enumerate(inserted):
            plan_set.insert(vector, index)
        stored = plan_set.costs
        for vector in inserted:
            assert any(
                approx_dominates(c, vector, alpha * (1 + 1e-12))
                for c in stored
            )

    @given(vector_lists, st.floats(1.0, 3.0))
    @example(NOT_SMALLER_THAN_EXACT, 1.5)
    @settings(max_examples=50, deadline=None)
    def test_alpha_covers_exact_frontier(self, inserted, alpha):
        """The bound the paper gives: every inserted vector, and so every
        entry of the exact frontier, is alpha-covered by a kept entry.
        It does not bound the set's size (see the next test)."""
        exact = PlanSet()
        approx = PlanSet(alpha=alpha)
        for index, vector in enumerate(inserted):
            exact.insert(vector, index)
            approx.insert(vector, index)
        for vector in list(inserted) + exact.costs:
            assert any(
                approx_dominates(c, vector, alpha * (1 + 1e-12))
                for c in approx.costs
            )

    @pytest.mark.parametrize("chains", [1, 20])
    def test_block_sweep_is_greedy_under_non_transitive_cover(self, chains):
        """At alpha 1.5, row 0 covers row 1 and row 1 covers row 2, but
        row 0 does not cover row 2. Row 1 is rejected, so it must not
        reject row 2: the sweep accepts what the sequential insert loop
        accepts. Twenty such chains in one block take the sweep through
        many accepted rows."""
        chain = np.array([(1.0, 1.0), (1.0, 0.7), (0.7, 0.5)])
        assert approx_dominates(chain[0], chain[1], 1.5)
        assert approx_dominates(chain[1], chain[2], 1.5)
        assert not approx_dominates(chain[0], chain[2], 1.5)
        # Scaling dimension 0 by 4**t and dimension 1 by 4**-t keeps
        # each chain's covers and makes rows of different chains
        # incomparable at alpha 1.5.
        rows = np.concatenate([
            chain * (4.0 ** t, 4.0 ** -t) for t in range(chains)
        ])
        sequential = PlanSet(alpha=1.5)
        inserted = [
            sequential.insert(tuple(row), index)
            for index, row in enumerate(rows.tolist())
        ]
        assert inserted == [True, False, True] * chains
        batched = PlanSet(alpha=1.5)
        keep = batched.block_accept(rows)
        assert keep.tolist() == inserted
        for index in np.flatnonzero(keep):
            batched.force_insert(tuple(rows[index].tolist()), int(index))
        # Each chain's row 2 exactly dominates its row 0, so it replaced it.
        assert batched.entries == sequential.entries
        assert [plan for _, plan in batched.entries] == [
            3 * t + 2 for t in range(chains)
        ]

    def test_may_store_more_than_exact(self):
        """A documented non-property: the insert and delete rules do not
        keep the approximate set at most as large as the exact one.
        (2, 2, 2) is rejected as 1.5-covered by (2, 2, 3), so (2, 2, 3)
        is never deleted, while the exact set keeps only (2, 2, 2)."""
        exact = PlanSet()
        approx = PlanSet(alpha=1.5)
        for index, vector in enumerate(NOT_SMALLER_THAN_EXACT):
            exact.insert(vector, index)
            approx.insert(vector, index)
        assert exact.costs == [(2.0, 2.0, 2.0)]
        assert approx.costs == [(2.0, 4.0, 2.0), (2.0, 2.0, 3.0)]


class TestAggressivePlanSet:
    # (1.0, 2.5) does not exactly dominate (2.0, 2.0) (2.5 > 2.0), but it
    # approximately dominates it at alpha = 1.5 (1.0 <= 3.0, 2.5 <= 3.0).
    # And (2.0, 2.0) does not approximately dominate (1.0, 2.5)
    # (2.0 > 1.5 * 1.0), so the insertion is accepted by both variants.

    def test_discards_approximately_dominated_entries(self):
        plan_set = AggressivePlanSet(alpha=1.5)
        plan_set.insert((2.0, 2.0), "a")
        assert plan_set.insert((1.0, 2.5), "b")
        assert [plan for _, plan in plan_set] == ["b"]

    def test_standard_set_keeps_that_entry(self):
        plan_set = PlanSet(alpha=1.5)
        plan_set.insert((2.0, 2.0), "a")
        assert plan_set.insert((1.0, 2.5), "b")
        assert len(plan_set) == 2  # (2,2) not *exactly* dominated


class TestSingleBestPlanSet:
    def test_keeps_minimum_weighted(self):
        plan_set = SingleBestPlanSet(weights=(1.0, 1.0))
        assert plan_set.insert((2, 2), "a")
        assert not plan_set.insert((3, 3), "b")
        assert plan_set.insert((1, 1), "c")
        assert len(plan_set) == 1
        assert plan_set.entries[0][1] == "c"

    def test_covers_semantics(self):
        plan_set = SingleBestPlanSet(weights=(1.0,))
        plan_set.insert((5.0,), "a")
        assert plan_set.covers((6.0,))
        assert not plan_set.covers((4.0,))

    def test_force_insert_keeps_minimum(self):
        # force_insert delegates to the weighted-minimum rule: the DP
        # only calls it after covers() returned False, so a worse plan
        # must never replace the stored optimum.
        plan_set = SingleBestPlanSet(weights=(1.0,))
        plan_set.force_insert((5.0,), "a")
        plan_set.force_insert((9.0,), "b")
        assert plan_set.entries[0][1] == "a"
        plan_set.force_insert((3.0,), "c")
        assert plan_set.entries[0][1] == "c"


def replay_entries(plan_set):
    """Entries, size and stored cost rows: the state insert_block keeps."""
    size = len(plan_set)
    costs = [] if size == 0 else plan_set._costs[:size].tolist()
    return plan_set.entries, size, costs


def block_builder(keys, labels, built):
    """``build`` for insert_block: row ``p`` becomes plan ``labels[p]``;
    the positions asked for are appended to ``built``."""
    def build(positions):
        built.extend(positions.tolist())
        return [
            (tuple(keys[position].tolist()), int(labels[position]))
            for position in positions
        ]
    return build


#: Rows on a coarse grid: equal and exactly dominated rows are common.
grid_values = st.sampled_from([1.0, 2.0, 3.0, 4.5])


@st.composite
def stored_and_block(draw):
    width = draw(st.sampled_from([3, 9]))
    row = st.lists(grid_values, min_size=width, max_size=width)
    stored = draw(st.lists(row, max_size=40))
    block = draw(st.lists(row, min_size=1, max_size=40))
    return np.array(stored).reshape(-1, width), np.array(block)


class TestInsertBlock:
    """insert_block equals the ordered force_insert replay of its rows:
    entries, their order and the stored cost matrix."""

    @staticmethod
    def filled(factory, stored):
        plan_set = factory()
        for position, row in enumerate(stored.tolist()):
            plan_set.insert(tuple(row), -1 - position)
        return plan_set

    @pytest.mark.parametrize("factory", [
        PlanSet,
        lambda: PlanSet(alpha=1.5),
        lambda: PlanSet(alpha=1.5, exact_suffix=1),
        lambda: AggressivePlanSet(alpha=1.5),
    ], ids=["exact", "approximate", "exact-suffix", "aggressive"])
    @given(stored_and_block())
    @settings(max_examples=60, deadline=None)
    def test_equals_force_insert_replay(self, factory, stored_block):
        stored, block = stored_block
        replayed = self.filled(factory, stored)
        batched = self.filled(factory, stored)
        for position, row in enumerate(block.tolist()):
            replayed.force_insert(tuple(row), position)
        built = []
        batched.insert_block(
            block, block_builder(block, range(len(block)), built)
        )
        assert replay_entries(batched) == replay_entries(replayed)
        if type(batched) is PlanSet:
            # Plans are built only for the rows that stay.
            assert built == [
                plan for _, plan in batched.entries if plan >= 0
            ]

    @pytest.mark.parametrize("alpha, exact_suffix", [
        (1.0, 0), (1.5, 0), (1.5, 1),
    ])
    @given(stored_and_block())
    @settings(max_examples=60, deadline=None)
    def test_after_block_accept_equals_sequential_insert(
        self, alpha, exact_suffix, stored_block
    ):
        stored, block = stored_block

        def factory():
            return PlanSet(alpha=alpha, exact_suffix=exact_suffix)

        sequential = self.filled(factory, stored)
        batched = self.filled(factory, stored)
        for position, row in enumerate(block.tolist()):
            sequential.insert(tuple(row), position)
        accepted = np.flatnonzero(batched.block_accept(block))
        batched.insert_block(
            block[accepted], block_builder(block[accepted], accepted, [])
        )
        assert replay_entries(batched) == replay_entries(sequential)

    @pytest.mark.parametrize("width", [3, 9])
    @pytest.mark.parametrize("stored_rows", [0, 5, 40])
    def test_later_rows_discard_earlier_ones(self, width, stored_rows):
        """Equal rows (the later one discards the earlier) and a row
        discarded by a later, smaller one, against stored sets below and
        above the small-set size."""
        # An antichain (dimension 0 rises, dimension 1 falls); odd rows
        # are below 6.0 in their last dimension.
        stored = np.full((stored_rows, width), 10.0)
        stored[:, 0] += np.arange(stored_rows)
        stored[:, 1] += stored_rows - np.arange(stored_rows)
        stored[1::2, -1] = 2.0
        block = np.array([
            np.full(width, 7.0),
            np.full(width, 7.0),                  # equal: discards row 0
            np.r_[20.0, np.full(width - 1, 1.0)],
            np.full(width, 6.0),                  # discards row 1
            np.r_[1.0, np.full(width - 1, 20.0)],
            np.r_[1.0, np.full(width - 1, 20.0)],  # discards row 4
        ])
        replayed = self.filled(PlanSet, stored)
        batched = self.filled(PlanSet, stored)
        assert len(batched) == stored_rows
        for position, row in enumerate(block.tolist()):
            replayed.force_insert(tuple(row), position)
        built = []
        batched.insert_block(
            block, block_builder(block, range(len(block)), built)
        )
        assert replay_entries(batched) == replay_entries(replayed)
        assert built == [2, 3, 5]
        # Row 3 discards the even stored rows and row 2 those from 10 on.
        assert [plan for _, plan in batched.entries] == [
            -1 - k for k in range(1, min(stored_rows, 10), 2)
        ] + [2, 3, 5]

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_row_accepted_early_is_discarded_later(self, alpha):
        block = np.array([[7.0, 7.0, 7.0], [20.0, 1.0, 1.0],
                          [4.0, 4.0, 4.0], [4.0, 4.0, 4.0]])
        sequential = PlanSet(alpha=alpha)
        batched = PlanSet(alpha=alpha)
        for position, row in enumerate(block.tolist()):
            sequential.insert(tuple(row), position)
        accepted = np.flatnonzero(batched.block_accept(block))
        assert accepted.tolist() == [0, 1, 2]
        built = []
        batched.insert_block(
            block[accepted], block_builder(block[accepted], accepted, built)
        )
        # Row 2 discards row 0 and is not built twice.
        assert built == [1, 2]
        assert [plan for _, plan in batched.entries] == [1, 2]
        assert replay_entries(batched) == replay_entries(sequential)

    def test_single_best_keeps_the_last_accepted_row(self):
        weights = (1.0, 2.0, 0.5)
        block = np.array([
            [4.0, 1.0, 2.0], [3.0, 1.0, 2.0], [9.0, 9.0, 9.0],
            [1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
        ])
        sequential = SingleBestPlanSet(weights)
        batched = SingleBestPlanSet(weights)
        for plan_set in (sequential, batched):
            plan_set.insert((5.0, 5.0, 5.0), -1)
        for position, row in enumerate(block.tolist()):
            sequential.insert(tuple(row), position)
        accepted = np.flatnonzero(batched.block_accept(block))
        assert accepted.tolist() == [0, 1, 3]
        built = []
        batched.insert_block(
            block[accepted], block_builder(block[accepted], accepted, built)
        )
        assert built == [2]
        assert replay_entries(batched) == replay_entries(sequential)
        assert batched.covers((1.0, 1.0, 1.0))
        assert not batched.covers((0.5, 1.0, 1.0))

