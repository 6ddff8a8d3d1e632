"""Tests for plan-set pruning (exact, approximate, aggressive, single-best).

Includes hypothesis invariants: after any insertion sequence, an exact
PlanSet holds a mutually non-dominated frontier that covers every
inserted vector, and an approximate PlanSet alpha-covers every inserted
vector (the local building block of Theorem 3).
"""

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
