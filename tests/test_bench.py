"""Benchmark harness: runner aggregation, reporting, experiment wiring."""

import math

import pytest

from repro.bench import (
    BENCH_CONFIG,
    FIGURE9_VARIANTS,
    RUNNING_EXAMPLE_VECTORS,
    Variant,
    bounded_optimum,
    classify_vectors,
    exa_time_complexity,
    figure7_data,
    figure8_pathology,
    format_figure,
    format_series,
    format_table,
    n_bushy,
    n_stored,
    pareto_frontier,
    rta_time_complexity,
    run_comparison,
    selinger_time_complexity,
    weighted_optimum,
)
from repro.bench.experiments import make_optimizer
from repro.bench.reporting import FIGURE9_METRICS
from repro.workload import WorkloadGenerator


class TestComplexityFormulas:
    def test_n_bushy_matches_paper_formula(self):
        # j^(2n-1) * (2(n-1))!/(n-1)!; n=2, j=6 -> 6^3 * 2!/1! = 432.
        assert n_bushy(6, 2) == pytest.approx(432)

    def test_exa_quadratic_in_plan_count(self):
        assert exa_time_complexity(6, 3) == pytest.approx(n_bushy(6, 3) ** 2)

    def test_selinger_smallest(self):
        for n in range(2, 11):
            assert selinger_time_complexity(6, n) < exa_time_complexity(6, n)

    def test_rta_between_for_large_n(self):
        # Figure 7's qualitative ordering for larger n.
        for n in (8, 9, 10):
            rta = rta_time_complexity(6, n, 1e5, 1.5, 3)
            assert selinger_time_complexity(6, n) < rta
            assert rta < exa_time_complexity(6, n)

    def test_finer_alpha_costs_more(self):
        fine = rta_time_complexity(6, 5, 1e5, 1.05, 3)
        coarse = rta_time_complexity(6, 5, 1e5, 1.5, 3)
        assert fine > coarse

    def test_n_stored_grows_with_objectives(self):
        assert n_stored(1e5, 5, 1.1, 6) > n_stored(1e5, 5, 1.1, 3)

    def test_figure7_data_shape(self):
        data = figure7_data()
        assert set(data) == {"n", "EXA", "RTA(1.05)", "RTA(1.5)", "Selinger"}
        assert len(data["EXA"]) == len(data["n"])
        # EXA eventually dwarfs everything (crossover, Figure 7).
        assert data["EXA"][-1] > data["RTA(1.05)"][-1]


class TestRunningExample:
    def test_weighted_and_bounded_optima_differ(self):
        assert weighted_optimum() != bounded_optimum()

    def test_bounded_optimum_respects_bounds(self):
        from repro.bench.running_example import RUNNING_EXAMPLE_BOUNDS

        optimum = bounded_optimum()
        assert all(c <= b for c, b in zip(optimum, RUNNING_EXAMPLE_BOUNDS))

    def test_frontier_subset_of_vectors(self):
        frontier = pareto_frontier()
        assert set(frontier) <= {
            tuple(map(float, v)) for v in RUNNING_EXAMPLE_VECTORS
        }
        assert len(frontier) >= 3

    def test_classification_partitions(self):
        classes = classify_vectors(alpha=1.5)
        total = (
            len(classes["dominated"])
            + len(classes["approximately_dominated"])
            + len(classes["kept"])
        )
        assert total == len(RUNNING_EXAMPLE_VECTORS)
        # Figure 6 needs a non-empty approximately-dominated region.
        assert classes["approximately_dominated"]

    def test_figure8_pathology_holds(self):
        pathology = figure8_pathology()
        assert pathology["kept_approx_dominates"]
        assert pathology["discarded_respects_bounds"]
        assert not pathology["kept_respects_bounds"]


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            "demo", ["c1", "c2"], [("row", [1.0, 2.0]), ("other", [3.0, 4.0])]
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "c1" in lines[1] and "row" in lines[3]

    def test_format_value_ranges(self):
        text = format_table(
            "v", ["a"], [("r", [float("nan")]), ("s", [1e9]), ("t", [0.001])]
        )
        assert "-" in text and "1.00e+09" in text and "0.001" in text

    def test_format_series(self):
        text = format_series("curves", {"n": [1.0, 2.0], "EXA": [10.0, 20.0]})
        assert "n=1" in text and "EXA" in text


class TestRunner:
    @pytest.fixture(scope="class")
    def mini(self):
        optimizer = make_optimizer(timeout_seconds=5.0)
        generator = WorkloadGenerator(
            optimizer.schema, config=BENCH_CONFIG, seed=3
        )
        cases = generator.weighted_cases(3, num_objectives=3, count=2)
        variants = (Variant("EXA", "exa"), Variant("RTA(2)", "rta", 2.0))
        return run_comparison(optimizer, cases, variants)

    def test_aggregates_per_variant(self, mini):
        assert set(mini) == {"EXA", "RTA(2)"}
        for aggregate in mini.values():
            assert aggregate.cases == 2
            assert aggregate.avg_time_ms > 0
            assert aggregate.avg_memory_kb > 0

    def test_exa_defines_best_cost(self, mini):
        # EXA (no timeout on q3) achieves the optimum -> 100%.
        assert mini["EXA"].avg_weighted_cost_pct == pytest.approx(100.0)
        # RTA(2) within its guarantee.
        assert mini["RTA(2)"].avg_weighted_cost_pct <= 200.0 + 1e-9

    def test_format_figure_renders(self, mini):
        from repro.bench.experiments import FigureCell

        cell = FigureCell(3, 3, mini)
        text = format_figure("Figure 9 (test)", [cell], FIGURE9_METRICS)
        assert "timeouts (%)" in text
        assert "q3/l=3" in text
        assert "RTA(2)" in text

    def test_infeasible_share_counts_finished_runs_only(self):
        from repro.bench.runner import RunRecord, _aggregate

        variant = Variant("EXA", "exa")
        records = [
            RunRecord(variant, 10, index, 1.0, 1.0, 1, 1, 1, 1,
                      timed_out, 1.0, respects_bounds)
            for index, (timed_out, respects_bounds) in enumerate([
                (False, True), (False, False), (True, False),
            ])
        ]
        aggregate = _aggregate(variant, 10, records, [1.0] * 3, [1.0] * 3)
        # A timed-out run proves nothing about the bounds.
        assert aggregate.infeasible_pct == pytest.approx(100.0 / 3)

    def test_empty_cases_rejected(self):
        optimizer = make_optimizer(timeout_seconds=1.0)
        with pytest.raises(ValueError):
            run_comparison(optimizer, [], FIGURE9_VARIANTS)

    def test_variant_labels_unique(self):
        labels = [v.label for v in FIGURE9_VARIANTS]
        assert len(set(labels)) == len(labels)
