"""Figure 10 — EXA vs IRA(1.15/1.5/2) on bounded MOQO.

All nine objectives are optimized; the number of bounded objectives
varies over 3/6/9 (the paper's setup). Paper shape: the EXA's
performance is insensitive to the number of bounds and keeps timing
out; the IRA rarely times out and is much faster in aggregate; IRA
iteration counts can exceed one (and do not correlate simply with the
user precision).

Scale note: reduced operator space, cases per cell and timeout (see
``repro.bench.experiments``); scale up via REPRO_BENCH_* env vars.
"""

from types import SimpleNamespace

import pytest

from repro.bench.experiments import figure10_experiment
from repro.bench.reporting import FIGURE10_METRICS, format_figure

IRA_LABELS = ("IRA(1.15)", "IRA(1.5)", "IRA(2)")


def timeout_separation(cells, label, reference="EXA"):
    """``(won, lost)`` of ``label`` against ``reference``, per case.

    ``won`` counts the cases where only the reference timed out,
    ``lost`` those where only ``label`` did. Every variant runs the same
    cases, so ``sum(reference %) - sum(label %)`` over the cells is
    ``(100 / cases) * (won - lost)``: comparing the summed timeout
    percentages is comparing ``won`` with ``lost``.
    """
    won = lost = 0
    for cell in cells:
        reference_timed_out = {
            r.case_index: r.timed_out
            for r in cell.aggregates[reference].records
        }
        for record in cell.aggregates[label].records:
            other = reference_timed_out[record.case_index]
            won += other and not record.timed_out
            lost += record.timed_out and not other
    return won, lost


def check_timeout_separation(separation):
    """Assert the IRA's timeout advantage over the EXA, case by case.

    A variant may tie only at ``0/0``: the budget then separated none of
    its cases (both finished or both timed out everywhere), which says
    nothing about the ordering. Any variant the budget does separate
    must win more cases than it loses, and at least one variant must be
    separated at all.
    """
    for label, (won, lost) in separation.items():
        assert won > lost or won == lost == 0, (
            f"{label} won {won} and lost {lost} timeout cases against "
            "the EXA"
        )
    assert any(won > lost for won, lost in separation.values()), (
        "the budget separated no IRA variant from the EXA"
    )


def format_separation(separation):
    lines = ["\ntimeout separation against the EXA (won/lost cases):"]
    for label, (won, lost) in separation.items():
        if won == lost == 0:
            lines.append(f"  {label}: not separated at this budget")
        else:
            lines.append(f"  {label}: {won}/{lost}")
    return "\n".join(lines)


def finished_totals(cells, label, reference="EXA"):
    """Summed ``avg_time_ms`` of ``label`` and of ``reference`` over the
    cells ``label`` finished (no timeout), and the number of such cells."""
    finished = [c for c in cells if c.aggregates[label].timeout_pct == 0.0]
    return (
        sum(c.aggregates[label].avg_time_ms for c in finished),
        sum(c.aggregates[reference].avg_time_ms for c in finished),
        len(finished),
    )


def format_totals(totals):
    lines = ["\ntotal time on the cells each variant finished (ms):"]
    for label, (ira_total, exa_total, cells) in totals.items():
        lines.append(
            f"  {label}: {ira_total:.0f} vs EXA {exa_total:.0f} "
            f"over {cells} cells"
        )
    return "\n".join(lines)


def test_fig10_bounded_moqo(benchmark, report):
    cells = benchmark.pedantic(
        lambda: figure10_experiment(bound_counts=(3, 6, 9)),
        rounds=1, iterations=1,
    )
    separation = {
        label: timeout_separation(cells, label) for label in IRA_LABELS
    }
    totals = {label: finished_totals(cells, label) for label in IRA_LABELS}
    report(format_figure(
        "Figure 10 — bounded MOQO: EXA vs IRA", cells, FIGURE10_METRICS,
        parameter_label="b",
    ) + format_separation(separation) + format_totals(totals))

    # Timeout picture: the IRA times out on fewer cases than the EXA
    # (paper, at 2h scale: 464 EXA timeouts vs <= 4 per IRA). At this
    # seconds-scale stand-in both exceed the budget on the largest
    # queries, and the IRA occasionally does where the EXA does not,
    # when tight bounds force many refinement iterations (see core.ira).
    # So the check pairs the variants case by case rather than assuming
    # IRA <= EXA on every case.
    exa_timeouts = sum(c.aggregates["EXA"].timeout_pct for c in cells)
    assert exa_timeouts > 0, "expected EXA timeouts in the workload"
    check_timeout_separation(separation)

    # Total optimization time, on the cells each IRA variant finished:
    # the IRA undercuts the EXA there (comparing over all cells would
    # be distorted by the timeout cap truncating the EXA's real cost).
    for label, (ira_total, exa_total, finished) in totals.items():
        assert finished
        assert ira_total < exa_total

    # Iteration counts: at least one everywhere; the refinement
    # mechanism fires somewhere (the paper reports up to ~100
    # iterations, and more iterations for *larger* user alpha — check
    # the aggregate direction over all cells).
    for cell in cells:
        for label in IRA_LABELS:
            assert cell.aggregates[label].avg_iterations >= 1.0
    total_iterations = {
        label: sum(c.aggregates[label].avg_iterations for c in cells)
        for label in IRA_LABELS
    }
    assert max(total_iterations.values()) > len(cells), (
        "no cell ever refined beyond the first iteration"
    )
    # Paper: "in some cases, the number of iterations of the IRA
    # increases with the user-defined approximation factor" — check the
    # aggregate direction with slack (timeout-truncated cells add noise).
    assert total_iterations["IRA(2)"] >= 0.8 * total_iterations["IRA(1.15)"]

    # Bound satisfaction: random bounds can be *jointly* infeasible
    # (each is anchored at a different objective's optimum), in which
    # case Definition 2's fallback makes violating plans correct. The
    # meaningful check: whenever the finished EXA found a
    # bound-respecting plan for a case, the finished IRA found one too
    # (guaranteed by the stopping condition).
    for cell in cells:
        exa_records = {
            r.case_index: r for r in cell.aggregates["EXA"].records
        }
        for label in IRA_LABELS:
            for record in cell.aggregates[label].records:
                if record.timed_out:
                    continue
                exa_record = exa_records[record.case_index]
                if exa_record.timed_out:
                    continue
                if exa_record.respects_bounds:
                    assert record.respects_bounds, (
                        f"{label} q{cell.query_number}/b={cell.parameter} "
                        f"case {record.case_index}: EXA found a feasible "
                        "plan but the IRA returned an infeasible one"
                    )


def synthetic_cells(timeouts):
    """One cell from ``{label: [timed_out, ...]}`` over the same cases."""
    aggregates = {
        label: SimpleNamespace(records=[
            SimpleNamespace(case_index=index, timed_out=timed_out)
            for index, timed_out in enumerate(flags)
        ])
        for label, flags in timeouts.items()
    }
    return [SimpleNamespace(aggregates=aggregates)]


T, F = True, False


@pytest.mark.parametrize("timeouts, passes", [
    # IRA(1.15) tied with the EXA on every case, the others separated
    # and ahead: the tie separates nothing and is not a failure.
    ({"EXA": [T, T, F], "IRA(1.15)": [T, T, F],
      "IRA(1.5)": [F, T, F], "IRA(2)": [F, F, T]}, True),
    # IRA(2) wins one case and loses one: as many timeouts as the EXA.
    ({"EXA": [T, T, F, F], "IRA(1.15)": [F, T, F, F],
      "IRA(1.5)": [F, F, F, F], "IRA(2)": [F, T, T, F]}, False),
    # A variant behind the EXA.
    ({"EXA": [T, F, F], "IRA(1.15)": [F, F, F],
      "IRA(1.5)": [T, T, T], "IRA(2)": [F, F, F]}, False),
    # The budget separates no variant at all.
    ({"EXA": [T, T, F], "IRA(1.15)": [T, T, F],
      "IRA(1.5)": [T, T, F], "IRA(2)": [T, T, F]}, False),
])
def test_fig10_timeout_separation_check(timeouts, passes):
    """The per-case check fails whenever the summed timeout
    percentages would not favour a separated IRA variant."""
    cells = synthetic_cells(timeouts)
    separation = {
        label: timeout_separation(cells, label) for label in IRA_LABELS
    }
    if passes:
        check_timeout_separation(separation)
    else:
        with pytest.raises(AssertionError):
            check_timeout_separation(separation)
