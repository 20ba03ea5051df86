"""Smoke tests for the table/figure harness (structure, not numbers)."""

import pytest

from repro.experiments.config import SCALES
from repro.experiments.figures import (
    ALL_POLICIES,
    figure3,
    figure4,
    figure5,
    figure6,
    render_figure3,
    render_figure4,
    render_figure5,
    render_figure6,
)
from repro.experiments.report import ascii_table, bar_chart, decile_histogram
from repro.experiments.tables import (
    render_table1,
    render_table2,
    table1,
    table2,
)

SMOKE = SCALES["smoke"]


class TestTables:
    def test_table1_rows(self):
        rows = table1(SMOKE, seed=5)
        assert len(rows) == 9
        names = [row.name for row in rows]
        assert names[0] == "low-unif" and names[-1] == "high-neg"
        for row in rows:
            assert row.actual_utilization == pytest.approx(
                row.target_utilization, rel=0.15
            )
        pos = {row.name: row for row in rows}
        assert pos["med-pos"].correlation_with_queries > 0.5
        assert pos["med-neg"].correlation_with_queries < -0.5
        assert abs(pos["med-unif"].correlation_with_queries) < 0.3

    def test_render_table1(self):
        text = render_table1(table1(SMOKE, seed=5))
        assert "Table 1" in text
        assert "med-neg" in text

    def test_table2(self):
        profiles = table2()
        assert len(profiles) == 6
        assert "Table 2" in render_table2()


class TestFigure3:
    def test_cases_and_rendering(self):
        cases = figure3(SMOKE, seed=5)
        assert set(cases) == {"med-unif", "med-neg"}
        for case in cases.values():
            assert 0.0 <= case.drop_fraction <= 1.0
            assert len(case.update_counts_executed) == SMOKE.n_items
        text = render_figure3(cases)
        assert "Figure 3" in text

    def test_unit_drops_a_meaningful_share_at_med(self):
        cases = figure3(SMOKE, seed=5)
        assert cases["med-unif"].drop_fraction > 0.2


class TestFigure4:
    def test_matrix_shape(self):
        data = figure4(SMOKE, seed=5)
        assert len(data) == 9
        for trace, row in data.items():
            assert set(row) == set(ALL_POLICIES)
            for value in row.values():
                assert 0.0 <= value <= 1.0  # naive USM is a success ratio
        text = render_figure4(data)
        assert "Figure 4" in text and "UNIT" in text

    def test_replications_average(self):
        single_a = figure4(SMOKE, seed=5)
        single_b = figure4(SMOKE, seed=6)
        averaged = figure4(SMOKE, seed=5, replications=2)
        for trace in averaged:
            for policy in averaged[trace]:
                expected = (single_a[trace][policy] + single_b[trace][policy]) / 2
                assert averaged[trace][policy] == pytest.approx(expected)

    def test_invalid_replications(self):
        with pytest.raises(ValueError):
            figure4(SMOKE, seed=5, replications=0)


class TestFigure5:
    def test_profiles_and_rendering(self):
        data = figure5(SMOKE, seed=5)
        assert set(data) == {
            "lt1-high-cr",
            "lt1-high-cfm",
            "lt1-high-cfs",
            "gt1-high-cr",
            "gt1-high-cfm",
            "gt1-high-cfs",
        }
        text = render_figure5(data)
        assert "penalties < 1" in text


class TestFigure6:
    def test_bars(self):
        data = figure6(SMOKE, seed=5)
        assert [bar.label for bar in data["baselines"]] == ["IMU", "ODU", "QMF"]
        assert len(data["unit"]) == 3
        for bar in data["baselines"] + data["unit"]:
            total = bar.success + bar.rejection + bar.dmf + bar.dsf
            assert total == pytest.approx(1.0)
        text = render_figure6(data)
        assert "Figure 6" in text


class TestReportHelpers:
    def test_ascii_table_alignment(self):
        text = ascii_table(["a", "bb"], [[1, 2.5], ["xyz", 3]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "xyz" in text

    def test_bar_chart_handles_negative_values(self):
        text = bar_chart({"x": -0.5, "y": 1.0}, title="B")
        assert "B" in text and "x" in text

    def test_bar_chart_empty(self):
        assert bar_chart({}, title="E") == "E"

    def test_decile_histogram(self):
        counts = list(range(100))
        buckets = decile_histogram(counts, buckets=10)
        assert len(buckets) == 10
        assert sum(buckets) == sum(counts)

    def test_decile_histogram_validation(self):
        with pytest.raises(ValueError):
            decile_histogram([1, 2], buckets=0)


class TestValidateTrace:
    def test_validate_update_trace(self):
        from repro.sim.rng import RandomStreams
        from repro.workload.updates import STANDARD_UPDATE_TRACES, build_update_trace

        trace = build_update_trace(
            STANDARD_UPDATE_TRACES["med-unif"],
            [5] * 32,
            horizon=200.0,
            streams=RandomStreams(3),
            mean_exec=0.15,
        )
        # CPU demand within 10% of the target utilization.
        target = trace.target_utilization
        assert abs(trace.utilization() - target) <= 0.10 * target
