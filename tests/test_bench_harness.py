"""Tests for the benchmark harness and the table/figure regenerators."""

import pytest

from repro.bench.figures import compute_figures
from repro.bench.harness import (
    COMPARISON_HEADERS,
    ComparisonRow,
    fmt,
    render_table,
    stopwatch,
)
from repro.bench.table1 import DEFAULT_GRID, run_row
from repro.bench.table2 import TABLE2_ROWS
from repro.bench.table2 import run_row as run_row2


class TestFormatting:
    def test_fmt_integral_float(self):
        assert fmt(8.0) == "8"
        assert fmt(8.25) == "8.250"
        assert fmt(float("-inf")) == "-inf"
        assert fmt(float("inf")) == "inf"
        assert fmt("csa8.2") == "csa8.2"

    def test_render_table_alignment(self):
        text = render_table(
            ["name", "value"], [["a", 1.0], ["bbbb", 22.5]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", "+"}
        assert len(lines) == 5

    def test_stopwatch(self):
        with stopwatch() as t:
            sum(range(1000))
        assert t.seconds >= 0.0


class TestComparisonRow:
    def make(self, hier=10.0, flat=10.0, hsec=0.1, fsec=1.0):
        return ComparisonRow(
            circuit="x",
            topological_delay=20.0,
            hierarchical_delay=hier,
            hierarchical_seconds=hsec,
            flat_delay=flat,
            flat_seconds=fsec,
        )

    def test_exact_and_overestimate(self):
        assert self.make().exact
        row = self.make(hier=12.0)
        assert not row.exact
        assert row.overestimate == 2.0

    def test_speedup(self):
        assert self.make().speedup == 10.0
        assert self.make(hsec=0.0).speedup == float("inf")

    def test_cells_align_with_headers(self):
        assert len(self.make().cells()) == len(COMPARISON_HEADERS)


class TestTable1Rows:
    def test_default_grid_has_nine_circuits(self):
        assert len(DEFAULT_GRID) == 9
        assert len(set(DEFAULT_GRID)) == 9

    def test_small_row_reproduces_shape(self):
        row = run_row(8, 2)
        assert row.circuit == "csa8.2"
        assert row.topological_delay == 26.0
        assert row.hierarchical_delay == 16.0
        assert row.exact
        assert row.extra["refinement_checks"] > 0

    def test_row_without_flat(self):
        row = run_row(8, 4, flat=False)
        assert row.hierarchical_delay == 20.0
        assert row.flat_delay != row.flat_delay  # NaN


class TestTable2Rows:
    def test_row_names_cover_seven_circuits(self):
        assert len(TABLE2_ROWS) == 7

    @pytest.mark.parametrize("name", ["c17", "gfp"])
    def test_rows_run(self, name):
        row = run_row2(name)
        assert row.hierarchical_delay <= row.topological_delay
        assert row.overestimate >= 0


class TestFigures:
    def test_compute_figures_bdd_engine(self, monkeypatch):
        # BDD characterization gives the SAT models the figures plot:
        # every characterization check is decided on both engines.
        from repro.core import required
        from repro.core.xbd0 import StabilityAnalyzer

        verdicts = []

        class BothEngines(StabilityAnalyzer):
            def stable_at(self, output, t):
                verdict = super().stable_at(output, t)
                bdd = StabilityAnalyzer(self.network, self.arrival, "bdd")
                assert bdd.stable_at(output, t) == verdict, (output, t)
                verdicts.append(verdict)
                return verdict

        monkeypatch.setattr(required, "StabilityAnalyzer", BothEngines)
        data = compute_figures()
        assert set(verdicts) == {True, False}
        assert data.fig4_c4 == 10.0
        assert data.fig5_functional_slack == 1.0
