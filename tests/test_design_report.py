"""Tests for hierarchical design reports and the hier-report and demand
CLI commands."""

import pytest

from repro.api import AnalysisSession
from repro.circuits.adders import cascade_adder
from repro.cli import main
from repro.core.demand import DemandDrivenAnalyzer
from repro.core.design_report import (
    render_design_report,
    render_hier_report,
)
from repro.parsers.verilog import dumps_verilog


@pytest.fixture(scope="module")
def design():
    d = cascade_adder(8, 2)
    d.name = "csa8_2"
    return d


def demand_report(design, show_nets=False):
    """The demand-driven report, as the ``demand`` command renders it."""
    result = AnalysisSession(design).demand_driven()
    return render_design_report(design, result, show_nets)


class TestRender:
    def test_report_contents(self, design):
        text = demand_report(design)
        assert "Hierarchical timing report for csa8_2" in text
        assert "estimated delay      : 16" in text
        assert "topological estimate : 26" in text
        assert "pessimism removed    : 10" in text
        assert "false-path facts established" in text
        assert "c_in -> c_out  effective delay 2" in text

    def test_outputs_sorted_by_arrival(self, design):
        text = demand_report(design)
        lines = [l for l in text.splitlines() if l.strip().startswith("s")]
        # s7 (worst) listed before s0 (best)
        assert lines[0].split()[0] == "s7"
        assert lines[-1].split()[0] == "s0"

    def test_net_table_optional(self, design):
        without = demand_report(design)
        with_nets = demand_report(design, show_nets=True)
        assert "net" not in without.split("output")[1][:50]
        assert len(with_nets) > len(without)
        assert "c2 " in with_nets or "c2" in with_nets

    def test_render_with_precomputed_result(self, design):
        result = DemandDrivenAnalyzer(design).analyze({"c_in": 3.0})
        text = render_design_report(design, result)
        assert "estimated delay" in text

    def test_two_step_report_contents(self, design):
        text = AnalysisSession(design).hier_report()
        result = AnalysisSession(design).hierarchical()
        assert text == render_hier_report(design, result)
        assert "Hierarchical timing report for csa8_2" in text
        assert "estimated delay      : 16" in text
        assert "modules characterized: 1\n" in text
        assert "model library" not in text
        assert "false-path facts" not in text


class TestCLI:
    @pytest.fixture()
    def verilog_file(self, tmp_path, design):
        f = tmp_path / "csa8_2.v"
        f.write_text(dumps_verilog(design))
        return str(f)

    def test_hier_report(self, verilog_file, capsys):
        """``hier-report`` prints the two-step (Section 3) report."""
        assert main(["hier-report", verilog_file]) == 0
        out = capsys.readouterr().out
        assert "Hierarchical timing report" in out
        assert "modules characterized: 1" in out
        assert "false-path facts" not in out

    def test_demand_report(self, verilog_file, capsys):
        """The demand-driven report lives on the ``demand`` command."""
        assert main(["demand", verilog_file]) == 0
        out = capsys.readouterr().out
        assert "Hierarchical timing report" in out
        assert "false-path facts" in out

    def test_hier_report_with_nets(self, verilog_file, capsys):
        assert main(["hier-report", verilog_file, "--nets"]) == 0
        assert "net" in capsys.readouterr().out

    def test_hier_report_rejects_flat_file(self, tmp_path, capsys):
        from repro.circuits.adders import carry_skip_block

        f = tmp_path / "flat.v"
        f.write_text(dumps_verilog(carry_skip_block(2)))
        assert main(["hier-report", str(f)]) == 2
        assert "flat module" in capsys.readouterr().err

    def test_hier_report_rejects_bench(self, tmp_path, capsys):
        f = tmp_path / "x.bench"
        f.write_text("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
        assert main(["hier-report", str(f)]) == 2

    def test_flat_commands_accept_verilog(self, verilog_file, capsys):
        assert main(["delay", verilog_file]) == 0
        out = capsys.readouterr().out
        assert "c8" in out
