"""Conservatism-audit tests: ForensicsReport on the paper's example.

The carry-skip cascade is the paper's flagship false-path case: the
topological bound charges the ripple carry through every block, and a
single refinement of the block's ``c_in -> c_out`` pin pair (the
carry-skip mux) removes the pessimism.  The audit must attribute the
whole gap to that refinement with exact float equality.
"""

import json
from pathlib import Path

import pytest

from repro.api import AnalysisSession
from repro.circuits.adders import cascade_adder
from repro.cli import main
from repro.core.demand import DemandDrivenAnalyzer
from repro.errors import AnalysisError
from tests.reference import reference_demand

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "csa8_2.v"


@pytest.fixture(scope="module")
def report():
    analyzer = DemandDrivenAnalyzer(cascade_adder(8, 2))
    analyzer.analyze()
    return analyzer.forensics_report()


class TestCarrySkipAudit:
    def test_gap_fully_attributed(self, report):
        assert report.gap_closed > 0
        assert report.fully_attributed
        for row in report.outputs:
            assert row.fully_attributed, row.output

    def test_skip_refinement_closes_the_carry_gap(self, report):
        assert len(report.events) >= 1
        first = report.events[0]
        assert first.module == "csa_block2"
        assert (first.input_port, first.output_port) == ("c_in", "c_out")
        assert first.weight_after < first.weight_before
        assert first.slack_movement > 0
        c8 = report.output("c8")
        assert c8.gap > 0
        assert c8.refinements  # the carry output was moved

    def test_chain_telescopes_exactly(self, report):
        for row in report.outputs:
            chain = row.attribution_chain()
            if not chain:
                assert row.topological_arrival == row.refined_arrival
                continue
            assert chain[0][0] == row.topological_arrival
            assert chain[-1][1] == row.refined_arrival
            for prev, nxt in zip(chain, chain[1:]):
                assert prev[1] == nxt[0]

    def test_delay_matches_analysis(self, report):
        result = DemandDrivenAnalyzer(cascade_adder(8, 2)).analyze()
        assert report.delay == result.delay
        assert report.topological_delay >= report.delay

    def test_unknown_output_raises(self, report):
        with pytest.raises(KeyError):
            report.output("ghost")

    def test_as_dict_round_trips_json(self, report):
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["design"] == report.design
        assert payload["fully_attributed"] is True
        assert len(payload["outputs"]) == len(report.outputs)
        assert len(payload["events"]) == len(report.events)
        by_name = {o["output"]: o for o in payload["outputs"]}
        assert by_name["c8"]["gap"] == report.output("c8").gap

    def test_render_lists_outputs_and_events(self, report):
        text = report.render()
        assert "Conservatism audit" in text
        assert "refined delay" in text
        for row in report.outputs:
            assert row.output in text
        assert "csa_block2" in text


class TestEnginesAndSession:
    def test_engines_agree_exactly(self):
        design = cascade_adder(8, 2)
        analyzer = DemandDrivenAnalyzer(design)
        analyzer.analyze()
        report = analyzer.forensics_report()
        oracle = reference_demand(DemandDrivenAnalyzer(design), {})
        for row in report.outputs:
            assert row.topological_arrival == oracle["topological_at"][row.output]
            assert row.refined_arrival == oracle["net_times"][row.output]
            assert row.required_time == oracle["required_times"][row.output]
        assert len(report.events) == oracle["sta_passes"] - 1
        assert report.refinement_checks == oracle["refinement_checks"]
        assert report.fully_attributed

    def test_report_before_analyze_raises(self):
        analyzer = DemandDrivenAnalyzer(cascade_adder(8, 2))
        with pytest.raises(AnalysisError):
            analyzer.forensics_report()

    def test_session_forensics_fresh_each_call(self):
        session = AnalysisSession(cascade_adder(8, 2))
        session.demand_driven()  # warms the cached analyzer
        first = session.forensics()
        second = session.forensics()
        # a fresh analyzer per call: the topological bound is not
        # understated by previously refined weights
        assert first.gap_closed > 0
        assert first.as_dict() == second.as_dict()

    def test_session_forensics_with_arrival(self):
        session = AnalysisSession(cascade_adder(8, 2))
        late = session.forensics({"c_in": 10.0})
        assert late.arrival == {"c_in": 10.0}
        assert late.delay >= session.forensics().delay


class TestForensicsCli:
    @pytest.fixture()
    def design_file(self):
        return str(EXAMPLE)

    def test_forensics_command(self, design_file, capsys):
        assert main(["forensics", design_file]) == 0
        out = capsys.readouterr().out
        assert "Conservatism audit" in out
        assert "csa_block2" in out

    def test_forensics_json(self, design_file, capsys):
        assert main(["forensics", design_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fully_attributed"] is True
        assert payload["gap_closed"] > 0

    def test_demand_export_trace(self, design_file, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.prom"
        assert (
            main(
                [
                    "demand",
                    design_file,
                    "--export-trace",
                    str(trace),
                    "--export-metrics",
                    str(metrics),
                ]
            )
            == 0
        )
        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert {
            "kernel-compile",
            "kernel-propagate",
            "kernel-reflow",
            "refinement-step",
            "refinement-applied",
        } <= names
        assert "# TYPE" in metrics.read_text()
