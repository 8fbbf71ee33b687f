"""Tests for the batch analysis API surface and the CLI batch mode.

Covers :class:`~repro.api.AnalysisOptions` validation of the
``batch_size`` keyword, the session-level
``compile()``/``analyze_batch()`` methods, :class:`BatchResult`
ergonomics, the normalized legacy entry points, and the ``demand`` /
``hier-report --scenarios`` command-line paths including the one-line
``error:`` + exit-2 convention for malformed scenario files.
"""

import dataclasses
import json
import re

import pytest

from repro.api import AnalysisOptions, AnalysisSession
from repro.circuits.adders import carry_skip_block, cascade_adder
from repro.cli import load_scenarios, main
from repro.core.batch import BatchResult, ScenarioResult
from repro.core.conditional import ConditionalAnalyzer
from repro.core.result import AnalysisResult
from repro.core.subflat import SubcircuitFlatAnalyzer
from repro.errors import AnalysisError, ReproError
from repro.kernel import CompiledDesign
from repro.kernel.execute import CHUNK
from repro.parsers.verilog import dumps_verilog
from repro.scenarios import ScenarioSet

POS_INF = float("inf")


@pytest.fixture(scope="module")
def design():
    d = cascade_adder(8, 2)
    d.name = "csa8_2"
    return d


class TestOptions:
    def test_defaults(self):
        # batches chunk at the kernel's constant, not at an option
        names = [f.name for f in dataclasses.fields(AnalysisOptions)]
        assert "batch_size" not in names
        assert CHUNK == 256

    def test_one_engine_option(self):
        # Propagation always runs on the compiled kernel and the code
        # picks the tautology engine: no option names an engine.
        names = [f.name for f in dataclasses.fields(AnalysisOptions)]
        assert [n for n in names if "engine" in n] == []


class TestSession:
    def test_compile_returns_handle(self, design):
        session = AnalysisSession(design)
        compiled = session.compile()
        assert isinstance(compiled, CompiledDesign)
        assert compiled.inputs == design.inputs
        # The handle is cached on the session's analyzer.
        assert session.compile() is compiled

    def test_compile_propagate_matches_analysis(self, design):
        session = AnalysisSession(design)
        arrival = {"c_in": 2.0}
        times = session.compile().propagate([arrival])[0]
        assert times == session.hierarchical(arrival).net_times

    def test_analyze_batch_hierarchical(self, design):
        session = AnalysisSession(design)
        scenarios = [{}, {"a7": 20.0}]
        batch = session.analyze_batch(ScenarioSet.of(*scenarios))
        assert isinstance(batch, BatchResult)
        assert len(batch) == 2
        assert batch.method == "hierarchical"
        assert batch.delay == max(batch.delays)
        assert batch.worst_scenario() == 1
        singles = [session.hierarchical(s) for s in scenarios]
        for scenario, single in zip(batch, singles):
            assert isinstance(scenario, ScenarioResult)
            assert scenario.net_times == single.net_times
            assert min(scenario.slacks.values()) == 0.0

    def test_analyze_batch_demand(self, design):
        session = AnalysisSession(design)
        batch = session.analyze_batch(
            ScenarioSet.of({}, {"c_in": 3.0}), method="demand"
        )
        assert batch.method == "demand"
        assert len(batch) == 2
        assert batch.stats["refinements"] >= 1
        single = session.demand_driven()
        assert batch[0].net_times == single.net_times

    def test_analyze_batch_unknown_method(self, design):
        with pytest.raises(AnalysisError, match="unknown batch method"):
            AnalysisSession(design).analyze_batch(
                ScenarioSet.of({}), method="exact"
            )

    def test_batch_result_json_round_trip(self, design):
        batch = AnalysisSession(design).analyze_batch(ScenarioSet.of({}))
        snapshot = json.loads(json.dumps(batch.to_dict()))
        assert snapshot["kind"] == "BatchResult"
        assert snapshot["method"] == "hierarchical"
        assert len(snapshot["scenarios"]) == 1

    def test_bare_list_removed(self, design):
        session = AnalysisSession(design)
        with pytest.raises(AnalysisError, match="ScenarioSet"):
            session.analyze_batch([])
        with pytest.raises(AnalysisError, match="ScenarioSet.of"):
            session.analyze_batch([{}, {"c_in": 1.0}])


class TestNormalizedLegacyAnalyzers:
    """PR-2 protocol conformance for the remaining entry points."""

    def test_conditional_accepts_options(self, design):
        opts = AnalysisOptions()
        analyzer = ConditionalAnalyzer(design, options=opts)
        assert analyzer.options is opts
        vector = {x: False for x in design.inputs}
        result = analyzer.analyze(vector)
        assert isinstance(result, AnalysisResult)
        assert result.elapsed_seconds >= 0.0
        assert result.to_dict()["kind"] == "ConditionalResult"

    def test_subflat_accepts_options(self, design):
        analyzer = SubcircuitFlatAnalyzer(design, options=AnalysisOptions())
        result = analyzer.analyze()
        assert isinstance(result, AnalysisResult)
        assert result.arrival_times == result.output_times


class TestLoadScenarios:
    def _write(self, tmp_path, payload):
        f = tmp_path / "scen.json"
        f.write_text(payload if isinstance(payload, str) else
                     json.dumps(payload))
        return str(f)

    def test_objects_and_lists(self, tmp_path):
        path = self._write(tmp_path, [{"a": 1.5}, [2.0, 3.0]])
        assert load_scenarios(path, ["a", "b"]) == [
            {"a": 1.5},
            {"a": 2.0, "b": 3.0},
        ]

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("{oops", "not valid JSON"),
            ({"a": 1}, "expected a JSON list"),
            ([], "scenario list is empty"),
            ([{"zz": 1.0}], "unknown input"),
            ([[1.0]], "has 1 values for 2 inputs"),
            ([3.5], "must be an object"),
            ([{"a": "fast"}], "non-numeric"),
            ([{"a": "nan"}], "must be finite"),
            ([["inf", 0.0]], "must be finite"),
        ],
    )
    def test_malformed(self, tmp_path, payload, match):
        path = self._write(tmp_path, payload)
        with pytest.raises(ReproError, match=match):
            load_scenarios(path, ["a", "b"])


class TestCLI:
    @pytest.fixture()
    def verilog_file(self, tmp_path, design):
        f = tmp_path / "csa8_2.v"
        f.write_text(dumps_verilog(design))
        return str(f)

    @pytest.fixture()
    def scenario_file(self, tmp_path, design):
        f = tmp_path / "scenarios.json"
        f.write_text(json.dumps([{}, {"c_in": 4.0}, {"a0": 2.0}]))
        return str(f)

    def test_demand_single_scenario(self, verilog_file, capsys):
        assert main(["demand", verilog_file]) == 0
        out = capsys.readouterr().out
        assert "Hierarchical timing report" in out
        assert "false-path facts" in out

    def test_demand_batch(self, verilog_file, scenario_file, capsys):
        assert main(
            ["demand", verilog_file, "--scenarios", scenario_file]
        ) == 0
        out = capsys.readouterr().out
        assert "Batched timing report" in out
        assert "scenarios       : 3" in out
        assert "method          : demand" in out

    def test_hier_report_batch(self, verilog_file, scenario_file, capsys):
        assert main(
            ["hier-report", verilog_file, "--scenarios", scenario_file,
             "--nets"]
        ) == 0
        out = capsys.readouterr().out
        assert "Batched timing report" in out
        assert "method          : hierarchical" in out
        assert "net" in out

    def test_arrival_is_batch_default(self, verilog_file, tmp_path, capsys):
        f = tmp_path / "one.json"
        f.write_text(json.dumps([{}]))
        assert main(
            ["demand", verilog_file, "--scenarios", str(f),
             "--arrival", "c_in=4"]
        ) == 0
        merged = capsys.readouterr().out
        assert main(["demand", verilog_file, "--arrival", "c_in=4"]) == 0
        single = capsys.readouterr().out
        # Same worst output arrival under either spelling.
        assert merged.splitlines()[5].split()[-1] in single

    def test_malformed_scenarios_exit_2(self, verilog_file, tmp_path,
                                        capsys):
        f = tmp_path / "bad.json"
        f.write_text("not json")
        assert main(
            ["demand", verilog_file, "--scenarios", str(f)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not valid JSON" in err

    def test_missing_scenario_file_exit_2(self, verilog_file, tmp_path,
                                          capsys):
        missing = str(tmp_path / "nope.json")
        assert main(
            ["hier-report", verilog_file, "--scenarios", missing]
        ) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_demand_rejects_flat_file(self, tmp_path, capsys):
        f = tmp_path / "flat.v"
        f.write_text(dumps_verilog(carry_skip_block(2)))
        assert main(["demand", str(f)]) == 2
        assert "flat module" in capsys.readouterr().err

    def test_no_propagation_engine_flag(self, verilog_file, capsys):
        # One propagation engine, and the code picks the tautology
        # engine: no flag names an engine, and an unknown flag is a
        # one-line usage error with exit 2.
        for command in ("demand", "hier-report", "forensics"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            help_text = capsys.readouterr().out
            assert re.findall(r"--[\w-]*engine\b", help_text) == []
            with pytest.raises(SystemExit) as exc:
                main([command, verilog_file, "--turbo-engine", "on"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
