"""Tests for k-worst-paths, timing reports, and the CLI."""

import re
from pathlib import Path

import pytest

from repro.circuits.adders import carry_skip_block, cascade_adder
from repro.circuits.iscaslike import c17
from repro.cli import load_circuit, main, parse_arrivals
from repro.errors import AnalysisError, ReproError
from repro.netlist.network import Network
from repro.parsers.bench import dumps_bench
from repro.parsers.blif import dumps_blif
from repro.parsers.verilog import dumps_verilog
from repro.sta.paths import k_worst_paths
from repro.sta.report import functional_timing_report, timing_report
from repro.sta.topological import arrival_times, pin_to_pin_delay


class TestKWorstPaths:
    def test_ordering_and_count(self, csa_block2):
        paths = k_worst_paths(csa_block2, "c_out", 6)
        delays = [d for _, d in paths]
        assert delays == sorted(delays, reverse=True)
        assert delays[0] == 8.0
        assert len(paths) == 6

    def test_first_path_matches_arrival(self, csa_block2):
        at = arrival_times(csa_block2)
        for out in csa_block2.outputs:
            paths = k_worst_paths(csa_block2, out, 1)
            assert paths[0][1] == at[out]

    def test_paths_are_real(self, csa_block2):
        for path, delay in k_worst_paths(csa_block2, "c_out", 10):
            assert csa_block2.is_input(path[0])
            assert path[-1] == "c_out"
            # recompute the delay along the path
            total = 0.0
            for sig in path[1:]:
                total += csa_block2.gate(sig).delay
            assert total == delay
            # consecutive signals really are connected
            for a, b in zip(path, path[1:]):
                assert a in csa_block2.gate(b).fanins

    def test_respects_arrival_times(self, csa_block2):
        paths = k_worst_paths(csa_block2, "c_out", 1, {"c_in": 10.0})
        path, delay = paths[0]
        assert path[0] == "c_in"
        assert delay == 16.0  # 10 + longest c_in path (6)

    def test_k_zero(self, csa_block2):
        assert k_worst_paths(csa_block2, "c_out", 0) == []

    def test_unknown_sink(self, csa_block2):
        with pytest.raises(AnalysisError):
            k_worst_paths(csa_block2, "ghost")

    def test_exhausts_small_cone(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("z", "AND", ["a", "b"], 1.0)
        net.set_outputs(["z"])
        assert len(k_worst_paths(net, "z", 10)) == 2


class TestReports:
    def test_timing_report_contents(self, csa_block2):
        text = timing_report(csa_block2)
        assert "Timing report for csa_block2" in text
        assert "c_out" in text and "slack" in text
        assert "worst paths to c_out" in text
        assert "VIOLATED" not in text  # default deadline = worst arrival

    def test_violated_marker(self, csa_block2):
        text = timing_report(csa_block2, required={"c_out": 5.0})
        assert "VIOLATED" in text

    def test_functional_report_flags_false_paths(self, csa_block2):
        text = functional_timing_report(csa_block2, {"c_in": 6.0})
        assert "pessimism" in text
        assert "false-path slack" in text
        # with c_in late, the ripple chain exceeds the stable time
        assert "c_in ->" in text

    def test_functional_report_quiet_when_no_falsity(self, and2):
        text = functional_timing_report(and2)
        assert "false-path slack" not in text

    @pytest.mark.parametrize("time", [float("-inf"), float("inf")])
    def test_infinite_arrivals_report_a_zero_gap(self, time):
        """An output that is an input with an infinite arrival reads the
        same infinity both ways, so its pessimism gap (and its slack) is
        0 rather than NaN, which the report could not print."""
        from repro.api import AnalysisSession

        net = Network("wire")
        net.add_inputs(["a", "b"])
        net.add_gate("z", "NOT", ["b"], 1.0)
        net.set_outputs(["a", "z"])
        arrival = {"a": time}
        text = functional_timing_report(net, arrival)
        inf = "inf" if time > 0 else "-inf"
        assert re.search(rf"^  a\s+{inf}\s+{inf}\s+0$", text, re.M), text
        assert "Functional (XBD0)" in AnalysisSession(net).report(arrival)
        alone = Network("alone")
        alone.add_input("a")
        alone.set_outputs(["a"])
        assert re.search(
            rf"^  a\s+{inf}\s+{inf}\s+0$", timing_report(alone, arrival), re.M
        )


class TestCLI:
    @pytest.fixture()
    def bench_file(self, tmp_path):
        f = tmp_path / "c17.bench"
        f.write_text(dumps_bench(c17()))
        return str(f)

    @pytest.fixture()
    def blif_file(self, tmp_path):
        f = tmp_path / "csa.blif"
        f.write_text(dumps_blif(carry_skip_block(2)))
        return str(f)

    def test_load_by_extension(self, bench_file, blif_file):
        assert load_circuit(bench_file).outputs == ("G22", "G23")
        assert len(load_circuit(blif_file).outputs) == 3

    def test_load_unknown_extension(self, tmp_path):
        f = tmp_path / "x.v"
        f.write_text("")
        with pytest.raises(ReproError):
            load_circuit(str(f))

    def test_parse_arrivals(self):
        inputs = ("a", "b")
        assert parse_arrivals(["a=1", "b=2.5"], inputs) == {
            "a": 1.0, "b": 2.5
        }
        with pytest.raises(ReproError):
            parse_arrivals(["oops"], inputs)
        with pytest.raises(ReproError):
            parse_arrivals(["a=zebra"], inputs)
        for value in ("nan", "inf", "-inf", "1e400"):
            with pytest.raises(ReproError, match="must be finite"):
                parse_arrivals([f"a={value}"], inputs)
        with pytest.raises(ReproError, match="unknown input 'c'"):
            parse_arrivals(["c=1"], inputs)

    def test_non_finite_arrival_exit_2(self, bench_file, tmp_path, capsys):
        design = cascade_adder(8, 2)
        design.name = "csa8_2"
        verilog = tmp_path / "csa8.v"
        verilog.write_text(dumps_verilog(design))
        runs = [["report", bench_file, "--arrival", "G1={}"]] + [
            [command, str(verilog), "--arrival", "c_in={}"]
            for command in ("demand", "hier-report", "forensics")
        ]
        for argv in runs:
            for value in ("nan", "inf", "-inf", "1e400"):
                args = argv[:-1] + [argv[-1].format(value)]
                assert main(args) == 2, args
                err = capsys.readouterr().err
                assert err.startswith("error:") and err.count("\n") == 1
                assert "must be finite" in err

    def test_unknown_arrival_input_exit_2(self, bench_file, tmp_path, capsys):
        """An ``--arrival`` that names no primary input is an error on
        every command that takes one, including as the default of a
        ``--scenarios`` or ``--family`` batch."""
        import json

        design = cascade_adder(8, 2)
        design.name = "csa8_2"
        verilog = str(tmp_path / "csa8.v")
        Path(verilog).write_text(dumps_verilog(design))
        scenarios = tmp_path / "scenarios.json"
        scenarios.write_text(json.dumps([{"c_in": 1.0}]))
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"family": "mc", "samples": 2}))
        runs = [["report", bench_file], ["delay", bench_file]] + [
            [command, verilog]
            for command in ("hier-report", "demand", "forensics")
        ] + [
            [command, verilog, flag, str(path)]
            for command in ("hier-report", "demand")
            for flag, path in (
                ("--scenarios", scenarios), ("--family", family)
            )
        ]
        for argv in runs:
            assert main(argv + ["--arrival", "nosuch=3"]) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == (
                "error: --arrival names unknown input 'nosuch'\n"
            ), argv
            assert captured.out == "", argv

    @pytest.mark.parametrize(
        ("command", "flag", "value"),
        [
            *[
                (command, flag, value)
                for command in ("report", "delay", "sdc", "forensics")
                for flag, value in (("--jobs", "2"), ("--cache-dir", "m"))
            ],
            ("characterize", "--arrival", "c_in=1"),
            ("sdc", "--arrival", "c_in=1"),
        ],
    )
    def test_unread_flag_not_registered_exit_2(
        self, tmp_path, monkeypatch, capsys, command, flag, value
    ):
        """A command registers only the flags it reads: the ones it
        would ignore are unknown arguments, not silent no-ops."""
        design = cascade_adder(8, 2)
        design.name = "csa8_2"
        verilog = tmp_path / "csa8.v"
        verilog.write_text(dumps_verilog(design))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, str(verilog), flag, value])
        assert exc.value.code == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error:") and flag in lines[0]
        assert not (tmp_path / "m").exists()

    def test_report_command(self, bench_file, capsys):
        assert main(["report", bench_file]) == 0
        out = capsys.readouterr().out
        assert "Timing report" in out
        assert "Functional (XBD0) timing report" in out

    def test_report_topological_only(self, bench_file, capsys):
        assert main(["report", bench_file, "--topological-only"]) == 0
        out = capsys.readouterr().out
        assert "Functional" not in out

    def test_delay_command_with_arrival(self, bench_file, capsys):
        assert main(["delay", bench_file, "--arrival", "G1=3"]) == 0
        out = capsys.readouterr().out
        assert "G22" in out and "G23" in out

    def test_characterize_to_file(self, blif_file, tmp_path, capsys):
        target = tmp_path / "lib.json"
        assert main(["characterize", blif_file, "-o", str(target)]) == 0
        assert target.exists()
        import json

        doc = json.loads(target.read_text())
        assert doc["format"] == "repro-timing-library"
        assert "c_out" in doc["models"]

    def test_delay_runs_on_bdds_by_default(self, bench_file, capsys):
        assert main(["delay", bench_file, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "xbd0.bdd_checks" in out and "xbd0.sat_calls" not in out

    def test_delay_past_bdd_node_budget_exit_2(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.bdd.manager import BDDManager

        monkeypatch.setattr(BDDManager.__init__, "__defaults__", (1000,))
        f = tmp_path / "csa16_4.bench"
        f.write_text(dumps_bench(cascade_adder(16, 4).flatten()))
        assert main(["delay", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: BDD exceeded 1000 nodes\n"
        assert captured.out == ""

    def test_error_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.bench")
        assert main(["delay", missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_figures_command(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Figure 5" in out

    def test_version_flag(self, capsys):
        from repro.cli import package_version

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out == f"repro-sta {package_version()}"
        # and the reported version is a real dotted version string
        assert package_version()[0].isdigit()

    def test_python_floor_is_the_oldest_ci_python(self):
        """The declared ``requires-python`` floor is the oldest Python
        the CI matrix runs (``package_version`` needs ``tomllib``)."""
        root = Path(__file__).resolve().parents[1]
        pyproject = (root / "pyproject.toml").read_text()
        floor = re.search(
            r'^requires-python\s*=\s*">=\s*([\d.]+)"', pyproject, re.M
        ).group(1)
        ci = (root / ".github" / "workflows" / "ci.yml").read_text()
        matrix = re.search(r"python-version:\s*\[([^\]]*)\]", ci).group(1)
        versions = re.findall(r"[\d.]+", matrix)
        oldest = min(versions, key=lambda v: tuple(map(int, v.split("."))))
        assert floor == oldest

    def test_unknown_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # one-line contract: error: <message>, no usage dump
        lines = [line for line in err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error: unknown command 'frobnicate'")
        assert "--help" in lines[0]

    def test_bad_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--no-such-flag"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("flag", "value"),
        [
            ("--sat-mode", "oneshot"),
            ("--refine-order", "movement"),
            ("--portfolio-jobs", "2"),
            ("--check-timeout", "1.0"),
        ],
        ids=["sat-mode", "refine-order", "portfolio-jobs", "check-timeout"],
    )
    def test_removed_flag_exit_2(self, tmp_path, capsys, flag, value):
        """Every stability check runs on the per-cone SAT session in one
        serial refinement loop; each removed flag is an unknown
        argument, not a silent no-op."""
        design = cascade_adder(8, 2)
        design.name = "csa8_2"
        verilog = tmp_path / "csa8.v"
        verilog.write_text(dumps_verilog(design))
        with pytest.raises(SystemExit) as exc:
            main(["demand", str(verilog), flag, value])
        assert exc.value.code == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error:") and flag in lines[0]

    def test_serve_no_coalesce_removed_exit_2(self, capsys):
        """``--max-batch 1`` is the one way to turn coalescing off."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", "--no-coalesce"])
        assert exc.value.code == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "--no-coalesce" in lines[0]
