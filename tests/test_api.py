"""Tests for the unified AnalysisSession/AnalysisOptions facade."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import AnalysisOptions, AnalysisSession, load_circuit_file
from repro.circuits.adders import cascade_adder
from repro.core.conditional import ConditionalAnalyzer
from repro.core.demand import DemandDrivenAnalyzer
from repro.core.hier import HierarchicalAnalyzer, IncrementalAnalyzer
from repro.core.instance_models import PerInstanceAnalyzer
from repro.core.result import AnalysisResult
from repro.core.subflat import SubcircuitFlatAnalyzer
from repro.core.xbd0 import functional_delays
from repro.errors import AnalysisError
from repro.netlist.hierarchy import HierDesign
from repro.netlist.network import Network
from repro.obs import NULL_TRACER, RingBufferSink, Tracer


@pytest.fixture()
def csa8_file(tmp_path) -> str:
    from repro.parsers.verilog import dumps_verilog

    f = tmp_path / "csa8_2.v"
    f.write_text(dumps_verilog(cascade_adder(8, 2, name="csa8_2")))
    return str(f)


class TestAnalysisOptions:
    def test_defaults(self):
        opts = AnalysisOptions()
        assert opts.engine is None
        assert opts.functional is True
        assert opts.jobs == 1
        assert opts.cache_dir is None
        assert opts.tracer is None
        assert opts.effective_tracer is NULL_TRACER

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            AnalysisOptions("bdd")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            AnalysisOptions().engine = "bdd"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"engine": "z3"},
            {"batch_size": 0},
            {"retries": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AnalysisOptions(**kwargs)

    def test_jobs_clamped_and_cache_dir_coerced(self, tmp_path):
        opts = AnalysisOptions(jobs=0, cache_dir=str(tmp_path / "c"))
        assert opts.jobs == 1
        assert isinstance(opts.cache_dir, Path)

    @pytest.mark.parametrize(
        "name",
        [
            "sat_mode",
            "refine_order",
            "portfolio_jobs",
            "check_timeout",
            "max_orders",
            "max_tuples",
        ],
    )
    def test_removed_option_rejected(self, name):
        """One SAT strategy, one serial refinement loop, and the
        characterization budgets no caller set: each removed option is
        an unknown keyword."""
        names = {f.name for f in dataclasses.fields(AnalysisOptions)}
        assert name not in names
        with pytest.raises(TypeError):
            AnalysisOptions(**{name: 1})

    def test_with_changes_revalidates(self):
        opts = AnalysisOptions(engine="bdd")
        changed = opts.with_changes(jobs=2)
        assert changed.engine == "bdd" and changed.jobs == 2
        assert opts.jobs == 1  # original untouched
        with pytest.raises(ValueError):
            opts.with_changes(engine="nope")


class TestSessionHierarchical:
    def test_matches_legacy_analyzers(self, csa4_design):
        session = AnalysisSession(csa4_design)
        assert session.is_hierarchical
        legacy_hier = HierarchicalAnalyzer(csa4_design).analyze()
        legacy_demand = DemandDrivenAnalyzer(csa4_design).analyze()
        legacy_subflat = SubcircuitFlatAnalyzer(csa4_design).analyze()
        assert session.hierarchical().output_times == (
            legacy_hier.output_times
        )
        assert session.demand_driven().output_times == (
            legacy_demand.output_times
        )
        assert session.subflat().output_times == legacy_subflat.output_times

    def test_analyzers_cached_across_calls(self, csa4_design):
        session = AnalysisSession(csa4_design)
        session.demand_driven()
        first = session._analyzers["demand"]
        session.demand_driven({"c_in": 2.0})
        assert session._analyzers["demand"] is first

    def test_network_flattens_once(self, csa4_design):
        session = AnalysisSession(csa4_design)
        flat = session.network
        assert isinstance(flat, Network)
        assert session.network is flat
        assert session.functional_delays() == functional_delays(
            flat, engine="sat"
        )

    def test_incremental_edit_reaches_every_entry_point(self):
        """Theorem 1 after an edit: no cached analyzer, compiled handle
        or flattened network answers for the design before the edit."""
        from repro.scenarios import ScenarioSet

        design = cascade_adder(4, 2)
        session = AnalysisSession(design)

        def answers():
            handle = session.compile()
            compiled = handle.propagate([{}])[0]
            return {
                "hierarchical": session.hierarchical().delay,
                "compile": max(compiled[o] for o in design.outputs),
                "analyze_batch": session.analyze_batch(
                    ScenarioSet.of({})
                ).delay,
                "demand_driven": session.demand_driven().delay,
                "per_instance": session.per_instance().delay,
                "functional_delays": max(
                    session.functional_delays().values()
                ),
            }

        assert set(answers().values()) == {12.0}
        network = design.modules["csa_block2"].network
        incremental = session.incremental()
        incremental.replace_module(
            "csa_block2", network.with_delays(lambda g: 3 * g.delay)
        )
        assert incremental.analyze().delay == 36.0
        assert AnalysisSession(design).hierarchical().delay == 36.0
        assert answers() == dict.fromkeys(answers(), 36.0)
        assert session.incremental() is incremental

    def test_explain_pin_requires_demand_run(self, csa4_design):
        session = AnalysisSession(csa4_design)
        with pytest.raises(AnalysisError):
            session.explain_pin("csa_block2", "c_in", "c_out")
        result = session.demand_driven()
        module, inp, out = result.refined_weights and next(
            iter(result.refined_weights)
        )
        assert session.explain_pin(module, inp, out) is not None

    def test_conditional(self, csa4_design):
        session = AnalysisSession(csa4_design)
        vector = {x: False for x in csa4_design.inputs}
        result = session.conditional(vector)
        assert result.delay <= session.hierarchical().delay

    def test_session_shares_tracer_and_library(self, csa4_design, tmp_path):
        sink = RingBufferSink()
        session = AnalysisSession(
            csa4_design,
            cache_dir=tmp_path / "cache",
            tracer=Tracer(sinks=[sink]),
        )
        assert session.library is session.library  # created once
        session.hierarchical()
        names = sink.names()
        assert "characterize-module" in names
        assert "cache-store" in names
        assert session.library.stats.characterizations > 0

    def test_lazy_hierarchical_removed(self, csa4_design):
        """One Step-1 path: the lazy per-output analysis is gone."""
        session = AnalysisSession(csa4_design)
        with pytest.raises(TypeError):
            session.hierarchical(lazy=True)
        for name in ("analyze_lazy", "model_for"):
            assert not hasattr(HierarchicalAnalyzer, name)

    def test_hier_report_text(self, csa4_design):
        text = AnalysisSession(csa4_design).hier_report()
        assert "csa4.2" in text or "Hierarchical" in text


class TestSessionFlat:
    def test_flat_session(self, csa_block2):
        session = AnalysisSession(csa_block2)
        assert not session.is_hierarchical
        assert session.network is csa_block2
        with pytest.raises(AnalysisError):
            session.design
        assert session.functional_delays() == functional_delays(
            csa_block2, engine="sat"
        )
        assert "Timing report" in session.report()

    def test_characterize_serial_matches_scheduler(
        self, csa_block2, tmp_path
    ):
        serial = AnalysisSession(csa_block2).characterize()
        cached = AnalysisSession(
            csa_block2, cache_dir=tmp_path / "c"
        ).characterize()
        assert {
            o: m.tuples for o, m in serial.items()
        } == {o: m.tuples for o, m in cached.items()}


class TestFromFile:
    def test_from_file_verilog_keeps_hierarchy(self, csa8_file):
        session = AnalysisSession.from_file(csa8_file, engine="sat")
        assert session.is_hierarchical
        assert isinstance(load_circuit_file(csa8_file), HierDesign)
        assert session.hierarchical().delay > 0

    def test_from_file_bench_is_flat(self, tmp_path, and2):
        from repro.parsers.bench import write_bench

        f = tmp_path / "and2.bench"
        with f.open("w") as fp:
            write_bench(and2, fp)
        session = AnalysisSession.from_file(f)
        assert not session.is_hierarchical


class TestResultProtocol:
    def test_all_results_satisfy_protocol(self, csa4_design):
        session = AnalysisSession(csa4_design)
        vector = {x: False for x in csa4_design.inputs}
        results = [
            session.hierarchical(),
            session.demand_driven(),
            session.subflat(),
            session.per_instance(),
            session.conditional(vector),
        ]
        for result in results:
            assert isinstance(result, AnalysisResult)
            assert result.arrival_times == result.output_times
            critical = result.critical_outputs()
            assert critical
            assert all(
                result.arrival_times[o] == pytest.approx(result.delay)
                for o in critical
            )
            snapshot = json.loads(json.dumps(result.to_dict()))
            assert snapshot["kind"] == type(result).__name__
            assert snapshot["delay"] == pytest.approx(result.delay)
            assert snapshot["arrival_times"] == result.arrival_times
            assert snapshot["elapsed_seconds"] >= 0.0


class TestRemovedShims:
    """The PR-2 rename shims escalated from warning to hard error."""

    def test_hier_characterized_removed(self, csa4_design):
        result = HierarchicalAnalyzer(csa4_design).analyze()
        with pytest.raises(AttributeError, match="characterized_modules"):
            result.characterized
        assert not hasattr(result, "characterized")
        assert result.characterized_modules

    def test_demand_seconds_removed(self, csa4_design):
        result = DemandDrivenAnalyzer(csa4_design).analyze()
        with pytest.raises(AttributeError, match="elapsed_seconds"):
            result.seconds
        assert result.elapsed_seconds >= 0.0

    def test_subflat_seconds_removed(self, csa4_design):
        result = SubcircuitFlatAnalyzer(csa4_design).analyze()
        with pytest.raises(AttributeError, match="elapsed_seconds"):
            result.seconds
        assert result.elapsed_seconds >= 0.0


class TestOptionsOnly:
    """``options=`` is the only way to configure an analyzer: a removed
    keyword or a positional engine is a ``TypeError``, never a value
    silently dropped next to ``options=``."""

    REMOVED = {
        HierarchicalAnalyzer: (
            "engine", "functional", "max_orders", "max_tuples", "jobs",
            "cache_dir", "tracer",
        ),
        DemandDrivenAnalyzer: ("engine", "tracer"),
        SubcircuitFlatAnalyzer: ("engine", "tracer"),
        ConditionalAnalyzer: ("tracer",),
    }
    VALUES = {
        "engine": "bdd",
        "functional": False,
        "max_orders": 2,
        "max_tuples": 2,
        "jobs": 2,
        "cache_dir": "models",
        "tracer": Tracer(),
    }

    @pytest.mark.parametrize(
        ("cls", "keyword"),
        [(cls, kw) for cls, kws in REMOVED.items() for kw in kws],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_removed_keyword_raises(self, csa4_design, cls, keyword):
        value = self.VALUES[keyword]
        with pytest.raises(TypeError, match=keyword):
            cls(csa4_design, **{keyword: value})
        with pytest.raises(TypeError, match=keyword):
            cls(csa4_design, options=AnalysisOptions(), **{keyword: value})

    @pytest.mark.parametrize(
        "cls",
        [
            HierarchicalAnalyzer,
            IncrementalAnalyzer,
            PerInstanceAnalyzer,
            DemandDrivenAnalyzer,
            SubcircuitFlatAnalyzer,
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_positional_engine_raises(self, csa4_design, cls):
        with pytest.raises(TypeError):
            cls(csa4_design, "sat")


class TestEngineDefaults:
    """``engine=None``, the default everywhere, runs flat analysis on
    BDDs and per-cone checks on SAT; an explicit engine is honoured by
    both kinds.  Read from the tracer's ``xbd0.*`` counters."""

    FLAT = ("functional_delays", "session-functional-delays", "report")
    PER_CONE = ("hierarchical", "demand")

    @staticmethod
    def _run(name, design, engine, tracer):
        chosen = {} if engine is None else {"engine": engine}
        options = AnalysisOptions(tracer=tracer, **chosen)
        flat = design.flatten()
        if name == "functional_delays":
            functional_delays(flat, tracer=tracer, **chosen)
        elif name == "session-functional-delays":
            AnalysisSession(flat, options=options).functional_delays()
        elif name == "report":
            AnalysisSession(flat, options=options).report()
        elif name == "hierarchical":
            AnalysisSession(design, options=options).hierarchical()
        else:
            DemandDrivenAnalyzer(design, options=options).analyze()

    @pytest.mark.parametrize("engine", [None, "sat", "bdd"])
    @pytest.mark.parametrize("name", FLAT + PER_CONE)
    def test_engine_rule(self, csa4_design, name, engine):
        tracer = Tracer()
        self._run(name, csa4_design, engine, tracer)
        sat_calls = tracer.metrics.counter("xbd0.sat_calls").value
        bdd_checks = tracer.metrics.counter("xbd0.bdd_checks").value
        if engine is None:
            engine = "bdd" if name in self.FLAT else "sat"
        if engine == "bdd":
            assert sat_calls == 0 and bdd_checks > 0
        else:
            assert sat_calls > 0 and bdd_checks == 0


class TestCliTrace:
    """End-to-end smoke tests for the --trace/--profile/--trace-file flags."""

    def test_hier_report_trace_prints_phases(self, csa8_file, capsys):
        from repro.cli import main

        assert main(["hier-report", csa8_file]) == 0
        untraced = capsys.readouterr().out
        assert main(["hier-report", csa8_file, "--trace"]) == 0
        traced = capsys.readouterr().out
        # report body is byte-identical; the summary is appended
        assert traced.startswith(untraced.rstrip("\n"))
        assert "trace summary" in traced
        phase_seconds = {}
        for line in traced.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[0] in (
                "characterization", "propagation", "refinement", "cache"
            ):
                phase_seconds[parts[0]] = float(parts[1])
        assert set(phase_seconds) == {
            "characterization", "propagation", "refinement", "cache"
        }
        assert all(v >= 0.0 for v in phase_seconds.values())
        assert sum(phase_seconds.values()) > 0.0

    def test_trace_file_jsonl_event_census(self, csa8_file, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import read_jsonl

        trace = tmp_path / "trace.jsonl"
        assert main([
            "hier-report", csa8_file,
            "--cache-dir", str(tmp_path / "cache"),
            "--trace-file", str(trace),
        ]) == 0
        capsys.readouterr()
        records = read_jsonl(trace)
        names = {r.name for r in records}
        assert len(names) >= 5
        assert "characterize-module" in names
        assert "sat-call" in names

    def test_profile_prints_record_table(self, csa8_file, capsys):
        from repro.cli import main

        assert main(["hier-report", csa8_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "record" in out and "count" in out
