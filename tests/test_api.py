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
from repro.core.xbd0 import StabilityAnalyzer, functional_delays
from repro.errors import AnalysisError, ReproError
from repro.netlist.hierarchy import HierDesign
from repro.netlist.network import Network
from repro.obs import NULL_TRACER, RingBufferSink, Tracer
from tests.conftest import reset_process_library


@pytest.fixture()
def csa8_file(tmp_path) -> str:
    from repro.parsers.verilog import dumps_verilog

    f = tmp_path / "csa8_2.v"
    f.write_text(dumps_verilog(cascade_adder(8, 2, name="csa8_2")))
    return str(f)


def sat_delays(network):
    """Flat XBD0 delays decided on SAT, to hold the flat BDD rule to."""
    analyzer = StabilityAnalyzer(network, engine="sat")
    return {o: analyzer.functional_delay(o) for o in network.outputs}


class TestAnalysisOptions:
    def test_defaults(self):
        opts = AnalysisOptions()
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
            AnalysisOptions().jobs = 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": float("nan")},
            {"deadline": -1.0},
            {"retries": -1},
            {"module_timeout": 0.0},
            {"refine_budget": -2},
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
        opts = AnalysisOptions(retries=3)
        changed = opts.with_changes(jobs=2)
        assert changed.retries == 3 and changed.jobs == 2
        assert opts.jobs == 1  # original untouched
        with pytest.raises(ValueError):
            opts.with_changes(retries=-1)


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
        assert session.functional_delays() == sat_delays(flat)

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
        assert session.functional_delays() == sat_delays(csa_block2)
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
        session = AnalysisSession.from_file(csa8_file)
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


def _removed_parameter_calls(design):
    """``(name, call)`` per parameter that only duplicated an
    :class:`AnalysisOptions` field or that no caller set; ``call(kw)``
    passes ``kw`` to the function that used to take it."""
    from repro.bench import figures, table1, table2, table3
    from repro.core.budget import input_budgets
    from repro.core.demand import flat_functional_delay
    from repro.core.multilevel import compose_design_models, design_as_module
    from repro.core.sensitization import delay_by_criterion
    from repro.library.scheduler import (
        Cone,
        characterize_cones,
        characterize_modules,
    )
    from repro.library.signature import module_signature
    from repro.resilience.executor import run_resilient
    from repro.seq import accumulator
    from repro.seq.hier import registered_cascade
    from repro.server import DesignRegistry, TimingServerApp

    network = design.flatten()
    output = network.outputs[0]
    seq = accumulator(2)
    seq_design = registered_cascade(4)
    analyzer = HierarchicalAnalyzer(design)
    cone = Cone("m", network, output)
    calls = [
        ("run_resilient", lambda kw: run_resilient(
            abs, [1], options=AnalysisOptions(), **kw)),
        ("characterize_cones", lambda kw: characterize_cones([cone], **kw)),
        ("characterize_modules",
         lambda kw: characterize_modules(design.modules, **kw)),
        ("characterize_all", lambda kw: analyzer.characterize_all(**kw)),
        ("TimingServerApp", lambda kw: TimingServerApp(**kw)),
        ("DesignRegistry", lambda kw: DesignRegistry(**kw)),
        ("module_signature", lambda kw: module_signature(network, **kw)),
        ("compose_design_models",
         lambda kw: compose_design_models(design, **kw)),
        ("design_as_module", lambda kw: design_as_module(design, **kw)),
        ("input_budgets",
         lambda kw: input_budgets(network, {output: 8.0}, **kw)),
        ("delay_by_criterion",
         lambda kw: delay_by_criterion(network, output, "xbd0", **kw)),
        ("SequentialCircuit.endpoint_times",
         lambda kw: seq.endpoint_times(**kw)),
        ("SequentialCircuit.min_clock_period",
         lambda kw: seq.min_clock_period(**kw)),
        ("SequentialCircuit.critical_endpoint",
         lambda kw: seq.critical_endpoint(**kw)),
        ("SequentialDesign.clock_report",
         lambda kw: seq_design.clock_report(**kw)),
        ("SequentialDesign.min_clock_period",
         lambda kw: seq_design.min_clock_period(**kw)),
        ("table1.run_row", lambda kw: table1.run_row(8, 2, **kw)),
        ("table1.run_table", lambda kw: table1.run_table(**kw)),
        ("table2.run_row", lambda kw: table2.run_row("c17", **kw)),
        ("table2.run_table", lambda kw: table2.run_table(**kw)),
        ("table3.run_row", lambda kw: table3.run_row("mul4x4", **kw)),
        ("table3.run_table", lambda kw: table3.run_table(**kw)),
        ("compute_figures", lambda kw: figures.compute_figures(**kw)),
        ("flat_functional_delay",
         lambda kw: flat_functional_delay(design, **kw)),
    ]
    return dict(calls)


class TestOneConfigurationObject:
    """:class:`AnalysisOptions` is the only configuration object: the
    resilience policy, its translation and the parameters that no
    caller set are gone, and passing one is a ``TypeError``."""

    REMOVED = [
        ("run_resilient", "policy"),
        ("run_resilient", "jobs"),
        ("run_resilient", "tracer"),
        ("characterize_cones", "policy"),
        ("characterize_cones", "jobs"),
        ("characterize_cones", "engine"),
        ("characterize_cones", "tracer"),
        ("characterize_modules", "policy"),
        ("characterize_modules", "jobs"),
        ("characterize_modules", "engine"),
        ("characterize_modules", "tracer"),
        ("characterize_modules", "deadline"),
        ("characterize_all", "jobs"),
        ("characterize_all", "deadline"),
        ("TimingServerApp", "fault_plan"),
        ("DesignRegistry", "fault_plan"),
        ("module_signature", "max_orders"),
        ("module_signature", "max_tuples"),
        ("compose_design_models", "engine"),
        ("compose_design_models", "functional"),
        ("compose_design_models", "analyzer"),
        ("design_as_module", "engine"),
        ("design_as_module", "max_tuples"),
        ("input_budgets", "engine"),
        ("delay_by_criterion", "engine"),
        ("SequentialCircuit.endpoint_times", "engine"),
        ("SequentialCircuit.min_clock_period", "engine"),
        ("SequentialCircuit.critical_endpoint", "engine"),
        ("SequentialDesign.clock_report", "engine"),
        ("SequentialDesign.min_clock_period", "engine"),
        ("table1.run_row", "engine"),
        ("table1.run_table", "engine"),
        ("table2.run_row", "engine"),
        ("table2.run_table", "engine"),
        ("table3.run_row", "engine"),
        ("table3.run_table", "engine"),
        ("compute_figures", "engine"),
        ("flat_functional_delay", "engine"),
    ]

    @pytest.mark.parametrize(
        ("name", "parameter"), REMOVED, ids=lambda v: v
    )
    def test_removed_parameter_raises(self, csa4_design, name, parameter):
        call = _removed_parameter_calls(csa4_design)[name]
        with pytest.raises(TypeError, match=f"'{parameter}'"):
            call({parameter: None})

    @pytest.mark.parametrize(
        ("module", "names"),
        [
            ("repro", ("ResiliencePolicy",)),
            ("repro.resilience", ("ResiliencePolicy", "DEFAULT_POLICY")),
            ("repro.resilience.policy", ("ResiliencePolicy", "DEFAULT_POLICY")),
            ("repro.library", ("design_signatures",)),
            ("repro.library.signature", ("design_signatures",)),
        ],
    )
    def test_removed_names_are_gone(self, module, names):
        import importlib

        mod = importlib.import_module(module)
        for name in names:
            assert not hasattr(mod, name)
            assert name not in getattr(mod, "__all__", ())
        assert not hasattr(AnalysisOptions, "resilience_policy")


def _knob_calls(design):
    """``name -> call(kw)`` per function that took an ``engine=`` or a
    ``backend=`` override; ``call(kw)`` passes ``kw`` to it."""
    from repro.core.required import (
        approx_required_tuples,
        characterize_network,
        characterize_output,
    )
    from repro.core.xbd0 import circuit_delay
    from repro.kernel import pick_backend, propagate_batch
    from repro.library.signature import module_signature
    from repro.scenarios import Corner, CornerSweep, analyze_family
    from repro.sta.report import functional_timing_report
    from repro.sta.topological import arrival_times_batch

    network = design.flatten()
    output = network.outputs[0]
    session = AnalysisSession(design)
    family = CornerSweep([Corner("typ")])
    return {
        "functional_delays": lambda kw: functional_delays(network, **kw),
        "circuit_delay": lambda kw: circuit_delay(network, **kw),
        "functional_timing_report":
            lambda kw: functional_timing_report(network, **kw),
        "characterize_output":
            lambda kw: characterize_output(network, output, **kw),
        "approx_required_tuples":
            lambda kw: approx_required_tuples(network, output, **kw),
        "characterize_network":
            lambda kw: characterize_network(network, **kw),
        "module_signature": lambda kw: module_signature(network, **kw),
        "AnalysisOptions": lambda kw: AnalysisOptions(**kw),
        "pick_backend": lambda kw: pick_backend(**kw),
        "propagate_batch": lambda kw: propagate_batch(
            session.compile().plan, [[0.0] * len(design.inputs)], **kw
        ),
        "CompiledDesign.propagate":
            lambda kw: session.compile().propagate([{}], **kw),
        "HierarchicalAnalyzer.analyze_batch":
            lambda kw: HierarchicalAnalyzer(design).analyze_batch([{}], **kw),
        "AnalysisSession.analyze_family":
            lambda kw: session.analyze_family(family, **kw),
        "analyze_family":
            lambda kw: analyze_family(session.compile(), family, **kw),
        "arrival_times_batch":
            lambda kw: arrival_times_batch(network, [{}], **kw),
    }


def _removed_knob_cases():
    """``(id, exception, message, check(design, path))`` per removed way
    to pick an engine or an executor."""
    from repro.cli import main

    engine = (
        "functional_delays", "circuit_delay", "functional_timing_report",
        "characterize_output", "approx_required_tuples",
        "characterize_network", "module_signature", "AnalysisOptions",
    )
    backend = (
        "pick_backend", "propagate_batch", "CompiledDesign.propagate",
        "HierarchicalAnalyzer.analyze_batch",
        "AnalysisSession.analyze_family", "analyze_family",
        "arrival_times_batch",
    )

    def parameter(name, keyword, value):
        return lambda design, _path: _knob_calls(design)[name](
            {keyword: value}
        )

    def name_gone(module, name):
        import importlib

        return lambda _design, _path: getattr(
            importlib.import_module(module), name
        )

    def flag(command):
        def check(_design, path):
            circuit = [] if command == "serve" else [path]
            main([command, *circuit, "--engine", "sat"])

        return check

    commands = (
        "report", "delay", "hier-report", "demand", "forensics", "sdc",
        "characterize", "serve",
    )
    return [
        *[(f"{n}-engine", TypeError, "'engine'", parameter(n, "engine", "sat"))
          for n in engine],
        *[(f"{n}-backend", TypeError, "'backend'",
           parameter(n, "backend", "python")) for n in backend],
        ("repro.api.ENGINES", AttributeError, "ENGINES",
         name_gone("repro.api", "ENGINES")),
        ("repro.core.xbd0.resolve_engine", AttributeError, "resolve_engine",
         name_gone("repro.core.xbd0", "resolve_engine")),
        *[(f"--engine-{c}", SystemExit, "2", flag(c)) for c in commands],
        ("StabilityAnalyzer-brute", AnalysisError, "unknown engine 'brute'",
         lambda design, _path: StabilityAnalyzer(
             design.flatten(), engine="brute"
         )),
    ]


REMOVED_KNOBS = _removed_knob_cases()


class TestCodePicksEngineAndExecutor:
    """No option, flag or parameter picks the tautology engine or the
    kernel executor, and the brute-force engine is gone: each removed
    way raises (``--engine`` is an unknown flag, exit 2)."""

    @pytest.mark.parametrize(
        ("expected", "message", "check"),
        [case[1:] for case in REMOVED_KNOBS],
        ids=[case[0] for case in REMOVED_KNOBS],
    )
    def test_removed_knob(
        self, csa4_design, csa8_file, capsys, monkeypatch, expected,
        message, check,
    ):
        import repro.server

        def no_server(*_args, **_kwargs):
            raise ReproError("no listening server in unit tests")

        monkeypatch.setattr(repro.server, "TimingHTTPServer", no_server)
        with pytest.raises(expected, match=message) as exc:
            check(csa4_design, csa8_file)
        if expected is SystemExit:
            assert exc.value.code == 2
            assert "--engine" in capsys.readouterr().err


class TestEngineDefaults:
    """The code picks the tautology engine by kind of work, from two
    constants of :mod:`repro.core.xbd0`: flat analysis runs on
    ``FLAT_ENGINE`` (BDD), per-cone checks on ``CONE_ENGINE`` (SAT).
    ``None`` runs the rule as shipped; ``sat`` and ``bdd`` set both
    constants to that engine, and every entry point follows them, so
    moving one kind of work to the other engine is a one-constant
    change.  Read from the tracer's ``xbd0.*`` counters."""

    FLAT = ("functional_delays", "session-functional-delays", "report")
    PER_CONE = ("hierarchical", "demand")

    @staticmethod
    def _run(name, design, tracer):
        options = AnalysisOptions(tracer=tracer)
        flat = design.flatten()
        if name == "functional_delays":
            functional_delays(flat, tracer=tracer)
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
    def test_engine_rule(self, csa4_design, name, engine, monkeypatch):
        from repro.core import xbd0

        if engine is not None:
            monkeypatch.setattr(xbd0, "FLAT_ENGINE", engine)
            monkeypatch.setattr(xbd0, "CONE_ENGINE", engine)
        tracer = Tracer()
        self._run(name, csa4_design, tracer)
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
        reset_process_library()  # the traced run characterizes again
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
