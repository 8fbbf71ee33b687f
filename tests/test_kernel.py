"""Unit tests for the compiled timing-graph kernel.

Covers the plan half (CSR layout, collapse rule, finite-delay
enforcement), the execute half (both backends, chunking, validation),
the incremental demand-driven graph, and golden equivalences between
the compiled engines and the reference walks of ``tests/reference.py``
on the benchmark designs.
"""

import dataclasses
import random

import pytest

from repro.circuits.adders import carry_skip_block, cascade_adder
from repro.core.demand import DemandDrivenAnalyzer
from repro.core.hier import HierarchicalAnalyzer
from repro.core.instance_models import PerInstanceAnalyzer
from repro.core.timing_model import TimingModel
from repro.errors import AnalysisError
from repro.kernel import (
    HAVE_NUMPY,
    NUMPY_MIN_LEVEL_TUPLES,
    CompiledTimingGraph,
    GraphState,
    NumpyExecutor,
    PythonExecutor,
    compile_design,
    compile_network,
    pick_backend,
    propagate_batch,
)
from repro.kernel.backend import pick_mode
from repro.netlist.hierarchy import HierDesign, Module
from repro.netlist.network import Network
from repro.sta.topological import arrival_times, arrival_times_batch
from tests.reference import hier_net_times, reference_demand

NEG_INF = float("-inf")
POS_INF = float("inf")
NAN = float("nan")

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def tiny_design() -> HierDesign:
    """Two chained instances of a one-gate module."""
    net = Network("cell")
    a = net.add_input("a")
    b = net.add_input("b")
    net.add_gate("y", "AND", [a, b], delay=2.0)
    net.set_outputs(["y"])
    design = HierDesign("tiny")
    design.add_module(Module("cell", net))
    design.add_input("x1")
    design.add_input("x2")
    design.add_instance("u1", "cell", {"a": "x1", "b": "x2", "y": "n1"})
    design.add_instance("u2", "cell", {"a": "n1", "b": "x2", "y": "n2"})
    design.set_outputs(["n2"])
    return design


def models_from_tuples(tuples):
    """An ``instance_models`` callable serving one fixed model."""
    model = TimingModel(output="y", inputs=("a", "b"), tuples=tuples)
    return lambda inst_name: {"y": model}


class TestPlan:
    def test_compile_design_layout(self):
        design = tiny_design()
        plan = compile_design(design, models_from_tuples(((1.0, 2.0),)))
        plan.validate()
        assert plan.nets == ("x1", "x2", "n1", "n2")
        assert plan.n_inputs == 2
        assert plan.n_nodes == 2
        assert plan.n_tuples == 2
        assert plan.n_entries == 4
        # n1 reads the inputs, n2 reads n1.
        assert plan.node_level == (1, 2)
        assert plan.n_levels == 2
        with pytest.raises(AnalysisError, match="level"):
            dataclasses.replace(plan, node_level=(1, 1)).validate()
        row = list(propagate_batch(plan, [[0.0, 0.0]])[0])
        # n1 = max(0+1, 0+2) = 2; n2 = max(2+1, 0+2) = 3
        assert row == [0.0, 0.0, 2.0, 3.0]

    def test_unconstrained_entries_skipped(self):
        design = tiny_design()
        # Delay -inf on input a: only b constrains the output.
        plan = compile_design(design, models_from_tuples(((NEG_INF, 4.0),)))
        plan.validate()
        assert plan.n_entries == 2
        # n2 no longer reads n1, so both nodes sit on level 1.
        assert plan.node_level == (1, 1)
        row = list(propagate_batch(plan, [[100.0, 1.0]])[0])
        # n1 = x2 + 4 = 5; n2 = x2 + 4 = 5 (a-side unconstrained)
        assert row[2:] == [5.0, 5.0]

    def test_all_unconstrained_tuple_collapses_node(self):
        design = tiny_design()
        # One tuple certifies unconditional stability -> constant -inf,
        # even though another tuple is present.
        plan = compile_design(
            design,
            models_from_tuples(((NEG_INF, NEG_INF), (1.0, 1.0))),
        )
        plan.validate()
        assert plan.n_tuples == 0
        assert plan.node_level == (0, 0)
        assert plan.n_levels == 0
        row = list(propagate_batch(plan, [[3.0, 7.0]])[0])
        assert row[2:] == [NEG_INF, NEG_INF]

    def test_min_over_tuples(self):
        design = tiny_design()
        plan = compile_design(
            design, models_from_tuples(((5.0, NEG_INF), (NEG_INF, 1.0)))
        )
        row = list(propagate_batch(plan, [[0.0, 0.0]])[0])
        # n1 = min(max(0+5), max(0+1)) = 1; n2 = min(1+5, 0+1) = 1
        assert row[2:] == [1.0, 1.0]

    @pytest.mark.parametrize("bad", [POS_INF, float("nan")])
    def test_non_finite_delay_rejected(self, bad):
        design = tiny_design()
        with pytest.raises(AnalysisError, match="non-finite delay"):
            compile_design(design, models_from_tuples(((bad, 1.0),)))

    def test_compile_network_matches_arrival_times(self):
        net = carry_skip_block(2)
        plan = compile_network(net)
        plan.validate()
        arrival = {net.inputs[0]: 2.5}
        row = [arrival.get(x, 0.0) for x in plan.nets[: plan.n_inputs]]
        got = dict(zip(plan.nets, propagate_batch(plan, [row])[0]))
        assert got == arrival_times(net, arrival)

    def test_hier_compile_plan_validates(self):
        compiled = HierarchicalAnalyzer(cascade_adder(8, 2)).compile()
        compiled.plan.validate()
        assert compiled.inputs == compiled.plan.nets[: compiled.plan.n_inputs]


class TestExecute:
    def _plan_and_rows(self, n_rows):
        net = carry_skip_block(2)
        plan = compile_network(net)
        rng = random.Random(7)
        rows = [
            [rng.uniform(-3.0, 9.0) for _ in range(plan.n_inputs)]
            for _ in range(n_rows)
        ]
        return plan, rows

    @needs_numpy
    def test_backends_bit_identical(self):
        plan, rows = self._plan_and_rows(13)
        py = PythonExecutor(plan).propagate(rows)
        np_ = NumpyExecutor(plan).propagate(rows).tolist()
        assert py == np_

    @needs_numpy
    def test_chunking_preserves_results(self, monkeypatch):
        plan, rows = self._plan_and_rows(11)
        monkeypatch.setattr("repro.kernel.backend.NUMPY_MIN_LEVEL_TUPLES", 0)
        whole = propagate_batch(plan, rows).tolist()
        monkeypatch.setattr("repro.kernel.execute.CHUNK", 3)
        chunked = propagate_batch(plan, rows).tolist()
        assert whole == chunked

    def test_empty_batch(self):
        plan, _ = self._plan_and_rows(0)
        assert propagate_batch(plan, []) == []

    def test_row_length_validated(self):
        plan, _ = self._plan_and_rows(0)
        with pytest.raises(ValueError):
            PythonExecutor(plan).propagate([[0.0]])

    @needs_numpy
    def test_row_shape_validated_numpy(self):
        plan, _ = self._plan_and_rows(0)
        with pytest.raises(ValueError):
            NumpyExecutor(plan).propagate([[0.0]])

    @pytest.mark.parametrize("rows", [1, 256])
    @pytest.mark.parametrize("executor", ["numpy", "python"])
    def test_nan_arrival_refused(self, executor, rows, monkeypatch):
        # propagate_batch takes rows that never went through
        # CompiledDesign.rows_from: every executor (the walk at one
        # row, the level loop at 256) refuses a NaN arrival naming the
        # input, and ±inf keep their meaning.
        if executor == "numpy" and not HAVE_NUMPY:
            pytest.skip("numpy not installed")
        monkeypatch.setattr(
            "repro.kernel.backend.HAVE_NUMPY", executor == "numpy"
        )
        plan = HierarchicalAnalyzer(cascade_adder(256, 8)).compile().plan
        late = plan.net_index["c_in"]
        row = [0.0] * plan.n_inputs
        batch = [row] * (rows - 1) + [row[:late] + [NAN] + row[late + 1:]]
        with pytest.raises(AnalysisError, match="arrival time for 'c_in'"):
            propagate_batch(plan, batch)
        row[0], row[late] = POS_INF, NEG_INF
        got = propagate_batch(plan, [row] * rows)
        assert [list(r) for r in got] == PythonExecutor(plan).propagate(
            [row] * rows
        )

    def test_pick_backend_auto(self, monkeypatch):
        # Numpy whenever it is installed.  Its mode is spine tuples ×
        # rows per topological level: one row of csa2048.8 (255 spine
        # tuples, 256 levels) walks and so do one row of csa32.4 (7, 8),
        # one of csa64.2 (31, 32), two of csa8.2 (3, 4) and a plan
        # without a spine; 32 rows of csa2048.8 and 14 of csa8.2 take
        # the level loop.
        work = NUMPY_MIN_LEVEL_TUPLES
        numpy = "numpy" if HAVE_NUMPY else "python"
        assert pick_backend() == numpy
        assert pick_mode(1, 1, 1) == "walk"
        assert pick_mode(work * 3 - 1, 3, 1) == "walk"
        assert pick_mode(work * 3, 3, 1) == "levels"
        assert pick_mode(work, 4, 3) == "walk"
        assert pick_mode(work, 4, 4) == "levels"
        assert pick_mode(0, 0, 10_000) == pick_mode(0, 1, 10_000) == "walk"
        assert pick_mode(7, 8, 1) == pick_mode(31, 32, 1) == "walk"
        assert pick_mode(3, 4, 2) == "walk"
        assert pick_mode(255, 256, 1) == "walk"
        assert pick_mode(255, 256, 32) == pick_mode(3, 4, 14) == "levels"
        monkeypatch.setattr("repro.kernel.backend.HAVE_NUMPY", False)
        assert pick_backend() == "python"

    @needs_numpy
    def test_spine_tuples(self):
        # The spine is the set of nodes some entry reads: the carries
        # of csa W.B but the last (W / B - 1), most of a flattened
        # network, none of one block.
        def spine(design):
            plan = HierarchicalAnalyzer(design).compile().plan
            return NumpyExecutor(plan).spine_tuples

        assert spine(cascade_adder(8, 2)) == 3
        assert spine(cascade_adder(32, 4)) == 7
        assert spine(cascade_adder(4, 4)) == 0
        flat = compile_network(cascade_adder(8, 4).flatten())
        assert NumpyExecutor(flat).spine_tuples == 45

    @needs_numpy
    def test_each_mode_built_by_its_first_batch(self):
        # A handle holds only the modes it ran: one row of csa32.4
        # walks, 32 rows and every delay override take the level loop.
        plan = HierarchicalAnalyzer(cascade_adder(32, 4)).compile().plan
        rows = [[1.0] * plan.n_inputs] * 32
        queries, batches = NumpyExecutor(plan), NumpyExecutor(plan)
        assert queries._walk is queries._levels is None
        queries.propagate(rows[:1])
        assert queries._walk is not None and queries._levels is None
        batches.propagate(rows)
        batches.propagate(rows[:1], delays=plan.ent_delay)
        assert batches._walk is None and batches._levels is not None


def small_graph():
    graph = CompiledTimingGraph(
        nets=["a", "b", "m", "o"],
        edges=[
            ("a", "m", "am", 3.0),
            ("b", "m", "bm", 1.0),
            ("m", "o", "mo", 2.0),
        ],
        inputs=["a", "b"],
        outputs=["o"],
    )
    return graph


class TestTimingGraph:
    def test_run_full(self):
        state = GraphState(small_graph(), {"a": 1.0})
        state.run_full()
        assert state.at_dict() == {"a": 1.0, "b": 0.0, "m": 4.0, "o": 6.0}
        assert state.deadline == 6.0
        assert state.rt_dict() == {"a": 1.0, "b": 3.0, "m": 4.0, "o": 6.0}

    def test_reflow_matches_full(self):
        graph = small_graph()
        state = GraphState(graph, {"a": 1.0})
        state.run_full()
        dirty = graph.set_key_weight("am", 0.5)
        state.reflow(dirty)
        fresh = GraphState(graph, {"a": 1.0})
        fresh.run_full()
        assert state.at == fresh.at
        assert state.rt == fresh.rt
        assert state.deadline == fresh.deadline

    def test_reflow_skips_backward_when_deadline_unmoved(self):
        graph = small_graph()
        state = GraphState(graph, {"a": 1.0})
        state.run_full()
        assert state.full_backward_passes == 1
        # b -> m is slack-covered; lowering it moves nothing.
        state.reflow(graph.set_key_weight("bm", 0.5))
        assert state.full_backward_passes == 1
        assert state.reflow_backward_nodes > 0

    def test_weight_may_only_decrease(self):
        graph = small_graph()
        graph.set_key_weight("am", 2.0)
        with pytest.raises(AnalysisError, match="only decrease"):
            graph.set_key_weight("am", 2.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(AnalysisError, match="unknown edge key"):
            small_graph().set_key_weight("zz", 0.0)

    def test_topological_order_enforced(self):
        with pytest.raises(AnalysisError, match="topological order"):
            CompiledTimingGraph(
                nets=["a", "z"],
                edges=[("z", "a", "k", 1.0)],
                inputs=["a"],
                outputs=["z"],
            )

    def test_inputs_must_prefix_nets(self):
        with pytest.raises(AnalysisError, match="primary inputs"):
            CompiledTimingGraph(
                nets=["z", "a"], edges=[], inputs=["a"], outputs=["z"]
            )

    def test_neg_inf_weight_disables_edge(self):
        graph = small_graph()
        state = GraphState(graph, {})
        state.run_full()
        state.reflow(graph.set_key_weight("am", NEG_INF))
        fresh = GraphState(graph, {})
        fresh.run_full()
        assert state.at == fresh.at
        assert state.at_dict()["m"] == 1.0

    def test_critical_edges_in_order(self):
        graph = small_graph()
        state = GraphState(graph, {})
        state.run_full()
        # Critical path is a -> m -> o (a and b tie at 0.0 arrivals,
        # but b's edge is slack-covered: 0 + 1 != 3).
        crit = state.critical_edge_ids()
        assert crit == [0, 2]


class TestGoldenEquivalence:
    """Compiled engines are bit-identical to the reference walks."""

    @pytest.fixture(scope="class")
    def design(self):
        return cascade_adder(8, 2)

    def test_hier_single_scenario(self, design):
        analyzer = HierarchicalAnalyzer(design)
        result = analyzer.analyze({"c_in": 2.0})
        oracle = hier_net_times(
            design, analyzer._models_of_instance, {"c_in": 2.0}
        )
        assert result.net_times == oracle
        assert result.delay == max(oracle[o] for o in design.outputs)

    def test_hier_batch(self, design):
        rng = random.Random(3)
        scenarios = [
            {x: rng.uniform(0.0, 6.0) for x in design.inputs}
            for _ in range(12)
        ]
        analyzer = HierarchicalAnalyzer(design)
        batch = analyzer.analyze_batch(scenarios)
        plan = analyzer.compile().plan
        python = PythonExecutor(plan).propagate(
            analyzer.compile().rows_from(scenarios)
        )
        for result, row, s in zip(batch, python, scenarios):
            oracle = hier_net_times(design, analyzer._models_of_instance, s)
            assert result.net_times == dict(zip(plan.nets, row)) == oracle

    def test_demand_engines(self, design):
        result = DemandDrivenAnalyzer(design).analyze({"c_in": 1.0})
        oracle = reference_demand(DemandDrivenAnalyzer(design), {"c_in": 1.0})
        assert result.net_times == oracle["net_times"]
        assert result.sta_passes == oracle["sta_passes"] > 1
        assert result.refined_weights == oracle["refined_weights"]
        assert result.required_times == oracle["required_times"]

    def test_per_instance_compile(self, design):
        analyzer = PerInstanceAnalyzer(design)
        result = analyzer.analyze()
        oracle = hier_net_times(design, analyzer._models_of_instance, {})
        assert result.net_times == oracle
        assert analyzer.compile().propagate([{}])[0] == oracle

    def test_sta_batch(self):
        net = carry_skip_block(3)
        scenarios = [{}, {net.inputs[0]: 4.0}, {net.inputs[1]: -2.0}]
        batch = arrival_times_batch(net, scenarios)
        assert batch == [arrival_times(net, s) for s in scenarios]
        many = scenarios * 3  # on the numpy executor when installed
        for view, scenario in zip(arrival_times_batch(net, many), many):
            expected = arrival_times(net, scenario)
            assert expected == view and list(view) == list(expected)

    def test_compile_handle_cached_and_forced(self, design):
        analyzer = HierarchicalAnalyzer(design)
        first = analyzer.compile()
        assert analyzer.compile() is first
        assert analyzer.compile(force=True) is not first
