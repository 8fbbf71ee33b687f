"""Property tests: the compiled kernel is bit-identical to the oracles.

Random reconvergent networks are bipartitioned into random hierarchies;
the compiled engines (both kernel backends, full and incremental
re-propagation) must agree *exactly* with the plain dict walks of
``tests/reference.py`` — the kernel performs the same float64
additions, maxima, and minima, so no tolerance is needed or used.  The
same hierarchies check Theorem 1 on the one remaining path:
``flat XBD0 <= hierarchical`` and ``flat <= demand <= topological``.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.partition import cascade_bipartition
from repro.circuits.random_logic import random_network
from repro.core.demand import DemandDrivenAnalyzer, flat_functional_delay
from repro.core.hier import HierarchicalAnalyzer
from repro.core.timing_model import TimingModel
from repro.core.xbd0 import StabilityAnalyzer
from repro.kernel import (
    HAVE_NUMPY,
    CompiledTimingGraph,
    GraphState,
    NumpyExecutor,
    PythonExecutor,
    compile_design,
    compile_network,
    propagate_batch,
)
from repro.kernel.plan import _GraphBuilder
from tests.reference import graph_sta, hier_net_times, reference_demand

NEG_INF = float("-inf")
POS_INF = float("inf")

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
EXECUTORS = (
    (PythonExecutor, NumpyExecutor) if HAVE_NUMPY else (PythonExecutor,)
)


def random_hierarchy(seed):
    """A random depth-1 design, or None when the bipartition fails."""
    net = random_network(5, 20, seed=seed, num_outputs=2)
    try:
        return cascade_bipartition(net)
    except Exception:
        return None


def random_scenarios(design, seed, count, grid=None):
    """Random arrivals; ``grid`` snaps them to multiples of itself.

    Gate delays are small integers, so arrivals on a power-of-two grid
    keep every path sum exact — the Theorem-1 orderings then compare
    flat and hierarchical sums without rounding in between.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        scenario = {}
        for x in design.inputs:
            if rng.random() < 0.8:
                t = rng.uniform(-4.0, 10.0)
                scenario[x] = round(t / grid) * grid if grid else t
        out.append(scenario)
    return out


class TestHierEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000))
    def test_single_scenario_bit_identical(self, seed):
        design = random_hierarchy(seed)
        if design is None:
            return
        arrival = random_scenarios(design, seed + 1, 1, grid=0.25)[0]
        analyzer = HierarchicalAnalyzer(design)
        result = analyzer.analyze(arrival)
        oracle = hier_net_times(design, analyzer._models_of_instance, arrival)
        assert result.net_times == oracle
        assert result.delay == max(oracle[o] for o in design.outputs)
        flat, _times, _seconds = flat_functional_delay(design, arrival)
        assert flat <= result.delay

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 20))
    def test_batch_bit_identical(self, seed, count):
        design = random_hierarchy(seed)
        if design is None:
            return
        scenarios = random_scenarios(design, seed + 2, count)
        analyzer = HierarchicalAnalyzer(design)
        oracles = [
            hier_net_times(design, analyzer._models_of_instance, s)
            for s in scenarios
        ]
        batch = analyzer.analyze_batch(scenarios)
        for result, oracle in zip(batch, oracles):
            outputs = {o: oracle[o] for o in design.outputs}
            delay = max(outputs.values())
            assert result.net_times == oracle
            assert result.output_times == outputs
            assert result.slacks == {
                o: POS_INF if NEG_INF in (delay, t) else delay - t
                for o, t in outputs.items()
            }
        assert batch.delay == max(
            max(o[x] for x in design.outputs) for o in oracles
        )
        handle = analyzer.compile()
        rows = handle.rows_from(scenarios)
        for executor in EXECUTORS:
            values = executor(handle.plan).propagate(rows)
            assert [dict(zip(handle.plan.nets, v)) for v in values] == oracles


class TestDemandEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_engines_agree_exactly(self, seed):
        design = random_hierarchy(seed)
        if design is None:
            return
        arrival = random_scenarios(design, seed + 3, 1, grid=0.25)[0]
        result = DemandDrivenAnalyzer(design).analyze(arrival)
        oracle = reference_demand(DemandDrivenAnalyzer(design), arrival)
        # The compiled STA with incremental reflow must replay the
        # reference loop decision-for-decision, not merely land on the
        # same delay.
        assert result.net_times == oracle["net_times"]
        assert result.required_times == oracle["required_times"]
        assert result.refined_weights == oracle["refined_weights"]
        assert result.refinement_checks == oracle["refinement_checks"]
        assert result.sta_passes == oracle["sta_passes"]
        assert result.topological_delay == max(
            oracle["topological_at"][o] for o in design.outputs
        )
        # Theorem 1 across engines: the flat oracle runs on BDDs, the
        # hierarchy on SAT, and flat SAT must agree with flat BDD.
        flat, times, _seconds = flat_functional_delay(design, arrival)
        flat_net = design.flatten()
        sat = StabilityAnalyzer(flat_net, arrival, "sat")
        assert times == {o: sat.functional_delay(o) for o in flat_net.outputs}
        assert flat <= result.delay <= result.topological_delay

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_batch_engines_agree(self, seed):
        design = random_hierarchy(seed)
        if design is None:
            return
        scenarios = random_scenarios(design, seed + 4, 4)
        batch = DemandDrivenAnalyzer(design).analyze_batch(scenarios)
        # One reference analyzer for the whole batch: refinements are
        # shared across scenarios, exactly like analyze_batch.
        shared = DemandDrivenAnalyzer(design)
        oracles = [reference_demand(shared, s) for s in scenarios]
        assert batch.stats["sta_passes"] == sum(
            o["sta_passes"] for o in oracles
        )
        assert batch.stats["refinement_checks"] == sum(
            o["refinement_checks"] for o in oracles
        )
        for result, oracle in zip(batch, oracles):
            at, rt = oracle["net_times"], oracle["required_times"]
            assert result.net_times == at
            assert result.slacks == {
                o: POS_INF if at[o] == NEG_INF or rt[o] == POS_INF
                else rt[o] - at[o]
                for o in design.outputs
            }


def drawn_plan(seed, kind):
    """A plan of one ``kind``, or None when the bipartition fails.

    ``network``: a flat gate network (one tuple per node).
    ``hierarchy``: a random hierarchy's compiled design (some nodes
    carry several tuples).  ``edited``: the same design with every
    third output model given an extra all-``-inf`` tuple (its node
    collapses to constant ``-inf``) and every third its first tuple
    reversed as a second one (several tuples per node).
    """
    if kind == "network":
        return compile_network(
            random_network(4, 16, seed=seed, num_outputs=2)
        )
    design = random_hierarchy(seed)
    if design is None:
        return None
    analyzer = HierarchicalAnalyzer(design)
    if kind == "hierarchy":
        return analyzer.compile().plan
    order = {inst: i for i, inst in enumerate(design.instance_order())}
    extras = (
        lambda m: ((NEG_INF,) * len(m.inputs),),
        lambda m: (m.tuples[0][::-1],),
        lambda m: (),
    )

    def models(inst):
        found = analyzer._models_of_instance(inst).items()
        return {
            port: TimingModel(
                m.output,
                m.inputs,
                m.tuples + extras[(order[inst] + j) % 3](m),
            )
            for j, (port, m) in enumerate(found)
        }

    return compile_design(design, models)


def built_plan(seed, p_node):
    """A random plan built node by node.

    Each node has zero tuples (a constant ``-inf`` node), one or
    several; each entry reads an earlier node with chance ``p_node``
    and a primary input otherwise.  ``p_node = 0`` gives one level of
    nodes and no spine (no node is read); near 1 most tuples read no
    input, and constants are read as well as left unread.
    """
    rng = random.Random(seed)
    n_in = rng.randint(1, 5)
    builder = _GraphBuilder(
        f"built{seed}", tuple(f"x{i}" for i in range(n_in))
    )
    for k in range(rng.randint(1, 14)):
        nets = len(builder.nets)
        tuples = []
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            entries = []
            for _ in range(rng.randint(1, 4)):
                node = nets > n_in and rng.random() < p_node
                entries.append((
                    rng.randrange(n_in, nets) if node else rng.randrange(n_in),
                    rng.choice([0.0, 1.0, rng.uniform(-2.0, 6.0)]),
                ))
            tuples.append(entries)
        builder.add_node(f"n{k}", tuples)
    return builder.build()


def shaped_plan():
    """One plan with every shape the walk splits differently: constant
    nodes read (``c0``, on the spine) and unread (``c1``, a sink);
    several tuples per node on the spine (``n0``, ``n2``) and among the
    sinks (``n3``); tuples with no input-fed entry (``n2``'s first,
    ``n3``'s first) and with no node-fed entry (``n0``'s, ``n3``'s
    second, ``n4``'s)."""
    builder = _GraphBuilder("shaped", ("a", "b"))
    a, b, c0, c1, n0, n1, n2 = range(7)
    builder.add_node("c0", [])
    builder.add_node("c1", [])
    builder.add_node("n0", [[(a, 1.0), (b, 2.0)], [(a, 3.0)]])
    builder.add_node("n1", [[(a, 0.5)]])
    builder.add_node("n2", [[(n0, 1.0), (c0, 2.0)], [(n0, 0.5), (b, 4.0)]])
    builder.add_node(
        "n3", [[(n2, 1.0), (n1, 1.0)], [(a, 7.0)], [(n2, 2.0), (b, 1.0)]]
    )
    builder.add_node("n4", [[(a, 2.0), (b, 0.0)]])
    return builder.build()


def arrival_rows(rng, plan, count):
    """``count`` rows of finite, ``-inf`` and ``+inf`` arrivals."""

    def arrival():
        u = rng.random()
        return (
            NEG_INF if u < 0.1
            else POS_INF if u < 0.2
            else rng.uniform(-5.0, 12.0)
        )

    return [[arrival() for _ in range(plan.n_inputs)] for _ in range(count)]


#: The threshold that pins each numpy mode.
MODES = {"walk": sys.maxsize, "levels": 0}


class TestExecutorEquivalence:
    def _check_modes(self, plan, rows, delays=None):
        """The walk (without an override) and the level loop, each
        pinned through the threshold, on a fresh executor and through
        :func:`propagate_batch` at ``CHUNK = 2``, ``==`` the python
        executor."""
        expected = PythonExecutor(plan).propagate(rows, delays=delays)
        for mode in ("walk", "levels") if delays is None else ("levels",):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    "repro.kernel.backend.NUMPY_MIN_LEVEL_TUPLES", MODES[mode]
                )
                got = NumpyExecutor(plan).propagate(rows, delays=delays)
                assert got.tolist() == expected, mode
                # Counts of 3 and 7 cross the chunk boundary; per-row
                # delays are chunked in lockstep with the rows.
                patch.setattr("repro.kernel.execute.CHUNK", 2)
                chunked = propagate_batch(plan, rows, delays=delays)
                assert chunked.tolist() == expected, mode

    @needs_numpy
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(["network", "hierarchy", "edited"]),
        st.sampled_from([1, 2, 3, 7]),
        st.sampled_from(["none", "shared", "rows"]),
    )
    def test_numpy_matches_python(self, seed, kind, count, form):
        plan = drawn_plan(seed, kind)
        if plan is None:
            return
        plan.validate()  # node levels included
        rng = random.Random(seed + 5)

        def scaled():
            return [d * rng.uniform(0.5, 2.0) for d in plan.ent_delay]

        rows = arrival_rows(rng, plan, count)
        delays = {
            "none": lambda: None,
            "shared": scaled,
            "rows": lambda: [scaled() for _ in range(count)],
        }[form]()
        self._check_modes(plan, rows, delays)

    @needs_numpy
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from([0.0, 0.5, 0.9]),
        st.sampled_from([1, 2, 3, 7]),
    )
    def test_walk_splits_match_python(self, seed, p_node, count):
        plan = built_plan(seed, p_node)
        plan.validate()
        self._check_modes(plan, arrival_rows(random.Random(seed), plan, count))

    @needs_numpy
    @pytest.mark.parametrize("count", [1, 2, 3, 7])
    def test_every_walk_shape_matches_python(self, count):
        plan = shaped_plan()
        plan.validate()
        executor = NumpyExecutor(plan)
        assert executor.spine_tuples == 6  # c0, n0 (2), n1, n2 (2)
        rng = random.Random(count)
        rows = arrival_rows(rng, plan, count) + [
            [NEG_INF, POS_INF], [POS_INF, NEG_INF], [NEG_INF, NEG_INF],
        ]
        self._check_modes(plan, rows)


def random_dag(rng):
    """Random CompiledTimingGraph with one unique key per edge."""
    n = rng.randint(6, 16)
    n_in = rng.randint(2, 3)
    nets = [f"n{i}" for i in range(n)]
    edges = []
    for dst in range(n_in, n):
        fanin = rng.sample(range(dst), k=min(dst, rng.randint(1, 3)))
        for src in fanin:
            edges.append(
                (nets[src], nets[dst], len(edges),
                 round(rng.uniform(0.5, 8.0), 3))
            )
    has_out = {e[0] for e in edges}
    sinks = [x for x in nets[n_in:] if x not in has_out]
    outputs = sinks or [nets[-1]]
    return CompiledTimingGraph(nets, edges, nets[:n_in], outputs)


def oracle_graph(graph):
    """``graph`` in :func:`tests.reference.graph_sta`'s argument form."""
    nets = graph.nets
    edges = [
        (nets[s], nets[d], w)
        for s, d, w in zip(graph.edge_src, graph.edge_dst, graph.edge_weight)
    ]
    outputs = [nets[i] for i in graph.output_idx]
    return nets, edges, nets[: graph.n_inputs], outputs


class TestIncrementalReflow:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 100_000))
    def test_reflow_matches_full_repropagation(self, seed):
        rng = random.Random(seed)
        graph = random_dag(rng)
        arrival = {
            graph.nets[i]: round(rng.uniform(0.0, 5.0), 3)
            for i in range(graph.n_inputs)
        }
        state = GraphState(graph, arrival)
        state.run_full()
        at, rt = graph_sta(*oracle_graph(graph), arrival)
        assert state.at_dict() == at
        assert state.rt_dict() == rt
        for _ in range(8):
            eid = rng.randrange(graph.n_edges)
            key = graph.edge_key[eid]
            weight = graph.edge_weight[eid]
            if weight == NEG_INF:
                continue
            if rng.random() < 0.25:
                new = NEG_INF  # refinement proved the pin pair false
            else:
                new = round(weight - rng.uniform(0.0, 4.0), 3)
            state.reflow(graph.set_key_weight(key, new))
            fresh = GraphState(graph, arrival)
            fresh.run_full()
            assert state.at == fresh.at
            assert state.rt == fresh.rt
            assert state.deadline == fresh.deadline
            at, rt = graph_sta(*oracle_graph(graph), arrival)
            assert state.at_dict() == at
            assert state.rt_dict() == rt

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 100_000))
    def test_reflow_touches_fewer_nodes_than_full(self, seed):
        rng = random.Random(seed)
        graph = random_dag(rng)
        state = GraphState(graph, {})
        state.run_full()
        total = 0
        rounds = 0
        for _ in range(5):
            eid = rng.randrange(graph.n_edges)
            weight = graph.edge_weight[eid]
            if weight == NEG_INF:
                continue
            dirty = graph.set_key_weight(
                graph.edge_key[eid], weight - 0.125
            )
            state.reflow(dirty)
            rounds += 1
        total = state.reflow_forward_nodes
        # Each incremental pass touches at most every non-input node.
        assert total <= rounds * (len(graph.nets) - graph.n_inputs)
