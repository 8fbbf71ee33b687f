"""Tests for the XBD0 stability-function engine (the core of the library)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AnalysisSession
from repro.bdd.manager import BDDManager
from repro.circuits.adders import carry_skip_block, cascade_adder
from repro.circuits.random_logic import random_network
from repro.core.demand import DemandDrivenAnalyzer
from repro.core.hier import HierarchicalAnalyzer
from repro.core.xbd0 import (
    NEG_INF,
    POS_INF,
    StabilityAnalyzer,
    circuit_delay,
    functional_delays,
    topological_upper_bound,
)
from repro.errors import AnalysisError, ReproError
from repro.kernel import (
    HAVE_NUMPY,
    NumpyExecutor,
    compile_network,
    pick_backend,
)
from repro.kernel.backend import pick_mode
from repro.netlist.network import Network
from repro.obs import Tracer
from repro.sim.timed import brute_force_delay, brute_force_stable_at
from repro.sta.topological import arrival_times, arrival_times_batch

#: The two tautology engines, and ``brute``: the vector-enumeration
#: oracle of :mod:`repro.sim.timed` that both engines must agree with.
ENGINES = ("sat", "bdd", "brute")


def stable_on(engine, net, output, t, arrival=None):
    """Whether ``output`` is stable by ``t``, decided on ``engine``."""
    if engine == "brute":
        return brute_force_stable_at(net, output, t, arrival)
    return StabilityAnalyzer(net, arrival, engine).stable_at(output, t)


def delays_on(engine, net, arrival=None):
    """Every output's XBD0 stable time, computed on ``engine``."""
    if engine == "brute":
        return {o: brute_force_delay(net, o, arrival) for o in net.outputs}
    analyzer = StabilityAnalyzer(net, arrival, engine)
    return {o: analyzer.functional_delay(o) for o in net.outputs}


class TestStableAt:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_and_gate(self, and2, engine):
        assert not stable_on(engine, and2, "z", 0.5)
        assert stable_on(engine, and2, "z", 1.0)
        assert stable_on(engine, and2, "z", 2.0)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_carry_skip_known_threshold(self, csa_block2, engine):
        assert not stable_on(engine, csa_block2, "c_out", 7.0)
        assert stable_on(engine, csa_block2, "c_out", 8.0)

    def test_unconstrained_input_still_stabilizes_controlled_gate(self):
        # z = AND(a, b): with b unconstrained (-inf = always there) the
        # output still waits on a.
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("z", "AND", ["a", "b"], 1.0)
        net.set_outputs(["z"])
        analyzer = StabilityAnalyzer(net, {"b": NEG_INF})
        assert analyzer.stable_at("z", 1.0)
        assert not analyzer.stable_at("z", 0.5)

    def test_never_arriving_input(self):
        # b arrives at +inf: output can never be stable for vectors that
        # depend on it, so stability must fail at any finite time.
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("z", "AND", ["a", "b"], 1.0)
        net.set_outputs(["z"])
        analyzer = StabilityAnalyzer(net, {"b": float("inf")})
        assert not analyzer.stable_at("z", 100.0)

    def test_paper_tuple_condition(self, csa_block2):
        # the (2,8,8,6,6) tuple: valid at exactly those offsets, invalid
        # if c_in is given one unit less margin
        good = {"c_in": -2.0, "a0": -8.0, "b0": -8.0, "a1": -6.0, "b1": -6.0}
        assert StabilityAnalyzer(csa_block2, good).stable_at("c_out", 0.0)
        bad = dict(good, c_in=-1.0)
        # loosening c_in by 1 keeps falsity? check against brute force
        expected = brute_force_stable_at(csa_block2, "c_out", 0.0, bad)
        assert StabilityAnalyzer(csa_block2, bad).stable_at(
            "c_out", 0.0
        ) == expected

    def test_monotone_in_time(self, csa_block2):
        analyzer = StabilityAnalyzer(csa_block2)
        times = [0.0, 2.0, 4.0, 6.0, 7.0, 8.0, 10.0]
        flags = [analyzer.stable_at("c_out", t) for t in times]
        # once stable, stays stable
        assert flags == sorted(flags)


class TestFunctionalDelay:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_carry_skip_all_outputs(self, csa_block2, engine):
        delays = delays_on(engine, csa_block2)
        assert delays == {"s0": 4.0, "s1": 6.0, "c_out": 8.0}

    def test_fig5_arrival_condition(self, csa_block2):
        delays = functional_delays(csa_block2, {"c_in": 5.0})
        assert delays["c_out"] == 8.0
        delays = functional_delays(csa_block2, {"c_in": 7.0})
        assert delays["c_out"] == 9.0

    def test_constant_output(self):
        net = Network()
        net.add_input("a")
        net.add_gate("k", "CONST1", [], 1.0)
        net.add_gate("z", "OR", ["a", "k"], 1.0)
        net.set_outputs(["z"])
        assert functional_delays(net)["z"] == NEG_INF

    def test_functionally_constant_but_not_structurally(self):
        # z = a AND NOT a == 0, but before 'a' arrives the gates can
        # glitch, so the stable time is the real path delay, not -inf.
        net = Network()
        net.add_input("a")
        net.add_gate("n", "NOT", ["a"], 1.0)
        net.add_gate("z", "AND", ["a", "n"], 1.0)
        net.set_outputs(["z"])
        assert functional_delays(net)["z"] == 2.0

    def test_circuit_delay_is_max(self, csa_block2):
        assert circuit_delay(csa_block2) == 8.0

    def test_unknown_output_raises(self, csa_block2):
        with pytest.raises(AnalysisError):
            StabilityAnalyzer(csa_block2).functional_delay("ghost")

    def test_false_path_visible_under_late_side_input(self, false_path_circuit):
        # all inputs at 0: chain dominates (delay 5)
        assert functional_delays(false_path_circuit)["z"] == 5.0
        # chain start 'a' delayed: when s=1 mux passes 'a' directly, but
        # when s=0 the chain matters -> both see a's lateness; the skip
        # keeps the delay at a+? check against the oracle
        arr = {"a": 10.0}
        want = brute_force_delay(false_path_circuit, "z", arr)
        assert functional_delays(false_path_circuit, arr)["z"] == want


def _input_as_output() -> Network:
    net = Network("wire")
    net.add_input("a")
    net.set_outputs(["a"])
    return net


def _and_not_self() -> Network:
    net = Network("and_not_self")
    net.add_input("a")
    net.add_gate("n", "NOT", ["a"], 1.0)
    net.add_gate("z", "AND", ["a", "n"], 1.0)
    net.set_outputs(["z"])
    return net


class TestNeverArrivingOutputs:
    """An output every path of which starts at an input that never
    arrives (``+inf``) is never stable: its XBD0 time is ``+inf``, the
    same as its topological bound, not the ``-inf`` of a constant."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "build", [_input_as_output, _and_not_self], ids=["input", "and-not"]
    )
    def test_reads_plus_inf(self, build, engine):
        net = build()
        arrival = {"a": POS_INF}
        delays = delays_on(engine, net, arrival)
        at = arrival_times(net, arrival)
        for out in net.outputs:
            assert delays[out] == at[out] == POS_INF, (out, engine)


class TestFlatBDD:
    """Flat analysis runs on one BDD manager whose variable order puts
    the inputs nearest the outputs first; the manager size pins the
    order (port order, with the carry-in on top, builds 9,376 and
    93,066 nodes on these two adders)."""

    @pytest.mark.parametrize(
        "n, m, delay, nodes", [(16, 4, 24.0, 2_584), (48, 4, 40.0, 14_444)]
    )
    def test_manager_size_pins_the_order(self, n, m, delay, nodes):
        tracer = Tracer()
        flat = cascade_adder(n, m).flatten()
        assert max(functional_delays(flat, tracer=tracer).values()) == delay
        assert tracer.metrics.gauge("xbd0.bdd_nodes").value == nodes

    def test_traced_run_reports_bdd_work(self, csa_block2):
        tracer = Tracer()
        functional_delays(csa_block2, tracer=tracer)
        metrics = tracer.metrics
        assert metrics.counter("xbd0.bdd_checks").value > 0
        assert metrics.gauge("xbd0.bdd_nodes").value > 2
        assert metrics.counter("xbd0.sat_calls").value == 0
        summary = tracer.summary()
        assert "xbd0.bdd_checks" in summary
        assert "xbd0.bdd_nodes" in summary

    def test_node_budget_names_itself(self, monkeypatch):
        monkeypatch.setattr(BDDManager.__init__, "__defaults__", (1000,))
        flat = cascade_adder(16, 4).flatten()
        with pytest.raises(ReproError, match="BDD exceeded 1000 nodes"):
            functional_delays(flat)


class TestEnginesAgree:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_circuits_all_engines_match_oracle(self, seed):
        net = random_network(5, 12, seed=seed, num_outputs=2)
        for out in net.outputs:
            oracle = brute_force_delay(net, out)
            for engine in ("sat", "bdd"):
                got = StabilityAnalyzer(net, engine=engine).functional_delay(out)
                assert got == pytest.approx(oracle), (out, engine)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.data())
    def test_random_arrival_conditions(self, seed, data):
        net = random_network(4, 10, seed=seed, num_outputs=1)
        arrival = {
            x: float(data.draw(st.integers(-3, 3))) for x in net.inputs
        }
        out = net.outputs[0]
        oracle = brute_force_delay(net, out, arrival)
        got = StabilityAnalyzer(net, arrival).functional_delay(out)
        assert got == pytest.approx(oracle)


class TestBounds:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_delay_between_zero_and_topological(self, seed):
        net = random_network(6, 18, seed=seed, num_outputs=2)
        at = arrival_times(net)
        delays = functional_delays(net)
        for o in net.outputs:
            assert delays[o] <= at[o] + 1e-9

    def test_topological_upper_bound_helper(self, csa_block2):
        assert topological_upper_bound(csa_block2) == 8.0


class TestStats:
    def test_sat_calls_counted(self, csa_block2):
        analyzer = StabilityAnalyzer(csa_block2)
        analyzer.functional_delay("c_out")
        assert analyzer.stats["stability_checks"] > 0
        assert analyzer.stats["sat_calls"] > 0

    def test_unknown_engine_rejected(self, csa_block2):
        with pytest.raises(AnalysisError):
            StabilityAnalyzer(csa_block2, engine="magic")


class TestNaNRejected:
    """NaN never equals itself, so a NaN time would defeat the
    ``(signal, t)`` memo of the stability walk and make it re-push the
    same children forever; it is rejected up front instead."""

    def test_nan_arrival_rejected(self):
        with pytest.raises(AnalysisError, match="c_in"):
            functional_delays(carry_skip_block(2), {"c_in": float("nan")})

    @pytest.mark.parametrize("engine", ("sat", "bdd"))
    def test_nan_query_time_rejected(self, csa_block2, engine):
        analyzer = StabilityAnalyzer(csa_block2, engine=engine)
        with pytest.raises(AnalysisError, match="NaN"):
            analyzer.stable_at("c_out", float("nan"))
        with pytest.raises(AnalysisError, match="NaN"):
            analyzer.unstable_witness("c_out", float("nan"))
        assert analyzer.stats["stability_checks"] == 0

    def test_infinite_arrivals_keep_their_meaning(self, csa_block2):
        """``-inf`` is "always there", ``+inf`` "never arrives"."""
        never = functional_delays(csa_block2, {"c_in": float("inf")})
        always = functional_delays(csa_block2, {"c_in": float("-inf")})
        default = functional_delays(csa_block2)["c_out"]
        assert always["c_out"] <= default < never["c_out"] == float("inf")


class TestNaNRejectedOnLibraryPaths:
    """The hierarchical and demand-driven entry points, the compiled
    handle and the batched topological STA reject a NaN arrival before
    any work, naming the input; the kernel would otherwise carry it
    into ``net_times`` (or into the answer), and its python executor
    would drop it, an optimistic answer at a batch of one."""

    @pytest.fixture(scope="class")
    def design(self):
        return cascade_adder(8, 4)

    @pytest.mark.parametrize(
        "run",
        [
            lambda d, a: HierarchicalAnalyzer(d).analyze(a),
            lambda d, a: HierarchicalAnalyzer(d).analyze_batch([{}, a]),
            lambda d, a: AnalysisSession(d).hierarchical(a),
            lambda d, a: DemandDrivenAnalyzer(d).analyze(a),
            lambda d, a: DemandDrivenAnalyzer(d).analyze_batch([{}, a]),
            lambda d, a: AnalysisSession(d).compile().propagate([a]),
            lambda d, a: AnalysisSession(d).compile().propagate([a] * 8),
            lambda d, a: arrival_times_batch(d.flatten(), [a]),
            lambda d, a: arrival_times_batch(d.flatten(), [a] * 8),
        ],
        ids=[
            "hier-analyze",
            "hier-batch",
            "session-hierarchical",
            "demand-analyze",
            "demand-batch",
            "compiled-propagate-1",
            "compiled-propagate-8",
            "arrival-times-batch-1",
            "arrival-times-batch-8",
        ],
    )
    def test_nan_arrival_rejected(self, design, run):
        for nan in (float("nan"), "nan"):
            with pytest.raises(AnalysisError, match="'c_in'"):
                run(design, {"a0": 1.0, "c_in": nan})

    @pytest.mark.parametrize("rows", [1, 8])
    def test_row_builder_checks_the_converted_value(
        self, design, rows, monkeypatch
    ):
        handle = AnalysisSession(design).compile()
        # The ``compiled-propagate-1``/``-8`` and
        # ``arrival-times-batch-1``/``-8`` cases above run on numpy when
        # it is installed: one row walks, and 8 rows of the flattened
        # plan (45 spine tuples, 21 levels) take the level loop.  Here
        # the row builder also answers with python pinned.
        executors = ["numpy", "python"] if HAVE_NUMPY else ["python"]
        for executor in executors:
            monkeypatch.setattr(
                "repro.kernel.backend.HAVE_NUMPY", executor == "numpy"
            )
            assert pick_backend() == executor
            if executor == "numpy":
                for plan, mode in (
                    (handle.plan, "walk"),
                    (
                        compile_network(design.flatten()),
                        "walk" if rows == 1 else "levels",
                    ),
                ):
                    spine = NumpyExecutor(plan).spine_tuples
                    assert pick_mode(spine, plan.n_levels, rows) == mode
            with pytest.raises(AnalysisError, match="'c_in'"):
                handle.propagate([{"a0": 1.0, "c_in": "nan"}] * rows)

    def test_infinite_arrivals_keep_their_meaning(self, design):
        for analyzer in (
            HierarchicalAnalyzer(design),
            DemandDrivenAnalyzer(design),
        ):
            default = analyzer.analyze().delay
            never = analyzer.analyze({"c_in": float("inf")}).delay
            always = analyzer.analyze({"c_in": float("-inf")}).delay
            assert always <= default < never == float("inf")
