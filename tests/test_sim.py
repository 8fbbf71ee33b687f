"""Tests for input vectors and the per-vector XBD0 oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.random_logic import random_network
from repro.netlist.network import Network
from repro.sim.timed import (
    NEG_INF,
    brute_force_delay,
    brute_force_stable_at,
    stable_times,
    vector_output_delay,
)
from repro.sim.vectors import all_vectors, corner_vectors, random_vectors
from repro.sta.topological import arrival_times


class TestVectors:
    def test_all_vectors_count(self):
        assert len(list(all_vectors(["a", "b", "c"]))) == 8

    def test_random_vectors_deterministic(self):
        assert random_vectors(["a", "b"], 5, seed=1) == random_vectors(
            ["a", "b"], 5, seed=1
        )

    def test_corner_vectors(self):
        vecs = corner_vectors(["a", "b"])
        assert {"a": False, "b": False} in vecs
        assert {"a": True, "b": False} in vecs


class TestStableTimes:
    def test_and_controlled_by_earliest_zero(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("z", "AND", ["a", "b"], 1.0)
        net.set_outputs(["z"])
        arr = {"a": 0.0, "b": 5.0}
        # a=0 controls: stable at 0+1 regardless of b
        assert vector_output_delay(net, {"a": False, "b": True}, "z", arr) == 1.0
        # both 1: need both stable
        assert vector_output_delay(net, {"a": True, "b": True}, "z", arr) == 6.0
        # b=0 controls but arrives late
        assert vector_output_delay(net, {"a": True, "b": False}, "z", arr) == 6.0

    def test_xor_always_needs_both(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("z", "XOR", ["a", "b"], 2.0)
        net.set_outputs(["z"])
        arr = {"a": 1.0, "b": 3.0}
        for vec in all_vectors(["a", "b"]):
            assert vector_output_delay(net, vec, "z", arr) == 5.0

    def test_mux_skip_path(self):
        net = Network()
        net.add_inputs(["s", "d0", "d1"])
        net.add_gate("z", "MUX", ["s", "d0", "d1"], 1.0)
        net.set_outputs(["z"])
        arr = {"s": 0.0, "d0": 10.0, "d1": 0.0}
        # select=1 passes d1: d0's lateness is irrelevant
        assert vector_output_delay(
            net, {"s": True, "d0": True, "d1": False}, "z", arr
        ) == 1.0
        # consensus: d0 == d1 means the output is known once both are,
        # even while select is late
        arr2 = {"s": 10.0, "d0": 0.0, "d1": 0.0}
        assert vector_output_delay(
            net, {"s": True, "d0": True, "d1": True}, "z", arr2
        ) == 1.0

    def test_constant_gate_stable_from_start(self):
        net = Network()
        net.add_input("a")
        net.add_gate("k", "CONST1", [], 1.0)
        net.add_gate("z", "OR", ["a", "k"], 1.0)
        net.set_outputs(["z"])
        st_ = stable_times(net, {"a": True})
        assert st_["k"] == NEG_INF
        # OR controlled by the constant 1: stable at -inf + never mind a
        assert st_["z"] == NEG_INF

    def test_neg_inf_arrival(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("z", "AND", ["a", "b"], 1.0)
        net.set_outputs(["z"])
        arr = {"a": NEG_INF, "b": 0.0}
        assert vector_output_delay(net, {"a": True, "b": True}, "z", arr) == 1.0
        assert vector_output_delay(net, {"a": False, "b": True}, "z", arr) == NEG_INF


class TestBruteForce:
    def test_carry_skip_known_delays(self, csa_block2):
        assert brute_force_delay(csa_block2, "s0") == 4.0
        assert brute_force_delay(csa_block2, "s1") == 6.0
        assert brute_force_delay(csa_block2, "c_out") == 8.0

    def test_stable_at_monotone(self, csa_block2):
        assert not brute_force_stable_at(csa_block2, "c_out", 7.9)
        assert brute_force_stable_at(csa_block2, "c_out", 8.0)
        assert brute_force_stable_at(csa_block2, "c_out", 12.0)

    def test_delay_never_exceeds_topological(self):
        net = random_network(6, 20, seed=42, num_outputs=2)
        at = arrival_times(net)
        for o in net.outputs:
            assert brute_force_delay(net, o) <= at[o] + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_delay_below_topological(self, seed):
        net = random_network(5, 14, seed=seed, num_outputs=1)
        at = arrival_times(net)
        out = net.outputs[0]
        assert brute_force_delay(net, out) <= at[out] + 1e-9
