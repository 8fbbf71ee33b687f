"""Tests for netlist transformations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.adders import carry_skip_block
from repro.circuits.random_logic import random_network
from repro.core.xbd0 import functional_delays
from repro.netlist.network import Network
from repro.netlist.ops import networks_equivalent_on
from repro.netlist.transform import (
    collapse_buffers,
    decompose_complex,
    propagate_constants,
    sweep,
)
from repro.sim.vectors import all_vectors, random_vectors
from repro.sta.topological import arrival_times, pin_to_pin_delay
from tests.reference import equivalent


class TestDecompose:
    def test_mux_function_preserved(self):
        block = carry_skip_block(2)
        dec = decompose_complex(block)
        assert networks_equivalent_on(
            block, dec, list(all_vectors(block.inputs))
        )

    def test_pin_to_pin_delays_preserved(self):
        block = carry_skip_block(2)
        dec = decompose_complex(block)
        for x in block.inputs:
            for o in block.outputs:
                assert pin_to_pin_delay(block, x, o) == pin_to_pin_delay(
                    dec, x, o
                )

    def test_wide_xor_decomposed(self):
        net = Network("px")
        net.add_inputs(["a", "b", "c", "d"])
        net.add_gate("z", "XNOR", ["a", "b", "c", "d"], 2.0)
        net.set_outputs(["z"])
        dec = decompose_complex(net)
        assert all(
            len(g.fanins) <= 2 for g in dec.gates.values()
        )
        assert networks_equivalent_on(
            net, dec, list(all_vectors(net.inputs))
        )
        assert pin_to_pin_delay(dec, "a", "z") == 2.0

    def test_decomposed_mux_loses_consensus_tightness(self):
        """The AND-OR mux has no consensus term: XBD0 of the decomposed
        carry-skip block is (weakly) more pessimistic on c_out under a
        late carry-in — a netlist-style fact the ablation bench shows."""
        block = carry_skip_block(2)
        dec = decompose_complex(block)
        arrival = {"c_in": 6.0}
        tight = functional_delays(block, arrival)["c_out"]
        loose = functional_delays(dec, arrival)["c_out"]
        assert loose >= tight

    def test_consensus_separation_canonical(self):
        """z = MUX(sel, d, d) with a late select: the primitive MUX is
        stable once d is (consensus); the AND-OR form waits for sel."""
        net = Network("cd")
        net.add_inputs(["sel", "d"])
        net.add_gate("z", "MUX", ["sel", "d", "d"], 1.0)
        net.set_outputs(["z"])
        arrival = {"sel": 10.0}
        assert functional_delays(net, arrival)["z"] == 1.0
        dec = decompose_complex(net)
        assert functional_delays(dec, arrival)["z"] == 11.0

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_equivalence(self, seed):
        net = random_network(5, 14, seed=seed, num_outputs=2)
        dec = decompose_complex(net)
        assert networks_equivalent_on(
            net, dec, random_vectors(net.inputs, 24, seed=seed)
        )


class TestProvenEquivalence:
    """Transforms proven function-preserving by the SAT miter of
    :func:`tests.reference.equivalent`, not only on sampled vectors."""

    def test_transform_equivalence(self):
        net = carry_skip_block(2)
        assert equivalent(net, decompose_complex(net))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_transform_chain(self, seed):
        net = random_network(5, 16, seed=seed, num_outputs=2)
        rewritten = propagate_constants(decompose_complex(net))
        assert equivalent(net, rewritten)


class TestConstants:
    def build(self) -> Network:
        net = Network("k")
        net.add_inputs(["a", "b"])
        net.add_gate("one", "CONST1", ())
        net.add_gate("zero", "CONST0", ())
        net.add_gate("and_dead", "AND", ["a", "zero"], 1.0)   # -> 0
        net.add_gate("or_live", "OR", ["a", "zero"], 1.0)     # -> BUF(a)
        net.add_gate("and_live", "AND", ["b", "one"], 1.0)    # -> BUF(b)
        net.add_gate("z", "OR", ["and_dead", "or_live", "and_live"], 1.0)
        net.set_outputs(["z"])
        return net

    def test_folding(self):
        net = self.build()
        folded = propagate_constants(net)
        assert folded.gate("and_dead").gtype.value == "CONST0"
        assert folded.gate("or_live").gtype.value == "BUF"
        assert networks_equivalent_on(
            net, folded, list(all_vectors(net.inputs))
        )

    def test_full_constant_collapse(self):
        net = Network("cc")
        net.add_input("a")
        net.add_gate("one", "CONST1", ())
        net.add_gate("none", "NOT", ["one"], 1.0)
        net.add_gate("z", "OR", ["none", "one"], 1.0)
        net.set_outputs(["z"])
        folded = propagate_constants(net)
        assert folded.gate("z").gtype.value == "CONST1"

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_equivalence(self, seed):
        net = random_network(5, 14, seed=seed, num_outputs=2)
        folded = propagate_constants(net)
        assert networks_equivalent_on(
            net, folded, random_vectors(net.inputs, 16, seed=seed)
        )


class TestSweepAndBuffers:
    def test_sweep_drops_dangling(self):
        net = Network("s")
        net.add_input("a")
        net.add_gate("used", "NOT", ["a"], 1.0)
        net.add_gate("dead", "NOT", ["a"], 1.0)
        net.add_gate("deader", "NOT", ["dead"], 1.0)
        net.set_outputs(["used"])
        swept = sweep(net)
        assert swept.num_gates() == 1
        assert not swept.has_signal("dead")

    def test_collapse_buffers(self):
        net = Network("b")
        net.add_input("a")
        net.add_gate("buf1", "BUF", ["a"], 0.0)
        net.add_gate("buf2", "BUF", ["buf1"], 0.0)
        net.add_gate("z", "NOT", ["buf2"], 1.0)
        net.set_outputs(["z"])
        collapsed = collapse_buffers(net)
        assert collapsed.num_gates() == 1
        assert collapsed.gate("z").fanins == ("a",)

    def test_collapse_keeps_output_buffers(self):
        net = Network("ob")
        net.add_input("a")
        net.add_gate("z", "BUF", ["a"], 0.0)
        net.set_outputs(["z"])
        collapsed = collapse_buffers(net)
        assert collapsed.outputs == ("z",)
        assert collapsed.has_signal("z")

    def test_collapse_keeps_delayed_buffers(self):
        net = Network("db")
        net.add_input("a")
        net.add_gate("slow", "BUF", ["a"], 2.0)
        net.add_gate("z", "NOT", ["slow"], 1.0)
        net.set_outputs(["z"])
        collapsed = collapse_buffers(net)
        assert collapsed.has_signal("slow")
        assert arrival_times(collapsed)["z"] == 3.0

    def test_flatten_then_collapse_roundtrip(self):
        from repro.circuits.adders import cascade_adder

        flat = cascade_adder(4, 2).flatten()
        collapsed = collapse_buffers(flat)
        assert collapsed.num_gates() < flat.num_gates()
        assert networks_equivalent_on(
            flat, collapsed, random_vectors(flat.inputs, 24, seed=2)
        )
        # zero-delay buffers never carried timing
        for o in flat.outputs:
            assert arrival_times(flat)[o] == arrival_times(collapsed)[o]


class TestConstantMuxXor:
    def test_mux_constant_select(self):
        net = Network("m")
        net.add_inputs(["a", "b"])
        net.add_gate("one", "CONST1", ())
        net.add_gate("z", "MUX", ["one", "a", "b"], 2.0)
        net.set_outputs(["z"])
        folded = propagate_constants(net)
        assert folded.gate("z").gtype.value == "BUF"
        assert folded.gate("z").fanins == ("b",)
        assert networks_equivalent_on(
            net, folded, list(all_vectors(net.inputs))
        )

    def test_mux_constant_select_and_data(self):
        net = Network("m2")
        net.add_input("a")
        net.add_gate("zero", "CONST0", ())
        net.add_gate("one", "CONST1", ())
        net.add_gate("z", "MUX", ["zero", "one", "a"], 2.0)
        net.set_outputs(["z"])
        folded = propagate_constants(net)
        assert folded.gate("z").gtype.value == "CONST1"

    def test_xor_with_constant_true_becomes_not(self):
        net = Network("x")
        net.add_input("a")
        net.add_gate("one", "CONST1", ())
        net.add_gate("z", "XOR", ["a", "one"], 2.0)
        net.set_outputs(["z"])
        folded = propagate_constants(net)
        assert folded.gate("z").gtype.value == "NOT"
        assert networks_equivalent_on(
            net, folded, list(all_vectors(net.inputs))
        )

    def test_xnor_with_constant_false(self):
        net = Network("x2")
        net.add_inputs(["a", "b"])
        net.add_gate("zero", "CONST0", ())
        net.add_gate("z", "XNOR", ["a", "zero", "b"], 2.0)
        net.set_outputs(["z"])
        folded = propagate_constants(net)
        assert folded.gate("z").gtype.value == "XNOR"
        assert folded.gate("z").fanins == ("a", "b")
        assert networks_equivalent_on(
            net, folded, list(all_vectors(net.inputs))
        )

    def test_wide_xor_two_true_constants_cancel(self):
        net = Network("x3")
        net.add_inputs(["a", "b"])
        net.add_gate("one1", "CONST1", ())
        net.add_gate("one2", "CONST1", ())
        net.add_gate("z", "XOR", ["a", "one1", "b", "one2"], 2.0)
        net.set_outputs(["z"])
        folded = propagate_constants(net)
        assert folded.gate("z").gtype.value == "XOR"
        assert networks_equivalent_on(
            net, folded, list(all_vectors(net.inputs))
        )
