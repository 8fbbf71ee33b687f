"""Functional-correctness tests for every circuit generator."""

import pytest

from repro.circuits.adders import (
    carry_select_adder,
    carry_skip_block,
    cascade_adder,
    full_adder,
    ripple_adder,
)
from repro.circuits.iscaslike import alu, shared_select_chain, table2_circuits
from repro.circuits.partition import cascade_bipartition, group_cascade, subnetwork
from repro.circuits.random_logic import random_network
from repro.circuits.trees import (
    and_or_tree,
    carry_lookahead_adder,
    comparator,
    mux_tree,
    parity_tree,
    priority_encoder,
)
from repro.errors import NetlistError
from repro.netlist.ops import networks_equivalent_on
from repro.sim.vectors import all_vectors, random_vectors


def _decode(values, bits, prefix="s"):
    return sum((1 << i) for i in range(bits) if values[f"{prefix}{i}"])


def _adds_correctly(net, bits, carry_name, vectors):
    for vec in vectors:
        values = net.output_values(vec)
        a = sum((1 << i) for i in range(bits) if vec[f"a{i}"])
        b = sum((1 << i) for i in range(bits) if vec[f"b{i}"])
        want = a + b + int(vec.get("c_in", False))
        got = _decode(values, bits) + ((1 << bits) if values[carry_name] else 0)
        assert got == want, (vec, got, want)


class TestAdders:
    def test_full_adder_truth_table(self):
        net = full_adder()
        for vec in all_vectors(net.inputs):
            values = net.output_values(vec)
            total = int(vec["a"]) + int(vec["b"]) + int(vec["cin"])
            assert values["sum"] == bool(total & 1)
            assert values["cout"] == bool(total >> 1)

    @pytest.mark.parametrize("bits", [1, 2, 4])
    def test_ripple_adder(self, bits):
        net = ripple_adder(bits)
        vectors = (
            list(all_vectors(net.inputs))
            if bits <= 2
            else random_vectors(net.inputs, 64, seed=4)
        )
        _adds_correctly(net, bits, f"c{bits}", vectors)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_carry_skip_block_adds(self, bits):
        net = carry_skip_block(bits)
        vectors = (
            list(all_vectors(net.inputs))
            if bits <= 3
            else random_vectors(net.inputs, 128, seed=5)
        )
        _adds_correctly(net, bits, "c_out", vectors)

    @pytest.mark.parametrize("n,m", [(4, 2), (8, 4), (6, 3)])
    def test_cascade_adder_adds(self, n, m):
        flat = cascade_adder(n, m).flatten()
        _adds_correctly(flat, n, f"c{n}", random_vectors(flat.inputs, 64, seed=6))

    @pytest.mark.parametrize("n,m", [(4, 2), (8, 2), (9, 3)])
    def test_carry_select_adder_adds(self, n, m):
        net = carry_select_adder(n, m)
        _adds_correctly(net, n, f"c{n}", random_vectors(net.inputs, 96, seed=7))

    def test_cascade_requires_divisible(self):
        with pytest.raises(NetlistError):
            cascade_adder(10, 4)

    def test_invalid_sizes(self):
        with pytest.raises(NetlistError):
            ripple_adder(0)
        with pytest.raises(NetlistError):
            carry_skip_block(0)


class TestTrees:
    @pytest.mark.parametrize("width", [1, 2, 5, 8])
    def test_parity_tree(self, width):
        net = parity_tree(width)
        for vec in random_vectors(net.inputs, 32, seed=8):
            want = sum(vec.values()) % 2 == 1
            assert net.output_values(vec)[net.outputs[0]] == want

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_mux_tree_selects(self, bits):
        net = mux_tree(bits)
        for vec in random_vectors(net.inputs, 48, seed=9):
            sel = sum((1 << i) for i in range(bits) if vec[f"s{i}"])
            assert net.output_values(vec)[net.outputs[0]] == vec[f"d{sel}"]

    def test_and_or_tree_depth2(self):
        net = and_or_tree(2)
        # (x0·x1) + (x2·x3)
        for vec in all_vectors(net.inputs):
            want = (vec["x0"] and vec["x1"]) or (vec["x2"] and vec["x3"])
            assert net.output_values(vec)[net.outputs[0]] == want

    @pytest.mark.parametrize("width", [1, 3, 6])
    def test_comparator(self, width):
        net = comparator(width)
        for vec in random_vectors(net.inputs, 64, seed=10):
            a = sum((1 << i) for i in range(width) if vec[f"a{i}"])
            b = sum((1 << i) for i in range(width) if vec[f"b{i}"])
            values = net.output_values(vec)
            assert values["eq"] == (a == b)
            assert values["gt"] == (a > b)

    @pytest.mark.parametrize("width", [1, 4, 7])
    def test_priority_encoder(self, width):
        net = priority_encoder(width)
        for vec in random_vectors(net.inputs, 48, seed=11):
            values = net.output_values(vec)
            first = next(
                (i for i in range(width) if vec[f"r{i}"]), None
            )
            assert values["valid"] == (first is not None)
            for i in range(width):
                assert values[f"y{i}"] == (i == first)

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_cla_matches_ripple(self, width):
        cla = carry_lookahead_adder(width)
        _adds_correctly(cla, width, f"c{width}",
                        random_vectors(cla.inputs, 96, seed=12))


class TestALU:
    def test_alu_operations(self):
        net = alu(4)
        for vec in random_vectors(net.inputs, 128, seed=13):
            a = sum((1 << i) for i in range(4) if vec[f"a{i}"])
            b = sum((1 << i) for i in range(4) if vec[f"b{i}"])
            op = (int(vec["op1"]) << 1) | int(vec["op0"])
            values = net.output_values(vec)
            y = sum((1 << i) for i in range(4) if values[f"y{i}"])
            if op == 0:
                assert y == (a & b)
            elif op == 1:
                assert y == (a | b)
            elif op == 2:
                assert y == (a ^ b)
            else:
                assert y == (a + b + int(vec["c_in"])) & 0xF


class TestRandomLogic:
    def test_deterministic_per_seed(self):
        a = random_network(5, 10, seed=99)
        b = random_network(5, 10, seed=99)
        assert networks_equivalent_on(a, b, random_vectors(a.inputs, 16, 0))

    def test_requested_sizes(self):
        net = random_network(7, 25, seed=1, num_outputs=3)
        assert len(net.inputs) == 7
        assert net.num_gates() == 25
        assert len(net.outputs) == 3

    def test_acyclic(self):
        net = random_network(6, 40, seed=2)
        net.topological_order()  # raises on cycles

    def test_two_inputs_first_gate_needs_three_fanins(self):
        """Seed 19 draws a MUX first, which needs 3 distinct fanins
        while only the 2 inputs exist; generation used to loop forever."""
        net = random_network(2, 5, seed=19)
        assert net.num_gates() == 5
        for gate in net.gates.values():
            assert len(set(gate.fanins)) == len(gate.fanins)


class TestPartition:
    @pytest.mark.parametrize("name", sorted(table2_circuits()))
    def test_bipartition_preserves_function(self, name):
        net = table2_circuits()[name]
        design = cascade_bipartition(net)
        flat = design.flatten()
        assert networks_equivalent_on(
            net, flat, random_vectors(net.inputs, 48, seed=14)
        )

    def test_bipartition_two_modules(self):
        net = shared_select_chain()
        design = cascade_bipartition(net)
        assert len(design.modules) == 2
        assert len(design.instances) == 2

    def test_bad_fraction_rejected(self):
        net = shared_select_chain()
        with pytest.raises(NetlistError):
            cascade_bipartition(net, cut_fraction=0.0)

    def test_tiny_circuit_rejected(self):
        from repro.netlist.network import Network

        net = Network()
        net.add_input("a")
        net.add_gate("z", "NOT", ["a"])
        net.set_outputs(["z"])
        with pytest.raises(NetlistError):
            cascade_bipartition(net)

    def test_subnetwork_output_must_be_inside(self):
        net = shared_select_chain()
        with pytest.raises(NetlistError):
            subnetwork(net, {"ch0"}, ["outer"], "frag")

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_group_cascade_preserves_function(self, groups):
        design = cascade_adder(8, 2)
        grouped = group_cascade(design, groups)
        assert networks_equivalent_on(
            design.flatten(),
            grouped.flatten(),
            random_vectors(design.flatten().inputs, 32, seed=15),
        )

    def test_group_count_validated(self):
        design = cascade_adder(8, 2)
        with pytest.raises(NetlistError):
            group_cascade(design, 9)
