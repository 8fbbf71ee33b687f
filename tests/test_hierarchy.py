"""Unit tests for hierarchical designs and flattening."""

import pytest

from repro.circuits.adders import carry_skip_block, cascade_adder
from repro.errors import NetlistError
from repro.netlist.hierarchy import HierDesign, Module
from repro.netlist.network import Network
from repro.sim.vectors import all_vectors, random_vectors


def inverter_module() -> Module:
    net = Network("inv")
    net.add_input("i")
    net.add_gate("o", "NOT", ["i"], 1.0)
    net.set_outputs(["o"])
    return Module("inv", net)


def chain_design(depth: int) -> HierDesign:
    design = HierDesign("chain")
    design.add_module(inverter_module())
    design.add_input("x")
    prev = "x"
    for i in range(depth):
        design.add_instance(f"u{i}", "inv", {"i": prev, "o": f"n{i}"})
        prev = f"n{i}"
    design.set_outputs([prev])
    return design


class TestConstruction:
    def test_duplicate_module_rejected(self):
        design = HierDesign()
        design.add_module(inverter_module())
        with pytest.raises(NetlistError):
            design.add_module(inverter_module())

    def test_unknown_module_rejected(self):
        design = HierDesign()
        design.add_input("x")
        with pytest.raises(NetlistError):
            design.add_instance("u", "ghost", {})

    def test_unconnected_port_rejected(self):
        design = HierDesign()
        design.add_module(inverter_module())
        design.add_input("x")
        with pytest.raises(NetlistError):
            design.add_instance("u", "inv", {"i": "x"})  # 'o' missing

    def test_unknown_port_rejected(self):
        design = HierDesign()
        design.add_module(inverter_module())
        design.add_input("x")
        with pytest.raises(NetlistError):
            design.add_instance("u", "inv", {"i": "x", "o": "y", "zz": "w"})

    def test_multiple_drivers_rejected(self):
        design = HierDesign()
        design.add_module(inverter_module())
        design.add_input("x")
        design.add_instance("u1", "inv", {"i": "x", "o": "y"})
        design.add_instance("u2", "inv", {"i": "x", "o": "y"})
        with pytest.raises(NetlistError):
            design.validate()

    def test_duplicate_input_rejected(self):
        design = HierDesign()
        design.add_input("x")
        with pytest.raises(NetlistError, match="duplicate top-level input"):
            design.add_input("x")

    def test_instance_driving_primary_input_rejected(self):
        design = HierDesign()
        design.add_module(inverter_module())
        design.add_input("x")
        design.add_input("y")
        design.add_instance("u", "inv", {"i": "x", "o": "y"})
        design.set_outputs(["y"])
        with pytest.raises(NetlistError, match="multiple drivers"):
            design.validate()

    def test_undriven_input_rejected(self):
        design = HierDesign()
        design.add_module(inverter_module())
        design.add_instance("u", "inv", {"i": "ghost", "o": "y"})
        design.set_outputs(["y"])
        with pytest.raises(NetlistError):
            design.validate()

    def test_cycle_rejected(self):
        design = HierDesign()
        design.add_module(inverter_module())
        design.add_instance("u1", "inv", {"i": "a", "o": "b"})
        design.add_instance("u2", "inv", {"i": "b", "o": "a"})
        with pytest.raises(NetlistError):
            design.instance_order()


class TestInstanceOrder:
    def test_chain_is_ordered(self):
        design = chain_design(5)
        order = design.instance_order()
        assert order == [f"u{i}" for i in range(5)]

    def test_order_respects_dependencies_not_insertion(self):
        design = HierDesign()
        design.add_module(inverter_module())
        design.add_input("x")
        # inserted out of order
        design.add_instance("late", "inv", {"i": "mid", "o": "out"})
        design.add_instance("early", "inv", {"i": "x", "o": "mid"})
        design.set_outputs(["out"])
        order = design.instance_order()
        assert order.index("early") < order.index("late")


class TestFlatten:
    def test_chain_flatten_function(self):
        design = chain_design(3)
        flat = design.flatten()
        assert flat.output_values({"x": True}) == {"n2": False}
        assert flat.output_values({"x": False}) == {"n2": True}

    def test_flatten_preserves_carry_skip_function(self):
        design = cascade_adder(4, 2)
        flat = design.flatten()
        for vec in random_vectors(flat.inputs, 40, seed=3):
            values = flat.output_values(vec)
            a = sum((1 << i) for i in range(4) if vec[f"a{i}"])
            b = sum((1 << i) for i in range(4) if vec[f"b{i}"])
            total = a + b + int(vec["c_in"])
            got = sum(
                (1 << i) for i in range(4) if values[f"s{i}"]
            ) + (16 if values["c4"] else 0)
            assert got == total

    def test_flatten_matches_monolithic_block(self):
        # One 2-bit block instantiated alone == the block itself.
        block = carry_skip_block(2)
        design = HierDesign("single")
        design.add_module(Module("blk", block))
        for x in block.inputs:
            design.add_input(x)
        conns = {p: p for p in (*block.inputs,)}
        conns.update({p: f"{p}_o" for p in block.outputs})
        design.add_instance("u0", "blk", conns)
        design.set_outputs([f"{p}_o" for p in block.outputs])
        flat = design.flatten()
        for vec in all_vectors(block.inputs):
            expected = block.output_values(vec)
            got = flat.output_values(vec)
            for port, value in expected.items():
                assert got[f"{port}_o"] is value

    def test_flatten_output_buffer_has_zero_delay(self):
        design = chain_design(1)
        flat = design.flatten()
        assert flat.gate("n0").gtype.value == "BUF"
        assert flat.gate("n0").delay == 0.0

    def test_shared_module_instances_are_renamed_apart(self):
        design = chain_design(2)
        flat = design.flatten()
        assert flat.has_signal("u0.o")
        assert flat.has_signal("u1.o")
