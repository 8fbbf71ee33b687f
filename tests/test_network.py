"""Unit tests for the flat network data structure."""

import pytest

from repro.errors import NetlistError
from repro.netlist.gates import GateType
from repro.netlist.network import Network


def build_small() -> Network:
    net = Network("small")
    net.add_inputs(["a", "b", "c"])
    net.add_gate("g1", "AND", ["a", "b"], 1.0)
    net.add_gate("g2", "OR", ["g1", "c"], 2.0)
    net.set_outputs(["g2"])
    return net


class TestConstruction:
    def test_duplicate_input_rejected(self):
        net = Network()
        net.add_input("a")
        with pytest.raises(NetlistError):
            net.add_input("a")

    def test_gate_shadowing_input_rejected(self):
        net = Network()
        net.add_input("a")
        with pytest.raises(NetlistError):
            net.add_gate("a", "NOT", ["a"])

    def test_unknown_fanin_rejected(self):
        net = Network()
        net.add_input("a")
        with pytest.raises(NetlistError):
            net.add_gate("g", "AND", ["a", "ghost"])

    def test_negative_delay_rejected(self):
        net = Network()
        net.add_input("a")
        with pytest.raises(NetlistError):
            net.add_gate("g", "NOT", ["a"], delay=-1.0)

    def test_nan_delay_rejected(self):
        """NaN slips past ``delay < 0``; a NaN gate feeding another gate
        used to make ``stable_at`` loop until it was killed."""
        net = Network()
        net.add_input("a")
        with pytest.raises(NetlistError, match="NaN"):
            net.add_gate("g", "NOT", ["a"], delay=float("nan"))

    def test_nan_delay_rejected_by_with_delays(self):
        with pytest.raises(NetlistError, match="NaN"):
            build_small().with_delays(lambda g: float("nan"))

    def test_empty_name_rejected(self):
        net = Network()
        with pytest.raises(NetlistError):
            net.add_input("")

    def test_string_gate_type_accepted(self):
        net = Network()
        net.add_input("a")
        net.add_gate("g", "not", ["a"])
        assert net.gate("g").gtype is GateType.NOT

    def test_output_must_exist(self):
        net = Network()
        with pytest.raises(NetlistError):
            net.add_output("nope")

    def test_bad_arity_rejected_at_gate_creation(self):
        net = Network()
        net.add_inputs(["a", "b"])
        with pytest.raises(NetlistError):
            net.add_gate("g", "MUX", ["a", "b"])


class TestQueries:
    def test_inputs_outputs_order_preserved(self):
        net = build_small()
        assert net.inputs == ("a", "b", "c")
        assert net.outputs == ("g2",)

    def test_fanins_and_fanouts(self):
        net = build_small()
        assert net.fanins("g2") == ("g1", "c")
        assert net.fanins("a") == ()
        assert net.fanouts("a") == ("g1",)
        assert set(net.fanouts("g1")) == {"g2"}

    def test_gate_lookup_on_input_raises(self):
        net = build_small()
        with pytest.raises(NetlistError):
            net.gate("a")

    def test_support(self):
        net = build_small()
        assert net.support("g1") == ["a", "b"]
        assert net.support("g2") == ["a", "b", "c"]

    def test_num_gates(self):
        assert build_small().num_gates() == 2


class TestTopologicalOrder:
    def test_inputs_before_fanouts(self):
        net = build_small()
        order = net.topological_order()
        assert order.index("a") < order.index("g1")
        assert order.index("g1") < order.index("g2")
        assert len(order) == 5

    def test_diamond(self):
        net = Network()
        net.add_input("x")
        net.add_gate("l", "NOT", ["x"])
        net.add_gate("r", "BUF", ["x"])
        net.add_gate("z", "AND", ["l", "r"])
        order = net.topological_order()
        assert order.index("z") > order.index("l")
        assert order.index("z") > order.index("r")


class TestEvaluate:
    def test_and_or(self):
        net = build_small()
        values = net.evaluate({"a": True, "b": True, "c": False})
        assert values["g1"] is True
        assert values["g2"] is True
        values = net.evaluate({"a": True, "b": False, "c": False})
        assert values["g2"] is False

    def test_missing_input_raises(self):
        net = build_small()
        with pytest.raises(NetlistError):
            net.evaluate({"a": True, "b": True})

    def test_output_values(self):
        net = build_small()
        assert net.output_values({"a": False, "b": False, "c": True}) == {
            "g2": True
        }


class TestTransforms:
    def test_copy_is_independent(self):
        net = build_small()
        cp = net.copy("copy")
        cp.add_gate("extra", "NOT", ["g2"])
        assert not net.has_signal("extra")
        assert cp.name == "copy"
        assert cp.outputs == net.outputs

    def test_with_delays(self):
        net = build_small()
        doubled = net.with_delays(lambda g: g.delay * 2)
        assert doubled.gate("g1").delay == 2.0
        assert doubled.gate("g2").delay == 4.0
        assert net.gate("g1").delay == 1.0

    def test_extract_cone(self):
        net = build_small()
        cone = net.extract_cone("g1")
        assert cone.inputs == ("a", "b")
        assert cone.outputs == ("g1",)
        assert cone.num_gates() == 1
        # cone evaluation matches the parent
        for a in (False, True):
            for b in (False, True):
                parent = net.evaluate({"a": a, "b": b, "c": False})["g1"]
                assert cone.evaluate({"a": a, "b": b})["g1"] is parent

    def test_extract_cone_keeps_pi_order(self):
        net = Network()
        net.add_inputs(["p", "q", "r"])
        net.add_gate("z", "AND", ["r", "p"])
        net.set_outputs(["z"])
        cone = net.extract_cone("z")
        assert cone.inputs == ("p", "r")
