"""Tests for the structural Verilog reader/writer."""

import pytest

from repro.circuits.adders import carry_skip_block
from repro.errors import ParseError
from repro.netlist.hierarchy import HierDesign
from repro.netlist.network import Network
from repro.netlist.ops import networks_equivalent_on
from repro.parsers.verilog import dumps_verilog, loads_verilog
from repro.sim.vectors import all_vectors
from tests.reference import equivalent

FLAT_EXAMPLE = """
// a full adder
module fa (a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  wire p, g, t;
  xor x1 (p, a, b);
  and a1 (g, a, b);
  xor x2 (sum, p, cin);
  and a2 (t, p, cin);
  or  o1 (cout, g, t);
endmodule
"""

HIER_EXAMPLE = """
module inv (i, o);
  input i;
  output o;
  not n1 (o, i);
endmodule

/* two inverters in series */
module top (x, y);
  input x;
  output y;
  wire mid;
  inv u1 (.i(x), .o(mid));
  inv u2 (.i(mid), .o(y));
endmodule
"""


class TestFlatRead:
    def test_full_adder_parses_and_works(self):
        net = loads_verilog(FLAT_EXAMPLE)
        assert isinstance(net, Network)
        assert net.name == "fa"
        assert net.inputs == ("a", "b", "cin")
        for vec in all_vectors(net.inputs):
            total = sum(vec.values())
            values = net.output_values(vec)
            assert values["sum"] == bool(total & 1)
            assert values["cout"] == bool(total >> 1)

    def test_out_of_order_gates(self):
        text = """
        module m (a, z);
          input a; output z;
          wire t;
          not n2 (z, t);
          not n1 (t, a);
        endmodule
        """
        net = loads_verilog(text)
        assert net.output_values({"a": True}) == {"z": True}

    def test_comments_stripped(self):
        text = (
            "module m (a, z); // ports\n  input a; output z;\n"
            "  /* body */ buf b1 (z, a);\nendmodule\n"
        )
        net = loads_verilog(text)
        assert net.output_values({"a": False}) == {"z": False}


class TestHierRead:
    def test_two_level_design(self):
        design = loads_verilog(HIER_EXAMPLE)
        assert isinstance(design, HierDesign)
        assert design.instance_order() == ["u1", "u2"]
        flat = design.flatten()
        assert flat.output_values({"x": True}) == {"y": True}

    def test_positional_connections(self):
        text = HIER_EXAMPLE.replace(
            "inv u1 (.i(x), .o(mid));", "inv u1 (x, mid);"
        )
        design = loads_verilog(text)
        assert design.flatten().output_values({"x": False}) == {"y": False}


class TestRejections:
    @pytest.mark.parametrize(
        "snippet,match",
        [
            ("module m (a); input a; assign b = a; endmodule", "assign"),
            ("module m (a); input a; reg r; endmodule", "reg"),
            ("module m (a); input [3:0] a; endmodule", "vector"),
            ("module m (a, z); input a; output z; endmodule", "never driven"),
            ("no modules here", "no module"),
            (
                "module m (a, z); input a; output z;\n"
                "  frobnicate f1 (z, a);\nendmodule",
                "unknown (primitive|module)",
            ),
            (
                "module m (a, z); input a; output z;\n"
                "  not n1 (z, ghost);\nendmodule",
                "undefined",
            ),
            (
                "module m (zz); output z; endmodule",
                "no input/output declaration",
            ),
        ],
    )
    def test_bad_inputs(self, snippet, match):
        with pytest.raises(ParseError, match=match):
            loads_verilog(snippet)

    def test_mixed_connection_styles_rejected(self):
        text = HIER_EXAMPLE.replace(
            "inv u1 (.i(x), .o(mid));", "inv u1 (.i(x), mid);"
        )
        with pytest.raises(ParseError, match="mixes"):
            loads_verilog(text)

    def test_nested_hierarchy_rejected(self):
        text = """
        module leaf (a, z); input a; output z; buf b (z, a); endmodule
        module mid (a, z); input a; output z; leaf l (.a(a), .z(z)); endmodule
        module top (a, z); input a; output z; mid m (.a(a), .z(z)); endmodule
        """
        with pytest.raises(ParseError, match="depth-1|nests"):
            loads_verilog(text)

    def test_top_glue_logic_rejected(self):
        text = """
        module leaf (a, z); input a; output z; buf b (z, a); endmodule
        module top (a, z); input a; output z; wire t;
          leaf l (.a(a), .z(t));
          not n1 (z, t);
        endmodule
        """
        with pytest.raises(ParseError, match="glue"):
            loads_verilog(text)


class TestWriter:
    def test_flat_roundtrip(self):
        original = loads_verilog(FLAT_EXAMPLE)
        again = loads_verilog(dumps_verilog(original))
        assert networks_equivalent_on(
            original, again, list(all_vectors(original.inputs))
        )

    def test_mux_decomposition_preserves_function(self):
        block = carry_skip_block(2)
        assert equivalent(block, loads_verilog(dumps_verilog(block)))

    def test_hier_roundtrip(self):
        design = loads_verilog(HIER_EXAMPLE)
        again = loads_verilog(dumps_verilog(design))
        assert isinstance(again, HierDesign)
        vectors = [{"x": False}, {"x": True}]
        assert networks_equivalent_on(
            design.flatten(), again.flatten(), vectors
        )

    def test_illegal_identifier_rejected(self):
        net = Network("bad.name")
        net.add_input("a")
        net.add_gate("z", "BUF", ["a"])
        net.set_outputs(["z"])
        with pytest.raises(ParseError, match="identifier"):
            dumps_verilog(net)

    def test_constant_rejected(self):
        net = Network("k")
        net.add_input("a")
        net.add_gate("one", "CONST1", ())
        net.add_gate("z", "AND", ["a", "one"])
        net.set_outputs(["z"])
        with pytest.raises(ParseError, match="constant"):
            dumps_verilog(net)
