"""Unit tests for the .bench and BLIF parsers."""

import pytest

from repro.circuits.adders import carry_skip_block
from repro.circuits.iscaslike import c17
from repro.errors import ParseError
from repro.netlist.ops import networks_equivalent_on
from repro.parsers.bench import dumps_bench, loads_bench
from repro.parsers.blif import dumps_blif, loads_blif
from repro.sim.vectors import all_vectors
from tests.reference import equivalent


class TestBench:
    def test_c17_structure(self):
        net = c17()
        assert len(net.inputs) == 5
        assert net.outputs == ("G22", "G23")
        assert net.num_gates() == 6

    def test_c17_function_point(self):
        net = c17()
        vec = {"G1": True, "G2": True, "G3": True, "G6": True, "G7": True}
        values = net.output_values(vec)
        # G10=NAND(1,1)=0, G11=NAND(1,1)=0, G16=NAND(1,0)=1,
        # G19=NAND(0,1)=1, G22=NAND(0,1)=1, G23=NAND(1,1)=0
        assert values == {"G22": True, "G23": False}

    def test_roundtrip(self):
        net = c17()
        again = loads_bench(dumps_bench(net), name="c17")
        assert networks_equivalent_on(
            net, again, list(all_vectors(net.inputs))
        )

    def test_out_of_order_definitions(self):
        text = """
        INPUT(a)
        OUTPUT(z)
        z = NOT(mid)
        mid = NOT(a)
        """
        net = loads_bench(text)
        assert net.output_values({"a": True}) == {"z": True}

    def test_comments_and_blank_lines(self):
        text = "# hello\n\nINPUT(a)\nOUTPUT(z)\nz = BUFF(a)  # trailing\n"
        net = loads_bench(text)
        assert net.output_values({"a": False}) == {"z": False}

    def test_dff_rejected(self):
        with pytest.raises(ParseError, match="sequential"):
            loads_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")

    def test_unknown_gate_rejected(self):
        with pytest.raises(ParseError):
            loads_bench("INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n")

    def test_undefined_signal_rejected(self):
        with pytest.raises(ParseError, match="undefined"):
            loads_bench("INPUT(a)\nOUTPUT(z)\nz = NOT(ghost)\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(ParseError):
            loads_bench("INPUT(a)\nwhat is this\n")

    def test_undefined_output_rejected(self):
        with pytest.raises(ParseError):
            loads_bench("INPUT(a)\nOUTPUT(zz)\n")


class TestBlif:
    def test_simple_and(self):
        net = loads_blif(
            ".model tiny\n.inputs a b\n.outputs z\n"
            ".names a b z\n11 1\n.end\n"
        )
        assert net.output_values({"a": True, "b": True}) == {"z": True}
        assert net.output_values({"a": True, "b": False}) == {"z": False}

    def test_multi_cube_sop(self):
        # z = a·b + ¬a·c
        net = loads_blif(
            ".model mux\n.inputs a b c\n.outputs z\n"
            ".names a b c z\n11- 1\n0-1 1\n.end\n"
        )
        for a in (False, True):
            for b in (False, True):
                for c in (False, True):
                    want = (a and b) or (not a and c)
                    assert net.output_values(
                        {"a": a, "b": b, "c": c}
                    ) == {"z": want}

    def test_off_set_table(self):
        # z defined by its zeros: z = 0 iff a=1,b=1  (i.e. z = NAND)
        net = loads_blif(
            ".model t\n.inputs a b\n.outputs z\n.names a b z\n11 0\n.end\n"
        )
        assert net.output_values({"a": True, "b": True}) == {"z": False}
        assert net.output_values({"a": False, "b": True}) == {"z": True}

    def test_constants(self):
        net = loads_blif(
            ".model k\n.inputs a\n.outputs one zero\n"
            ".names one\n1\n.names zero\n.names a sink\n1 1\n.end\n"
        )
        assert net.output_values({"a": False}) == {"one": True, "zero": False}

    def test_buffer_and_inverter(self):
        net = loads_blif(
            ".model b\n.inputs a\n.outputs y n\n"
            ".names a y\n1 1\n.names a n\n0 1\n.end\n"
        )
        assert net.output_values({"a": True}) == {"y": True, "n": False}

    def test_continuation_lines(self):
        net = loads_blif(
            ".model c\n.inputs a \\\nb\n.outputs z\n.names a b z\n11 1\n.end\n"
        )
        assert set(net.inputs) == {"a", "b"}

    def test_mixed_phase_rejected(self):
        with pytest.raises(ParseError, match="mixed"):
            loads_blif(
                ".model m\n.inputs a b\n.outputs z\n"
                ".names a b z\n11 1\n00 0\n.end\n"
            )

    def test_latch_rejected(self):
        with pytest.raises(ParseError, match="latch"):
            loads_blif(".model s\n.inputs a\n.outputs q\n.latch a q re clk 0\n")

    def test_bad_cube_width_rejected(self):
        with pytest.raises(ParseError, match="width"):
            loads_blif(
                ".model w\n.inputs a b\n.outputs z\n.names a b z\n1 1\n.end\n"
            )

    def test_roundtrip_carry_skip_block(self):
        block = carry_skip_block(2)
        assert equivalent(block, loads_blif(dumps_blif(block)))

    def test_roundtrip_c17(self):
        net = c17()
        again = loads_blif(dumps_blif(net))
        assert networks_equivalent_on(
            net, again, list(all_vectors(net.inputs))
        )
