"""Remaining-path coverage: CLI regenerators, stub edges."""

import pytest

from repro.circuits.adders import carry_skip_block
from repro.cli import main
from repro.core.ipblock import stub_network
from repro.core.timing_model import NEG_INF, TimingModel


class TestCLIRegenerators:
    def test_table2_command(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "csaflat8" in out

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "repro-sta" in capsys.readouterr().out


class TestStubEdges:
    def test_output_with_no_dependencies_is_constant(self):
        model = TimingModel("z", ("a",), ((NEG_INF,),))
        stub = stub_network("s", ("a",), ("z",), {"z": model})
        assert stub.gate("z").gtype.value == "CONST0"

    def test_negative_worst_delay_clamped(self):
        model = TimingModel("z", ("a",), ((-2.0,),))
        stub = stub_network("s", ("a",), ("z",), {"z": model})
        # stub gates cannot carry negative delays
        assert stub.gate("_bb_z_a").delay == 0.0


class TestExprManagerContradictions:
    def test_lit_and_complement_collapse(self):
        """x · ¬x inside a stability conjunction folds to FALSE."""
        from repro.core.xbd0 import _ExprManager

        exprs = _ExprManager()
        x_pos = exprs.lit("x", True)
        x_neg = exprs.lit("x", False)
        assert exprs.conj([x_pos, x_neg]) == _ExprManager.FALSE
        assert exprs.disj([x_pos, x_neg]) == _ExprManager.TRUE

    def test_nested_flattening(self):
        from repro.core.xbd0 import _ExprManager

        exprs = _ExprManager()
        a = exprs.lit("a", True)
        b = exprs.lit("b", True)
        c = exprs.lit("c", True)
        inner = exprs.conj([a, b])
        flat = exprs.conj([inner, c])
        direct = exprs.conj([a, b, c])
        assert flat == direct

    def test_support_and_evaluate(self):
        from repro.core.xbd0 import _ExprManager

        exprs = _ExprManager()
        a = exprs.lit("a", True)
        b = exprs.lit("b", False)
        node = exprs.disj([exprs.conj([a, b]), exprs.lit("c", True)])
        assert exprs.evaluate(
            node, {"a": True, "b": False, "c": False}
        )
        assert not exprs.evaluate(
            node, {"a": False, "b": False, "c": False}
        )


class TestBlockInputOrderHelper:
    def test_matches_generator(self):
        from repro.circuits.adders import block_input_order

        assert tuple(block_input_order(2)) == carry_skip_block(2).inputs
        assert carry_skip_block(2).inputs == (
            "c_in", "a0", "b0", "a1", "b1"
        )
