"""Tests for multi-level hierarchy via timing-model composition."""

import pytest

from repro.circuits.adders import cascade_adder
from repro.core.hier import HierarchicalAnalyzer
from repro.core.multilevel import (
    compose_design_models,
    design_as_module,
    evaluate_composed,
)
from repro.core.timing_model import NEG_INF
from repro.netlist.hierarchy import HierDesign


class TestComposition:
    def test_composed_model_matches_propagation(self):
        """Evaluating the composed model == running step-2 propagation."""
        design = cascade_adder(8, 2)
        models = compose_design_models(design)
        analyzer = HierarchicalAnalyzer(design)
        for seed in range(5):
            arrival = {
                x: float((hash((seed, x)) % 7)) for x in design.inputs
            }
            direct = analyzer.analyze(arrival)
            composed = evaluate_composed(models, arrival)
            for out in design.outputs:
                assert composed[out] == pytest.approx(
                    direct.output_times[out]
                ), (seed, out)

    def test_composed_cascade_carry_model(self):
        """The composed c8 model of csa8.2 exposes the skip chain: the
        effective c_in delay is 2 per block = 8."""
        design = cascade_adder(8, 2)
        models = compose_design_models(design)
        assert models["c8"].delay_from("c_in") == 8.0
        # a0 rides one full block (8) plus three skips (6): 14
        assert models["c8"].delay_from("a0") == 14.0

    def test_unused_inputs_marked_unconstrained(self):
        design = cascade_adder(4, 2)
        models = compose_design_models(design)
        # s0 depends only on c_in, a0, b0
        s0 = models["s0"]
        for x, d in zip(s0.inputs, s0.tuples[0]):
            if x in ("c_in", "a0", "b0"):
                assert d != NEG_INF
            else:
                assert d == NEG_INF


class TestMultiLevel:
    def build_two_level(self, half_bits: int = 4):
        """A 2*half_bits adder whose leaves are themselves cascades."""
        inner = cascade_adder(half_bits, 2)
        module, models = design_as_module(inner, name="half")
        top = HierDesign("two_level")
        top.add_module(module)
        top.add_input("c_in")
        total = 2 * half_bits
        for i in range(total):
            top.add_input(f"a{i}")
            top.add_input(f"b{i}")
        carry = "c_in"
        outputs = []
        for blk in range(2):
            conns = {"c_in": carry}
            for i in range(half_bits):
                bit = blk * half_bits + i
                conns[f"a{i}"] = f"a{bit}"
                conns[f"b{i}"] = f"b{bit}"
                conns[f"s{i}"] = f"s{bit}"
                outputs.append(f"s{bit}")
            carry_net = f"cc{blk}"
            conns[f"c{half_bits}"] = carry_net
            top.add_instance(f"h{blk}", "half", conns)
            carry = carry_net
        outputs.append(carry)
        top.set_outputs(outputs)
        return top, module, models

    def test_two_level_matches_flat_single_level(self):
        top, module, models = self.build_two_level(4)
        analyzer = HierarchicalAnalyzer(top)
        analyzer.preload_models("half", models)
        two_level = analyzer.analyze()
        # reference: the same 8-bit adder as a single-level cascade
        reference = HierarchicalAnalyzer(cascade_adder(8, 2)).analyze()
        assert two_level.delay == reference.delay
        assert two_level.output_times[top.outputs[-1]] == pytest.approx(
            reference.output_times["c8"]
        )

    def test_two_level_under_arrivals(self):
        top, module, models = self.build_two_level(4)
        analyzer = HierarchicalAnalyzer(top)
        analyzer.preload_models("half", models)
        reference = HierarchicalAnalyzer(cascade_adder(8, 2))
        for seed in range(3):
            arrival = {
                x: float(v)
                for x, v in zip(
                    top.inputs,
                    [hash((seed, x)) % 5 for x in top.inputs],
                )
            }
            # rename reference arrivals to the flat cascade's input names
            got = analyzer.analyze(arrival).delay
            want = reference.analyze(arrival).delay
            assert got == pytest.approx(want)


class TestCaps:
    def test_max_tuples_keeps_conservative(self):
        design = cascade_adder(8, 2)
        full = compose_design_models(design, max_tuples=8)
        capped = compose_design_models(design, max_tuples=1)
        for seed in range(3):
            arrival = {
                x: float(hash((seed, x)) % 6) for x in design.inputs
            }
            for out in design.outputs:
                a = full[out].stable_time(arrival)
                b = capped[out].stable_time(arrival)
                assert b >= a - 1e-9  # capping never goes optimistic
