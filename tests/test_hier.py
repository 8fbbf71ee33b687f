"""Tests for the two-step hierarchical analyzer (Section 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.adders import carry_skip_block, cascade_adder
from repro.circuits.partition import cascade_bipartition
from repro.circuits.random_logic import random_network
from repro.core.demand import flat_functional_delay
from repro.core.hier import (
    HierarchicalAnalyzer,
    IncrementalAnalyzer,
    topological_models,
)
from repro.core.xbd0 import functional_delays
from repro.errors import AnalysisError
from repro.sta.topological import arrival_times


class TestTopologicalModels:
    def test_matches_pin_to_pin(self, csa_block2):
        models = topological_models(csa_block2)
        assert models["c_out"].tuples == ((6.0, 8.0, 8.0, 6.0, 6.0),)
        assert models["s0"].tuples == ((2.0, 4.0, 4.0, float("-inf"),
                                        float("-inf")),)


class TestHierarchicalAnalysis:
    def test_fig2_cascade(self, csa4_design):
        result = HierarchicalAnalyzer(csa4_design).analyze()
        assert result.output_times["c4"] == 10.0
        assert result.net_times["c2"] == 8.0  # the 'tmp' signal
        assert result.delay == 12.0  # s3 = tmp + 4

    def test_matches_flat_on_cascades(self):
        for n, m in ((4, 2), (8, 2), (8, 4)):
            design = cascade_adder(n, m)
            hier = HierarchicalAnalyzer(design).analyze()
            flat_delay, flat_times, _ = flat_functional_delay(design)
            assert hier.delay == flat_delay
            for out, t in hier.output_times.items():
                assert t == pytest.approx(flat_times[out])

    def test_characterization_cached_across_analyses(self, csa4_design):
        analyzer = HierarchicalAnalyzer(csa4_design)
        first = analyzer.analyze()
        assert first.characterized_modules == ("csa_block2",)
        second = analyzer.analyze({"c_in": 3.0})
        assert second.characterized_modules == ()

    def test_different_arrivals_reuse_models(self, csa4_design):
        analyzer = HierarchicalAnalyzer(csa4_design)
        base = analyzer.analyze().delay
        shifted = analyzer.analyze({x: 5.0 for x in csa4_design.inputs}).delay
        assert shifted == base + 5.0

    def test_functional_mode_beats_topological_mode(self, csa4_design):
        functional = HierarchicalAnalyzer(csa4_design, functional=True)
        topological = HierarchicalAnalyzer(csa4_design, functional=False)
        f = functional.analyze().delay
        t = topological.analyze().delay
        assert f < t
        assert t == 14.0  # topological delay of the 4-bit cascade

    def test_undriven_output_detected(self):
        from repro.errors import NetlistError

        design = cascade_adder(4, 2)
        design.set_outputs(["ghost_net"])
        with pytest.raises(NetlistError):
            HierarchicalAnalyzer(design)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_conservative_on_random_bipartitions(self, seed):
        """topological >= hierarchical >= flat XBD0 (Theorem 1)."""
        net = random_network(6, 24, seed=seed, num_outputs=2)
        try:
            design = cascade_bipartition(net)
        except Exception:
            return  # degenerate partition; nothing to check
        flat = design.flatten()
        topo = max(arrival_times(flat)[o] for o in flat.outputs)
        hier = HierarchicalAnalyzer(design).analyze().delay
        exact = max(functional_delays(flat).values())
        assert exact <= hier + 1e-9
        assert hier <= topo + 1e-9


def carry_only_design(blocks: int = 4):
    """A cascade exposing only its final carry: every sum output dangles."""
    from repro.netlist.hierarchy import HierDesign, Module

    design = HierDesign("carry_only")
    design.add_module(Module("blk", carry_skip_block(2)))
    design.add_input("c_in")
    carry = "c_in"
    for blk in range(blocks):
        conns = {"c_in": carry}
        for i in range(2):
            bit = 2 * blk + i
            design.add_input(f"a{bit}")
            design.add_input(f"b{bit}")
            conns.update(
                {f"a{i}": f"a{bit}", f"b{i}": f"b{bit}", f"s{i}": f"s{bit}"}
            )
        carry = f"c{2 * (blk + 1)}"
        conns["c_out"] = carry
        design.add_instance(f"u{blk}", "blk", conns)
    design.set_outputs([carry])
    return design


class TestDeadModuleOutputs:
    """Module outputs that reach no primary output still get models:
    Step 1 characterizes whole modules."""

    def test_functional_closed_form(self):
        analyzer = HierarchicalAnalyzer(carry_only_design())
        assert analyzer.analyze().delay == 2 * 4 + 6
        assert set(analyzer.models_for("blk")) == {"s0", "s1", "c_out"}

    def test_topological_mode(self):
        # c_in -> c_out is 6 per block; the first block's a0 path is 8.
        analyzer = HierarchicalAnalyzer(carry_only_design(), functional=False)
        assert analyzer.analyze().delay == 8.0 + 6.0 * 3


class TestInputSlack:
    def test_fig5_at_design_level(self):
        # single-block design: slack of c_in under arr(c_in)=5 is 1
        block = carry_skip_block(2)
        from repro.netlist.hierarchy import HierDesign, Module

        design = HierDesign("one")
        design.add_module(Module("blk", block))
        for x in block.inputs:
            design.add_input(x)
        conns = {p: p for p in block.inputs}
        conns.update({p: f"{p}_o" for p in block.outputs})
        design.add_instance("u0", "blk", conns)
        # Figure 5 talks about c_out specifically, so expose only it
        design.set_outputs(["c_out_o"])
        analyzer = HierarchicalAnalyzer(design)
        arr = {"c_in": 5.0}
        assert analyzer.analyze(arr).delay == 8.0
        assert analyzer.input_slack("c_in", arr) == 1.0

    def test_unknown_input_raises(self, csa4_design):
        with pytest.raises(AnalysisError):
            HierarchicalAnalyzer(csa4_design).input_slack("ghost")

    def test_slack_of_noncritical_input(self, csa4_design):
        analyzer = HierarchicalAnalyzer(csa4_design)
        base = analyzer.analyze().delay  # 12.0, critical via a0/b0->tmp->s3
        # c_in feeds the first block with effective delay 2 and rides the
        # same chain; it has generous slack
        slack = analyzer.input_slack("c_in")
        assert slack > 0
        bumped = analyzer.analyze({"c_in": slack}).delay
        assert bumped == base
        over = analyzer.analyze({"c_in": slack + 1.0}).delay
        assert over > base


class TestIncremental:
    def test_only_changed_module_recharacterized(self):
        design = cascade_adder(8, 2)
        analyzer = IncrementalAnalyzer(design)
        analyzer.analyze()
        assert analyzer.recharacterizations == {"csa_block2": 1}
        # swap in a plain ripple implementation of the same interface
        from repro.circuits.adders import carry_skip_block as mk

        replacement = mk(2)  # same structure; interface identical
        analyzer.replace_module("csa_block2", replacement)
        analyzer.analyze()
        assert analyzer.recharacterizations == {"csa_block2": 2}
        analyzer.analyze({"c_in": 1.0})
        assert analyzer.recharacterizations == {"csa_block2": 2}

    def test_incremental_matches_fresh_analysis(self):
        design = cascade_adder(8, 4)
        analyzer = IncrementalAnalyzer(design)
        analyzer.analyze()
        replacement = carry_skip_block(4)
        analyzer.replace_module("csa_block4", replacement)
        incremental = analyzer.analyze().delay
        fresh = HierarchicalAnalyzer(cascade_adder(8, 4)).analyze().delay
        assert incremental == fresh

    def test_interface_change_rejected(self):
        design = cascade_adder(4, 2)
        analyzer = IncrementalAnalyzer(design)
        with pytest.raises(AnalysisError):
            analyzer.replace_module("csa_block2", carry_skip_block(4))

    def test_unknown_module_rejected(self):
        design = cascade_adder(4, 2)
        analyzer = IncrementalAnalyzer(design)
        with pytest.raises(AnalysisError):
            analyzer.replace_module("nope", carry_skip_block(2))
