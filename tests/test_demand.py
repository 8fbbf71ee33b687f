"""Tests for the demand-driven (Section 5) analyzer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.adders import cascade_adder
from repro.circuits.iscaslike import shared_select_chain
from repro.circuits.partition import cascade_bipartition, group_cascade
from repro.circuits.random_logic import random_network
from repro.core.demand import DemandDrivenAnalyzer, flat_functional_delay
from repro.core.hier import HierarchicalAnalyzer
from repro.core.xbd0 import functional_delays
from repro.sta.topological import arrival_times
from tests.reference import LiteralDemandAnalyzer


class TestCascades:
    @pytest.mark.parametrize("n,m", [(4, 2), (8, 2), (8, 4), (16, 2)])
    def test_matches_flat_exactly(self, n, m):
        design = cascade_adder(n, m)
        result = DemandDrivenAnalyzer(design).analyze()
        flat_delay, flat_times, _ = flat_functional_delay(design)
        assert result.delay == flat_delay
        for out, t in result.output_times.items():
            assert t == pytest.approx(flat_times[out])

    def test_last_carry_closed_form(self):
        """Paper Section 4: n cascaded 2-bit blocks -> carry at 2n + 6."""
        for blocks in (2, 4, 8):
            design = cascade_adder(2 * blocks, 2)
            result = DemandDrivenAnalyzer(design).analyze()
            assert result.output_times[f"c{2 * blocks}"] == 2 * blocks + 6

    def test_topological_delay_recorded(self):
        design = cascade_adder(8, 2)
        result = DemandDrivenAnalyzer(design).analyze()
        assert result.topological_delay == 26.0
        assert result.delay == 16.0

    def test_refinement_shared_across_instances(self):
        # 16 instances of the same block: the c_in->c_out pin pair is
        # refined once, not 16 times.
        design = cascade_adder(32, 2)
        result = DemandDrivenAnalyzer(design).analyze()
        key = ("csa_block2", "c_in", "c_out")
        assert key in result.refined_weights
        assert result.refined_weights[key] == 2.0
        # few checks despite 16 instances
        assert result.refinement_checks <= 12

    def test_matches_two_step_analyzer(self):
        for n, m in ((8, 2), (8, 4)):
            design = cascade_adder(n, m)
            demand = DemandDrivenAnalyzer(design).analyze().delay
            two_step = HierarchicalAnalyzer(design).analyze().delay
            assert demand == two_step


class TestArrivalConditions:
    def test_nonzero_arrivals(self):
        design = cascade_adder(4, 2)
        analyzer = DemandDrivenAnalyzer(design)
        base = analyzer.analyze().delay
        shifted = analyzer.analyze(
            {x: 3.0 for x in design.inputs}
        ).delay
        assert shifted == base + 3.0

    def test_late_carry_in(self):
        design = cascade_adder(4, 2)
        analyzer = DemandDrivenAnalyzer(design)
        flat = design.flatten()
        for cin_arr in (0.0, 6.0, 20.0):
            arrival = {"c_in": cin_arr}
            got = analyzer.analyze(arrival).delay
            want = max(functional_delays(flat, arrival).values())
            assert got == pytest.approx(want)


class TestOverestimation:
    def test_global_false_path_missed_but_conservative(self):
        net = shared_select_chain(6)
        design = cascade_bipartition(net, cut_fraction=0.85)
        result = DemandDrivenAnalyzer(design).analyze()
        flat_delay, _, _ = flat_functional_delay(design)
        assert result.delay > flat_delay  # the documented overestimation
        assert result.delay <= result.topological_delay

    def test_local_cut_recovers_exactness(self):
        net = shared_select_chain(6)
        design = cascade_bipartition(net, cut_fraction=0.5)
        result = DemandDrivenAnalyzer(design).analyze()
        flat_delay, _, _ = flat_functional_delay(design)
        assert result.delay == flat_delay


class TestSoundnessDeviation:
    """EXPERIMENTS.md, "Soundness finding": the paper's literal Section-5
    check (other cone inputs at their topological offsets) validates
    each refined input alone, and two refinements of one output combine
    into an arrival vector no check saw.  On these bipartitions the
    literal procedure reports less than the flat delay; production,
    which places the other inputs at minus their current weights, stays
    sound.  Fails if production ever adopts the literal check."""

    @pytest.mark.parametrize(
        ("inputs", "gates", "seed", "outputs", "cut"),
        [(8, 40, 1, 2, 0.7), (6, 30, 25, 3, 0.5)],
        ids=["rn8x40-s1-cut0.7", "rn6x30-s25-cut0.5"],
    )
    def test_literal_check_is_optimistic(
        self, inputs, gates, seed, outputs, cut
    ):
        net = random_network(inputs, gates, seed=seed, num_outputs=outputs)
        design = cascade_bipartition(net, cut_fraction=cut)
        literal = LiteralDemandAnalyzer(design).analyze().delay
        flat, _, _ = flat_functional_delay(design)
        production = DemandDrivenAnalyzer(design).analyze()
        # literal 1.0 < flat 5.0 = production 5.0 (topological 8.0);
        # literal 8.0 < flat 9.0 = production 9.0 (topological 10.0)
        assert literal < flat <= production.delay
        assert production.delay <= production.topological_delay


class TestGroupedCascade:
    def test_grouping_preserves_function_and_delay(self):
        design = cascade_adder(8, 2)
        grouped = group_cascade(design, 2)
        r1 = DemandDrivenAnalyzer(design).analyze()
        r2 = DemandDrivenAnalyzer(grouped).analyze()
        flat_delay, _, _ = flat_functional_delay(design)
        assert r1.delay == flat_delay
        assert flat_delay <= r2.delay <= r2.topological_delay


class TestConservativeness:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sandwich_on_random_bipartitions(self, seed):
        net = random_network(6, 24, seed=seed, num_outputs=2)
        try:
            design = cascade_bipartition(net)
        except Exception:
            return
        result = DemandDrivenAnalyzer(design).analyze()
        flat = design.flatten()
        topo = max(arrival_times(flat)[o] for o in flat.outputs)
        exact = max(functional_delays(flat).values())
        assert exact <= result.delay + 1e-9
        assert result.delay <= topo + 1e-9
