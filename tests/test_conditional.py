"""Tests for conditional (per-vector exact) hierarchical analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.adders import cascade_adder
from repro.circuits.partition import cascade_bipartition
from repro.circuits.random_logic import random_network
from repro.core.conditional import ConditionalAnalyzer
from repro.core.demand import flat_functional_delay
from repro.errors import AnalysisError
from repro.sim.timed import stable_times
from repro.sim.vectors import random_vectors


class TestPerVectorExactness:
    def test_matches_flat_per_vector_oracle_on_cascade(self):
        design = cascade_adder(4, 2)
        flat = design.flatten()
        analyzer = ConditionalAnalyzer(design)
        for vec in random_vectors(design.inputs, 24, seed=21):
            got = analyzer.analyze(vec)
            oracle = stable_times(flat, vec)
            for out in design.outputs:
                assert got.output_times[out] == pytest.approx(oracle[out]), (
                    vec,
                    out,
                )
            # functional values agree too
            flat_values = flat.output_values(vec)
            for out in design.outputs:
                assert got.net_values[out] == flat_values[out]

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_oracle_on_random_bipartitions(self, seed):
        net = random_network(5, 16, seed=seed, num_outputs=2)
        try:
            design = cascade_bipartition(net)
        except Exception:
            return
        flat = design.flatten()
        analyzer = ConditionalAnalyzer(design)
        for vec in random_vectors(design.inputs, 6, seed=seed):
            got = analyzer.analyze(vec)
            oracle = stable_times(flat, vec)
            for out in design.outputs:
                assert got.output_times[out] == pytest.approx(oracle[out])

    def test_arrival_times_respected(self):
        design = cascade_adder(4, 2)
        flat = design.flatten()
        analyzer = ConditionalAnalyzer(design)
        vec = {x: (i % 3 == 0) for i, x in enumerate(design.inputs)}
        arrival = {"c_in": 4.0, "a0": 2.0}
        got = analyzer.analyze(vec, arrival)
        oracle = stable_times(flat, vec, arrival)
        for out in design.outputs:
            assert got.output_times[out] == pytest.approx(oracle[out])


class TestWorstCase:
    def test_enumeration_equals_flat_xbd0(self):
        design = cascade_adder(4, 2)  # 9 inputs -> 512 vectors
        analyzer = ConditionalAnalyzer(design)
        worst, witness = analyzer.worst_case_by_enumeration()
        flat_delay, _, _ = flat_functional_delay(design)
        assert worst == flat_delay
        # the witness actually achieves the bound
        assert analyzer.analyze(witness).delay == worst

    def test_conditional_beats_conservative_for_easy_modes(self):
        """With a0=b0=0 the carry chain is dead: per-vector is faster than
        the vector-independent hierarchical estimate for the carry."""
        design = cascade_adder(4, 2)
        analyzer = ConditionalAnalyzer(design)
        easy = {x: False for x in design.inputs}
        got = analyzer.analyze(easy)
        # all-zero operands: c4 settles as soon as g/p logic does
        assert got.output_times["c4"] < 10.0

    def test_enumeration_cap(self):
        design = cascade_adder(8, 2)  # 17 inputs
        analyzer = ConditionalAnalyzer(design)
        with pytest.raises(AnalysisError):
            analyzer.worst_case_by_enumeration(max_inputs=10)


class TestCaching:
    def test_cache_shared_across_instances(self):
        design = cascade_adder(8, 2)
        analyzer = ConditionalAnalyzer(design)
        vec = {x: False for x in design.inputs}
        analyzer.analyze(vec)
        # 4 instances but one module: conditional tuples cached per
        # (module, output, local values); all-zero operands give at most
        # a couple of distinct local vectors per output
        outputs_per_module = len(design.modules["csa_block2"].outputs)
        assert len(analyzer._cache) <= 3 * outputs_per_module

    def test_missing_vector_entry_rejected(self):
        design = cascade_adder(4, 2)
        analyzer = ConditionalAnalyzer(design)
        with pytest.raises(AnalysisError):
            analyzer.analyze({"c_in": True})


class TestConditionalTuples:
    def test_paper_and_example_through_api(self):
        from repro.netlist.hierarchy import HierDesign, Module
        from repro.netlist.network import Network

        net = Network("andm")
        net.add_inputs(["x1", "x2"])
        net.add_gate("z", "AND", ["x1", "x2"], 1.0)
        net.set_outputs(["z"])
        design = HierDesign("d")
        design.add_module(Module("andm", net))
        design.add_input("x1")
        design.add_input("x2")
        design.add_instance(
            "u", "andm", {"x1": "x1", "x2": "x2", "z": "z"}
        )
        design.set_outputs(["z"])
        analyzer = ConditionalAnalyzer(design)
        inputs, tuples = analyzer.conditional_tuples(
            "andm", "z", {"x1": False, "x2": False}
        )
        # either input alone controls: {(1,-inf), (-inf,1)} in delay form
        assert set(tuples) == {
            (1.0, float("-inf")),
            (float("-inf"), 1.0),
        }
        inputs, tuples = analyzer.conditional_tuples(
            "andm", "z", {"x1": True, "x2": True}
        )
        assert tuples == ((1.0, 1.0),)
