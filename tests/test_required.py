"""Tests for required-time analysis (approximate and exact)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.random_logic import random_network
from repro.core.required import (
    NEG_INF,
    POS_INF,
    approx_required_tuples,
    characterize_network,
    characterize_output,
    exact_required_relation,
    exact_required_tuples_for_vector,
)
from repro.errors import AnalysisError
from repro.netlist.network import Network
from repro.sim.timed import brute_force_stable_at, vector_output_delay
from repro.sim.vectors import all_vectors


class TestPaperModels:
    """Section 3.1 numbers for the 2-bit carry-skip block."""

    def test_s0_is_topological(self, csa_block2):
        model = characterize_output(csa_block2, "s0")
        # cone support is (c_in, a0, b0) only
        assert model.inputs == ("c_in", "a0", "b0")
        assert model.tuples == ((2.0, 4.0, 4.0),)

    def test_s1_is_topological(self, csa_block2):
        model = characterize_output(csa_block2, "s1")
        assert model.tuples == ((4.0, 6.0, 6.0, 4.0, 4.0),)

    def test_cout_detects_skip_false_path(self, csa_block2):
        model = characterize_output(csa_block2, "c_out")
        assert model.tuples == ((2.0, 8.0, 8.0, 6.0, 6.0),)

    def test_characterize_network_pads_missing_support(self, csa_block2):
        models = characterize_network(csa_block2)
        assert models["s0"].inputs == csa_block2.inputs
        assert models["s0"].tuples == ((2.0, 4.0, 4.0, NEG_INF, NEG_INF),)


class TestApproxAnalysis:
    def test_tuples_are_valid(self, csa_block2):
        """Every emitted tuple must actually certify stability (oracle)."""
        for out in csa_block2.outputs:
            result = approx_required_tuples(csa_block2, out)
            cone = csa_block2.extract_cone(out)
            for tup in result.tuples:
                arrival = dict(zip(result.inputs, tup))
                assert brute_force_stable_at(cone, out, result.required, arrival)

    def test_topological_baseline_recorded(self, csa_block2):
        result = approx_required_tuples(csa_block2, "c_out")
        assert result.topological == (-6.0, -8.0, -8.0, -6.0, -6.0)

    def test_tuples_never_tighter_than_topological(self, csa_block2):
        for out in csa_block2.outputs:
            result = approx_required_tuples(csa_block2, out)
            for tup in result.tuples:
                assert all(
                    t >= base - 1e-9
                    for t, base in zip(tup, result.topological)
                )

    def test_nonzero_required_time_shifts_tuples(self, csa_block2):
        at_zero = approx_required_tuples(csa_block2, "c_out", required=0.0)
        at_ten = approx_required_tuples(csa_block2, "c_out", required=10.0)
        assert at_ten.tuples == tuple(
            tuple(v + 10.0 for v in tup) for tup in at_zero.tuples
        )

    def test_constant_support_raises(self):
        net = Network()
        net.add_input("a")
        net.add_gate("k", "CONST1", [])
        net.set_outputs(["k"])
        with pytest.raises(AnalysisError):
            approx_required_tuples(net, "k")

    def test_incomparable_tuples_surface(self):
        # z = OR(a-chain, b-chain): either chain alone being stable-1 is
        # not enough (need value), but with OR both matter; instead use a
        # circuit with two alternative stabilizers: z = OR(a, b) with
        # different path lengths: relaxing a first vs b first yields
        # different valid tuples? For OR, stability needs both (when both
        # are 0), so tuples stay topological here — assert exactly that.
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("da", "BUF", ["a"], 3.0)
        net.add_gate("z", "OR", ["da", "b"], 1.0)
        net.set_outputs(["z"])
        result = approx_required_tuples(net, "z")
        assert result.tuples == ((-4.0, -1.0),)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_circuit_tuples_valid(self, seed):
        net = random_network(5, 12, seed=seed, num_outputs=1)
        out = net.outputs[0]
        result = approx_required_tuples(net, out)
        cone = net.extract_cone(out)
        for tup in result.tuples:
            arrival = dict(zip(result.inputs, tup))
            assert brute_force_stable_at(cone, out, 0.0, arrival)


class TestExactAnalysis:
    def test_paper_and_gate_example(self):
        """Section 2's AND example: (0,0) admits two incomparable tuples."""
        net = Network()
        net.add_inputs(["x1", "x2"])
        net.add_gate("z", "AND", ["x1", "x2"], 1.0)
        net.set_outputs(["z"])
        rel = exact_required_relation(net, "z", required=0.0)
        zero_zero = rel.tuples_for({"x1": False, "x2": False})
        assert set(zero_zero) == {(-1.0, POS_INF), (POS_INF, -1.0)}
        one_one = rel.tuples_for({"x1": True, "x2": True})
        assert one_one == ((-1.0, -1.0),)
        # (0,1): only x1's zero controls
        zero_one = rel.tuples_for({"x1": False, "x2": True})
        assert zero_one == ((-1.0, POS_INF),)

    def test_tuples_are_maximal_and_valid(self, csa_block2):
        # spot-check a handful of vectors on the real block
        vectors = [
            {"c_in": False, "a0": True, "b0": True, "a1": False, "b1": True},
            {"c_in": True, "a0": False, "b0": True, "a1": True, "b1": True},
        ]
        for vec in vectors:
            tuples = exact_required_tuples_for_vector(csa_block2, "c_out", vec)
            cone = csa_block2.extract_cone("c_out")
            for tup in tuples:
                arrival = dict(zip(cone.inputs, tup))
                # valid: stable by 0 under this vector
                assert (
                    vector_output_delay(cone, vec, "c_out", arrival) <= 1e-9
                )
                # maximal: loosening any finite entry by 1 breaks validity
                for i, value in enumerate(tup):
                    if value == POS_INF:
                        continue
                    loose = dict(arrival)
                    loose[cone.inputs[i]] = value + 1.0
                    assert (
                        vector_output_delay(cone, vec, "c_out", loose) > 1e-9
                    )

    def test_exact_at_least_as_loose_as_approx(self, csa_block2):
        """For each vector, the approx tuple is dominated by some exact one."""
        approx = approx_required_tuples(csa_block2, "c_out")
        rel = exact_required_relation(csa_block2, "c_out")
        for vec in all_vectors(rel.inputs):
            exact_tuples = rel.tuples_for(vec)
            for app in approx.tuples:
                assert any(
                    all(e >= a - 1e-9 for e, a in zip(ex, app))
                    for ex in exact_tuples
                ), (vec, app, exact_tuples)

    def test_support_cap(self):
        net = random_network(14, 20, seed=3, num_outputs=1)
        out = net.outputs[0]
        if len(net.support(out)) > 4:
            with pytest.raises(AnalysisError):
                exact_required_relation(net, out, max_support=4)
