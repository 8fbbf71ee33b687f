"""Tests for unstable-vector witnesses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.random_logic import random_network
from repro.core.instance_models import instance_care_network
from repro.core.xbd0 import StabilityAnalyzer
from repro.sim.timed import vector_output_delay
from tests.reference import brute_force_witness


def witness_on(engine, net, output, t, care=None):
    """A late vector found on ``engine``; ``brute`` enumerates vectors."""
    if engine == "brute":
        return brute_force_witness(net, output, t, care=care)
    analyzer = StabilityAnalyzer(net, engine=engine, care=care)
    return analyzer.unstable_witness(output, t)


class TestWitness:
    @pytest.mark.parametrize("engine", ["sat", "bdd", "brute"])
    def test_witness_is_actually_late(self, csa_block2, engine):
        witness = witness_on(engine, csa_block2, "c_out", 7.0)
        assert witness is not None
        # the per-vector calculus confirms the vector is late
        assert vector_output_delay(csa_block2, witness, "c_out") > 7.0

    @pytest.mark.parametrize("engine", ["sat", "bdd", "brute"])
    def test_no_witness_when_stable(self, csa_block2, engine):
        assert witness_on(engine, csa_block2, "c_out", 8.0) is None

    def test_witness_respects_arrival_condition(self, csa_block2):
        arrival = {"c_in": 6.0}
        analyzer = StabilityAnalyzer(csa_block2, arrival)
        witness = analyzer.unstable_witness("c_out", 7.5)
        assert witness is not None
        assert vector_output_delay(
            csa_block2, witness, "c_out", arrival
        ) > 7.5
        assert analyzer.unstable_witness("c_out", 8.0) is None

    @pytest.mark.parametrize("engine", ["sat", "brute"])
    def test_witness_respects_care_set(self, engine):
        """With the shared-select care network, only image vectors may be
        blamed (``brute`` enumerates the care image)."""
        from tests.test_instance_models import sdc_design

        design = sdc_design()
        module = design.modules["mux_mod"].network
        care = instance_care_network(design, "u_mux")
        # without care: a's chain makes z unstable at 3 under defaults
        w1 = witness_on(engine, module, "z", 3.0)
        assert w1 is not None
        # with care (s always 1): z depends on s and b only; at 3.0 it
        # is already stable, so no witness exists inside the image
        assert witness_on(engine, module, "z", 3.0, care) is None
        w2 = witness_on(engine, module, "z", 0.5, care)
        assert w2 is not None
        assert w2["s"] is True  # witnesses come from the image only

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(-1, 6))
    def test_witness_consistency_random(self, seed, t):
        net = random_network(4, 10, seed=seed, num_outputs=1)
        out = net.outputs[0]
        analyzer = StabilityAnalyzer(net)
        witness = analyzer.unstable_witness(out, float(t))
        stable = analyzer.stable_at(out, float(t))
        if stable:
            assert witness is None
        else:
            assert witness is not None
            assert vector_output_delay(net, witness, out) > float(t)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_engines_agree_on_existence(self, seed):
        net = random_network(4, 10, seed=seed, num_outputs=1)
        out = net.outputs[0]
        t = 2.0
        flags = set()
        for engine in ("sat", "bdd", "brute"):
            flags.add(witness_on(engine, net, out, t) is None)
        assert len(flags) == 1
