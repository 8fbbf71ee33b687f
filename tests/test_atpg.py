"""Tests for the stuck-at fault / ATPG substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.faults import (
    StuckAtFault,
    detects,
    enumerate_faults,
    fault_coverage,
    inject_fault,
)
from repro.atpg.generate import (
    generate_test,
    generate_test_set,
    untestable_faults,
)
from repro.circuits.adders import carry_skip_block, ripple_adder
from repro.circuits.random_logic import random_network
from repro.errors import NetlistError
from repro.netlist.network import Network
from repro.sim.vectors import all_vectors


def redundant_circuit() -> Network:
    """z = a + a·b: the AND gate is absorbed, its s-a-0 is untestable."""
    net = Network("red")
    a, b = net.add_inputs(["a", "b"])
    net.add_gate("t", "AND", [a, b], 1.0)
    net.add_gate("z", "OR", [a, "t"], 1.0)
    net.set_outputs(["z"])
    return net


class TestFaultInjection:
    def test_gate_fault(self):
        net = redundant_circuit()
        faulty = inject_fault(net, StuckAtFault("t", True))
        # with t forced to 1, z is constant 1
        for vec in all_vectors(net.inputs):
            assert faulty.output_values(vec)["z"] is True

    def test_input_fault(self):
        net = redundant_circuit()
        faulty = inject_fault(net, StuckAtFault("a", False))
        # a stuck 0: z = 0·b + 0 = 0
        for vec in all_vectors(net.inputs):
            assert list(faulty.output_values(vec).values()) == [False]

    def test_interface_preserved(self):
        net = ripple_adder(2)
        faulty = inject_fault(net, StuckAtFault("p0", True))
        assert faulty.inputs == net.inputs
        assert len(faulty.outputs) == len(net.outputs)

    def test_unknown_signal(self):
        with pytest.raises(NetlistError):
            inject_fault(redundant_circuit(), StuckAtFault("ghost", True))


class TestDetection:
    def test_detects_known_vector(self):
        net = redundant_circuit()
        # t s-a-1 with a=0,b=0: good z=0, faulty z=1
        assert detects(net, StuckAtFault("t", True), {"a": False, "b": False})
        # a=1 masks it
        assert not detects(
            net, StuckAtFault("t", True), {"a": True, "b": True}
        )

    def test_enumerate_faults_count(self):
        net = redundant_circuit()
        assert len(enumerate_faults(net)) == 2 * 4  # a, b, t, z

    def test_fault_coverage(self):
        net = redundant_circuit()
        coverage, missed = fault_coverage(
            net, list(all_vectors(net.inputs))
        )
        # everything testable is covered by exhaustive vectors; only the
        # redundant t s-a-0 (and any equivalent) remain
        assert StuckAtFault("t", False) in missed
        assert coverage == (8 - len(missed)) / 8


class TestGeneration:
    def test_testable_fault_gets_vector(self):
        net = redundant_circuit()
        result = generate_test(net, StuckAtFault("t", True))
        assert result.testable
        assert detects(net, StuckAtFault("t", True), result.vector)

    def test_redundant_fault_proven_untestable(self):
        net = redundant_circuit()
        result = generate_test(net, StuckAtFault("t", False))
        assert not result.testable

    def test_untestable_faults_absorption(self):
        net = redundant_circuit()
        untestable = untestable_faults(net)
        assert StuckAtFault("t", False) in untestable
        # primary signals are all testable
        assert StuckAtFault("a", False) not in untestable
        assert StuckAtFault("z", True) not in untestable

    def test_carry_skip_redundancy_is_the_false_path(self):
        """Saldanha's [7] punchline, rediscovered by the ATPG engine: the
        skip MUX is logically redundant — when every stage propagates, the
        ripple carry equals c_in anyway, so ``skip`` stuck-at-0 changes no
        output.  The redundant fault and the c_in->c_out false path are
        the *same structure*: the MUX exists purely for speed."""
        net = carry_skip_block(2)
        untestable = untestable_faults(net)
        assert untestable == [StuckAtFault("skip", False)]
        # exhaustive confirmation of the redundancy
        faulty = inject_fault(net, StuckAtFault("skip", False))
        for vec in all_vectors(net.inputs):
            assert faulty.output_values(vec) == net.output_values(vec)

    def test_generated_set_covers_everything_testable(self):
        net = ripple_adder(2)
        tests, untestable = generate_test_set(net)
        assert untestable == []
        coverage, missed = fault_coverage(net, tests)
        assert coverage == 1.0
        assert missed == []
        # greedy compaction: far fewer tests than faults
        assert len(tests) < len(enumerate_faults(net))

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_generated_vectors_detect_random(self, seed):
        net = random_network(4, 10, seed=seed, num_outputs=2)
        for fault in enumerate_faults(net)[:10]:
            result = generate_test(net, fault)
            if result.testable:
                assert detects(net, fault, result.vector)
            else:
                # exhaustively confirm untestability on small circuits
                assert not any(
                    detects(net, fault, v)
                    for v in all_vectors(net.inputs)
                )
