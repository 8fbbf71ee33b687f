"""Tests for topological STA and path-length machinery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.random_logic import random_network
from repro.errors import AnalysisError
from repro.netlist.network import Network
from repro.sta.paths import (
    all_pin_path_lengths,
    distinct_path_lengths,
    event_time_candidates,
)
from repro.sta.topological import (
    NEG_INF,
    POS_INF,
    arrival_times,
    critical_path,
    pin_to_pin_delay,
    pin_to_pin_delays,
    required_times,
    slacks,
    topological_delay,
)


def chain(delays) -> Network:
    net = Network("chain")
    net.add_input("x")
    prev = "x"
    for i, d in enumerate(delays):
        prev = net.add_gate(f"g{i}", "BUF", [prev], d)
    net.set_outputs([prev])
    return net


class TestArrival:
    def test_chain_sum(self):
        net = chain([1.0, 2.0, 3.0])
        assert topological_delay(net) == 6.0

    def test_custom_arrivals(self):
        net = chain([1.0])
        assert topological_delay(net, arrival={"x": 4.0}) == 5.0

    def test_neg_inf_input_never_constrains(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("z", "AND", ["a", "b"], 1.0)
        net.set_outputs(["z"])
        assert topological_delay(net, arrival={"a": NEG_INF}) == 1.0

    def test_constant_gate_arrives_at_neg_inf(self):
        net = Network()
        net.add_input("a")
        net.add_gate("k", "CONST0", [])
        net.add_gate("z", "OR", ["a", "k"], 1.0)
        net.set_outputs(["z"])
        at = arrival_times(net)
        assert at["k"] == NEG_INF
        assert at["z"] == 1.0

    def test_carry_skip_arrivals(self, csa_block2):
        at = arrival_times(csa_block2)
        assert at["s0"] == 4.0 and at["s1"] == 6.0 and at["c_out"] == 8.0

    def test_no_outputs_raises(self):
        with pytest.raises(AnalysisError):
            topological_delay(Network())


class TestRequiredAndSlack:
    def test_required_backward(self):
        net = chain([1.0, 2.0])
        rt = required_times(net, {"g1": 10.0})
        assert rt["g1"] == 10.0
        assert rt["g0"] == 8.0
        assert rt["x"] == 7.0

    def test_unconstrained_signal_inf(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("z", "NOT", ["a"], 1.0)
        net.set_outputs(["z"])
        rt = required_times(net, {"z": 0.0})
        assert rt["b"] == POS_INF

    def test_default_slacks_zero_on_critical_path(self, csa_block2):
        sl = slacks(csa_block2)
        assert sl["c_out"] == 0.0
        assert sl["a0"] == 0.0  # on the longest path
        assert sl["c_in"] == 2.0  # longest path from c_in is 6, deadline 8

    def test_unknown_required_signal_raises(self):
        net = chain([1.0])
        with pytest.raises(AnalysisError):
            required_times(net, {"nope": 0.0})


class TestCriticalPath:
    def test_chain_path(self):
        net = chain([1.0, 2.0])
        cp = critical_path(net)
        assert cp.signals == ("x", "g0", "g1")
        assert cp.delay == 3.0

    def test_carry_skip_critical_ends_at_cout(self, csa_block2):
        cp = critical_path(csa_block2)
        assert cp.delay == 8.0
        assert cp.signals[-1] == "c_out"
        assert cp.signals[0] in ("a0", "b0")


class TestPinToPin:
    def test_carry_skip_pairs(self, csa_block2):
        assert pin_to_pin_delay(csa_block2, "c_in", "c_out") == 6.0
        assert pin_to_pin_delay(csa_block2, "a0", "c_out") == 8.0
        assert pin_to_pin_delay(csa_block2, "a1", "c_out") == 6.0
        assert pin_to_pin_delay(csa_block2, "a1", "s0") == NEG_INF

    def test_unknown_signal_raises(self, csa_block2):
        with pytest.raises(AnalysisError):
            pin_to_pin_delay(csa_block2, "ghost", "c_out")
        with pytest.raises(AnalysisError):
            pin_to_pin_delays(csa_block2, "ghost")

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_inputs=st.integers(2, 8),
        num_gates=st.integers(1, 50),
    )
    def test_one_pass_matches_every_pair(self, seed, num_inputs, num_gates):
        """One forward pass per source gives each pair's longest path bit
        for bit, on fractional delays whose sums round, and reaches
        exactly the source's transitive fanout."""
        rng = random.Random(seed)
        net = random_network(num_inputs, num_gates, seed=seed).with_delays(
            lambda g: rng.choice((0.1, 0.2, 0.3, 0.7, 1.1))
        )
        signals = list(net.signals())
        for x in net.inputs:
            delays = pin_to_pin_delays(net, x)
            reached, frontier = {x}, [x]
            while frontier:
                for f in net.fanouts(frontier.pop()):
                    if f not in reached:
                        reached.add(f)
                        frontier.append(f)
            assert set(delays) == reached
            for y in signals:
                assert delays.get(y, NEG_INF) == pin_to_pin_delay(net, x, y)


class TestDistinctPathLengths:
    def test_carry_skip_cin_to_cout(self, csa_block2):
        # ripple path (6) and the skip path through the MUX (2)
        assert distinct_path_lengths(csa_block2, "c_in", "c_out") == (6.0, 2.0)

    def test_a0_to_cout(self, csa_block2):
        # via p0/ripple: 8; via g0/ripple: 6; via p0/skip-select: 5;
        # via g0 at second stage... enumerate: expect descending distinct
        lengths = distinct_path_lengths(csa_block2, "a0", "c_out")
        assert lengths[0] == 8.0
        assert lengths == tuple(sorted(lengths, reverse=True))
        assert 5.0 in lengths

    def test_no_path_empty(self, csa_block2):
        assert distinct_path_lengths(csa_block2, "a1", "s0") == ()

    def test_cap_keeps_largest(self):
        # parallel chains of distinct lengths 1..6
        net = Network()
        net.add_input("x")
        ends = []
        for length in range(1, 7):
            prev = "x"
            for i in range(length):
                prev = net.add_gate(f"c{length}_{i}", "BUF", [prev], 1.0)
            ends.append(prev)
        net.add_gate("z", "OR", ends, 0.0)
        net.set_outputs(["z"])
        lengths = distinct_path_lengths(net, "x", "z", cap=3)
        assert lengths == (6.0, 5.0, 4.0)

    def test_all_pin_path_lengths_consistent(self, csa_block2):
        table = all_pin_path_lengths(csa_block2)
        for (x, o), lengths in table.items():
            assert lengths[0] == pin_to_pin_delay(csa_block2, x, o)


class TestEventCandidates:
    def test_candidates_contain_stable_time(self, csa_block2):
        cands = event_time_candidates(csa_block2)
        assert 8.0 in cands["c_out"]
        assert 2.0 in cands["c_out"]  # the skip path event
        assert cands["c_out"][0] == 8.0  # descending, topological first

    def test_arrival_offsets_propagate(self):
        net = chain([1.0, 1.0])
        cands = event_time_candidates(net, {"x": 3.0})
        assert cands["g1"] == (5.0,)
