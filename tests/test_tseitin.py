"""Tests for Tseitin encoding of networks, miter construction and the
miter-backed equivalence oracle of ``tests/reference.py``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.adders import carry_skip_block, cascade_adder, ripple_adder
from repro.circuits.random_logic import random_network
from repro.errors import SolverError
from repro.netlist.network import Network
from repro.sat.solver import Solver, SolveResult, solve_cnf
from repro.sat.tseitin import NetworkEncoder, miter_cnf
from repro.sim.vectors import random_vectors
from tests.reference import equivalent


def test_encoding_consistent_with_simulation():
    net = carry_skip_block(2)
    enc = NetworkEncoder()
    mapping = enc.encode(net)
    for vec in random_vectors(net.inputs, 16, seed=5):
        assumptions = [
            mapping[x] if vec[x] else -mapping[x] for x in net.inputs
        ]
        solver = Solver(enc.cnf)
        assert solver.solve(assumptions) is SolveResult.SAT
        model = solver.model()
        values = net.evaluate(vec)
        for sig, var in mapping.items():
            assert model[var] == values[sig], sig


def test_all_gate_types_encode():
    net = Network("every")
    a, b, c = net.add_inputs(["a", "b", "c"])
    net.add_gate("and_", "AND", [a, b])
    net.add_gate("or_", "OR", [a, b, c])
    net.add_gate("nand_", "NAND", [a, b])
    net.add_gate("nor_", "NOR", [b, c])
    net.add_gate("xor_", "XOR", [a, b, c])
    net.add_gate("xnor_", "XNOR", [a, b])
    net.add_gate("not_", "NOT", [a])
    net.add_gate("buf_", "BUF", [c])
    net.add_gate("mux_", "MUX", [a, b, c])
    net.add_gate("one_", "CONST1", [])
    net.add_gate("zero_", "CONST0", [])
    net.set_outputs(["mux_"])
    enc = NetworkEncoder()
    mapping = enc.encode(net)
    for vec in random_vectors(net.inputs, 8, seed=11):
        assumptions = [
            mapping[x] if vec[x] else -mapping[x] for x in net.inputs
        ]
        solver = Solver(enc.cnf)
        assert solver.solve(assumptions) is SolveResult.SAT
        model = solver.model()
        values = net.evaluate(vec)
        for sig, var in mapping.items():
            assert model[var] == values[sig], sig


def test_miter_equivalent_networks_unsat():
    left = ripple_adder(2)
    right = ripple_adder(2)
    cnf, _ = miter_cnf(left, right)
    result, _ = solve_cnf(cnf)
    assert result is SolveResult.UNSAT


def test_miter_detects_difference():
    left = Network("l")
    left.add_inputs(["a", "b"])
    left.add_gate("z", "AND", ["a", "b"])
    left.set_outputs(["z"])
    right = Network("r")
    right.add_inputs(["a", "b"])
    right.add_gate("z", "OR", ["a", "b"])
    right.set_outputs(["z"])
    cnf, _ = miter_cnf(left, right)
    result, model = solve_cnf(cnf)
    assert result is SolveResult.SAT


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_miter_random_network_self_equivalence(seed):
    net = random_network(5, 12, seed=seed, num_outputs=2)
    cnf, _ = miter_cnf(net, net.copy())
    result, _ = solve_cnf(cnf)
    assert result is SolveResult.UNSAT


def test_skip_adder_equals_ripple_adder():
    """Two different adder implementations proven functionally identical."""
    skip = cascade_adder(4, 2).flatten(name="skip")
    ripple = ripple_adder(4, name="ripple")
    assert set(skip.outputs) == set(ripple.outputs)
    assert equivalent(skip, ripple)


def test_interface_mismatch_rejected():
    left = Network("l")
    left.add_input("a")
    left.add_gate("z", "BUF", ["a"])
    left.set_outputs(["z"])
    right = Network("r")
    right.add_inputs(["a", "b"])
    right.add_gate("z", "BUF", ["a"])
    right.set_outputs(["z"])
    with pytest.raises(SolverError):
        equivalent(left, right)
