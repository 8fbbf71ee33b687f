"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.circuits.adders import carry_skip_block, cascade_adder
from repro.library import store
from repro.netlist.network import Network


def reset_process_library() -> None:
    """Swap in an empty :data:`~repro.library.store.PROCESS_LIBRARY`.

    The next analysis of any module structure then characterizes it.
    The autouse fixture puts the original back when the test ends.
    """
    store.PROCESS_LIBRARY = store.ModelLibrary()


@pytest.fixture(autouse=True)
def fresh_process_library():
    """Every test starts with an empty process-wide model library.

    That is a fresh process's state: the first analysis of a module
    structure characterizes it.  A test that needs a cold Step 1 again
    later calls :func:`reset_process_library`; so does a hypothesis
    test per example, since this fixture runs once per test.
    """
    original = store.PROCESS_LIBRARY
    reset_process_library()
    yield
    store.PROCESS_LIBRARY = original


def assert_characterized_at(sink, jobs: int) -> None:
    """The traced run behind ``sink`` ran Step 1 itself, at ``jobs``.

    No module came from a library (no ``cache-hit``), and at least one
    ``characterize-module`` event was recorded, each at ``jobs``.
    """
    assert "cache-hit" not in sink.names()
    characterized = sink.by_name("characterize-module")
    assert {record.attrs["jobs"] for record in characterized} == {jobs}


@pytest.fixture(scope="session")
def csa_block2() -> Network:
    """The paper's Figure-1 two-bit carry-skip adder."""
    return carry_skip_block(2)


@pytest.fixture(scope="session")
def csa4_design():
    """Figure 2: the 4-bit cascade of two 2-bit blocks."""
    return cascade_adder(4, 2)


@pytest.fixture()
def and2() -> Network:
    """Minimal AND circuit with unit delay."""
    net = Network("and2")
    net.add_inputs(["x1", "x2"])
    net.add_gate("z", "AND", ["x1", "x2"], 1.0)
    net.set_outputs(["z"])
    return net


def make_false_path_circuit() -> Network:
    """z = MUX(s, a-chain, a) where the chain is the only long path.

    When ``s = 1`` the MUX passes ``a`` directly; when ``s = 0`` it passes
    the chain.  With the consensus term the XBD0 delay is the chain delay,
    but delaying only the chain *relative to required times* exposes
    falsity; used by several analysis tests.
    """
    net = Network("fp")
    s = net.add_input("s")
    a = net.add_input("a")
    sig = a
    for i in range(4):
        sig = net.add_gate(f"b{i}", "BUF", [sig], 1.0)
    net.add_gate("z", "MUX", [s, sig, a], 1.0)
    net.set_outputs(["z"])
    return net


@pytest.fixture()
def false_path_circuit() -> Network:
    return make_false_path_circuit()
