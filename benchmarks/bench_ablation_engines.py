"""Ablation: tautology engine choice (SAT vs BDD).

The XBD0 stability check is engine-agnostic (DESIGN.md invariant 3); this
bench measures the cost of each engine on circuits of different character:
the MUX-rich carry-skip block, the reconvergent carry-lookahead adder, and
an XOR parity tree (BDD-friendly).  The code picks the engine by kind of
work (``repro.core.xbd0.FLAT_ENGINE`` and ``CONE_ENGINE``);
``StabilityAnalyzer(engine=)`` is where both are named and held to each
other.

Run: pytest benchmarks/bench_ablation_engines.py --benchmark-only
"""

import pytest

from repro.circuits.adders import carry_skip_block
from repro.circuits.trees import carry_lookahead_adder, parity_tree
from repro.core.xbd0 import StabilityAnalyzer

CIRCUITS = {
    "csa_block4": lambda: carry_skip_block(4),
    "cla6": lambda: carry_lookahead_adder(6),
    "par12": lambda: parity_tree(12),
}

ENGINES = ("sat", "bdd")


@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
@pytest.mark.parametrize("engine", ENGINES)
def test_engine(benchmark, circuit, engine):
    net = CIRCUITS[circuit]()
    out = net.outputs[-1]

    def run():
        return StabilityAnalyzer(net, engine=engine).functional_delay(out)

    delay = benchmark(run)
    # engines must agree: compare against a fresh SAT run
    reference = StabilityAnalyzer(net, engine="sat").functional_delay(out)
    assert delay == reference
