"""Ablations on the timing-model construction knobs.

1. **Relaxation orders** (``max_orders``): more orders can only surface
   more incomparable tuples; measure cost and whether accuracy of the
   hierarchical delay changes on the benchmark suite.
2. **Functional vs topological models**: the accuracy gap that Step 1
   buys on the carry-skip cascades (the entire point of the paper).
3. **Sensitization-criteria ladder**: static ≤ XBD0 ≤ co-sensitization ≤
   topological on circuits with false paths (the Section-1 discussion of
   why tagged-mode/static-sensitization experiments underapproximate).

Run: pytest benchmarks/bench_ablation_models.py --benchmark-only
"""

import pytest

from repro.api import AnalysisOptions
from repro.circuits.adders import carry_skip_block, cascade_adder
from repro.core.hier import HierarchicalAnalyzer
from repro.core.required import characterize_network
from repro.core.sensitization import (
    cosensitization_delay,
    static_sensitization_delay,
)
from repro.core.xbd0 import functional_delays
from repro.sta.topological import arrival_times


@pytest.mark.parametrize("max_orders", [1, 2, 4, 8])
def test_relaxation_orders(benchmark, max_orders):
    block = carry_skip_block(4)

    def run():
        return characterize_network(block, max_orders=max_orders)

    models = benchmark.pedantic(run, rounds=1, iterations=1)
    # the headline number must hold at every setting
    assert models["c_out"].delay_from("c_in") == 2.0


@pytest.mark.parametrize("functional", [True, False])
def test_functional_vs_topological_models(benchmark, functional):
    design = cascade_adder(16, 2)

    def run():
        return HierarchicalAnalyzer(
            design, options=AnalysisOptions(functional=functional)
        ).analyze()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    if functional:
        assert result.delay == 24.0
    else:
        assert result.delay == 50.0  # pure topological: 26 units worse


def test_sensitization_ladder(benchmark):
    block = carry_skip_block(2)
    out = "c_out"
    arrival = {"c_in": 6.0}  # make the skip false path matter

    def run():
        return {
            "static": static_sensitization_delay(block, out, arrival),
            "xbd0": functional_delays(block, arrival)[out],
            "cosens": cosensitization_delay(block, out, arrival),
            "topological": arrival_times(block, arrival)[out],
        }

    ladder = benchmark.pedantic(run, rounds=1, iterations=1)
    assert (
        ladder["static"]
        <= ladder["xbd0"]
        <= ladder["cosens"]
        <= ladder["topological"]
    )
    # under a late carry-in the criteria genuinely separate
    assert ladder["xbd0"] < ladder["topological"]
