"""Section-4 parametric sweep: n cascaded 2-bit blocks → carry at 2n + 6.

"Parametric analysis like this is not possible with flat analysis": the
hierarchical analyzer characterizes the block once and sweeps the cascade
length at propagation cost only.  The bench asserts the closed form at
every point (the paper verified it against flat analysis up to n = 8) and
times the sweep.

Run: pytest benchmarks/bench_parametric_cascade.py --benchmark-only
"""

import pytest

from repro.circuits.adders import cascade_adder
from repro.core.hier import HierarchicalAnalyzer
from repro.core.xbd0 import functional_delays

SWEEP = list(range(1, 11))


def test_parametric_sweep(benchmark):
    def sweep():
        results = {}
        for blocks in SWEEP:
            design = cascade_adder(2 * blocks, 2)
            analyzer = HierarchicalAnalyzer(design)
            results[blocks] = analyzer.analyze().output_times[f"c{2 * blocks}"]
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for blocks, carry in results.items():
        assert carry == 2 * blocks + 6, f"n={blocks}"


@pytest.mark.parametrize("blocks", [2, 4, 8])
def test_closed_form_matches_flat(benchmark, blocks):
    """The cross-check the paper ran: flat analysis agrees up to n = 8."""
    design = cascade_adder(2 * blocks, 2)
    flat = design.flatten()

    def run():
        return functional_delays(flat, outputs=(f"c{2 * blocks}",))

    got = benchmark.pedantic(run, rounds=1, iterations=1)
    assert got[f"c{2 * blocks}"] == 2 * blocks + 6


def test_propagation_scales_linearly(benchmark):
    """With models cached, each extra block costs one min-max step."""
    analyzer = HierarchicalAnalyzer(cascade_adder(64, 2))
    analyzer.characterize_all()

    def propagate():
        return analyzer.analyze().delay

    delay = benchmark(propagate)
    assert delay == 2 * 32 + 6 + 2  # s63 = carry-in of last block + 4 ...
