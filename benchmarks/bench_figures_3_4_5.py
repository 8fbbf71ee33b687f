"""Figures 3-5 benchmark: timing-model polygons of the 2-bit block.

Asserts every number the figures display and times the characterization
step that produces them.

Run: pytest benchmarks/bench_figures_3_4_5.py --benchmark-only
Rendered figures: python -m repro.bench.figures
"""

from repro.bench.figures import compute_figures
from repro.circuits.adders import carry_skip_block
from repro.core.required import characterize_network

NEG_INF = float("-inf")


def test_figure_data(benchmark):
    data = benchmark.pedantic(compute_figures, rounds=1, iterations=1)
    # Figure 3: the three models
    assert data.models["s0"].tuples == ((2.0, 4.0, 4.0, NEG_INF, NEG_INF),)
    assert data.models["s1"].tuples == ((4.0, 6.0, 6.0, 4.0, 4.0),)
    assert data.models["c_out"].tuples == ((2.0, 8.0, 8.0, 6.0, 6.0),)
    # Figure 4: stacked placements
    assert data.fig4_tmp == 8.0
    assert data.fig4_c4 == 10.0
    assert set(data.fig4_placements[0].critical) == {"a0", "b0"}
    assert data.fig4_placements[1].critical == ("c_in",)
    # Figure 5: slacks
    assert data.fig5_cout == 8.0
    assert data.fig5_functional_slack == 1.0
    assert data.fig5_topological_slack == -3.0


def test_characterization_speed(benchmark):
    block = carry_skip_block(2)

    def run():
        return characterize_network(block)

    models = benchmark(run)
    assert models["c_out"].delay_from("c_in") == 2.0
