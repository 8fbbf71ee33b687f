"""Benchmarks for the extension features beyond the paper's tables.

* sequential clock-period analysis (footnote 3),
* per-instance SDC-aware characterization (footnote 6),
* conditional (per-vector exact) analysis (footnote 8),
* multi-level model composition (footnote 4),
* known-false-subgraph baseline (reference [1]),
* ATPG test generation and the Wallace = array multiplier SAT-miter proof.

Run: pytest benchmarks/bench_extensions.py --benchmark-only
"""

import pytest

from repro.circuits.adders import cascade_adder
from repro.core.conditional import ConditionalAnalyzer
from repro.core.demand import DemandDrivenAnalyzer
from repro.core.hier import HierarchicalAnalyzer
from repro.core.multilevel import compose_design_models, evaluate_composed
from repro.seq.generators import accumulator
from repro.sta.known_false import KnownFalseAnalyzer, annotations_from_models


def test_sequential_clock_period(benchmark):
    seq = accumulator(8, 2)

    def run():
        return (
            seq.min_clock_period(functional=True),
            seq.min_clock_period(functional=False),
        )

    functional, topological = benchmark.pedantic(run, rounds=1, iterations=1)
    assert functional == 16.0
    assert topological == 26.0


def test_conditional_per_vector(benchmark):
    design = cascade_adder(8, 2)
    analyzer = ConditionalAnalyzer(design)
    vec = {x: (i % 3 == 0) for i, x in enumerate(design.inputs)}

    def run():
        return analyzer.analyze(vec)

    result = benchmark(run)
    # per-vector exactness: never slower than the worst case
    worst = DemandDrivenAnalyzer(design).analyze().delay
    assert result.delay <= worst


def test_multilevel_composition(benchmark):
    design = cascade_adder(16, 2)

    def run():
        return compose_design_models(design)

    models = benchmark.pedantic(run, rounds=1, iterations=1)
    reference = HierarchicalAnalyzer(design).analyze()
    composed = evaluate_composed(models)
    for out in design.outputs:
        assert composed[out] == pytest.approx(reference.output_times[out])


def test_known_false_annotated_sta(benchmark):
    design = cascade_adder(32, 2)
    hier = HierarchicalAnalyzer(design)
    hier.characterize_all()
    annotations = annotations_from_models(hier._models)
    analyzer = KnownFalseAnalyzer(design)

    def run():
        return analyzer.analyze(annotations)

    result = benchmark(run)
    assert result.delay == DemandDrivenAnalyzer(design).analyze().delay


def test_footnote12_per_instance_flat(benchmark):
    """The footnote-12 baseline pays per instance; the demand analyzer
    pays per module — same answer on regular designs."""
    from repro.core.subflat import SubcircuitFlatAnalyzer

    design = cascade_adder(16, 2)

    def run():
        return SubcircuitFlatAnalyzer(design).analyze()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    demand = DemandDrivenAnalyzer(design).analyze()
    assert result.delay == demand.delay
    assert result.module_analyses == 8  # vs one refined module


def test_atpg_test_set_generation(benchmark):
    from repro.atpg import fault_coverage, generate_test_set
    from repro.circuits.adders import ripple_adder

    net = ripple_adder(3)

    def run():
        return generate_test_set(net)

    tests, untestable = benchmark.pedantic(run, rounds=1, iterations=1)
    assert untestable == []
    coverage, _ = fault_coverage(net, tests)
    assert coverage == 1.0


def test_multiplier_equivalence(benchmark):
    from repro.circuits.datapath import array_multiplier, wallace_multiplier
    from repro.sat.solver import SolveResult, solve_cnf
    from repro.sat.tseitin import miter_cnf

    wal = wallace_multiplier(4, 4)
    arr = array_multiplier(4, 4)

    def run():
        cnf, _ = miter_cnf(wal, arr)
        return solve_cnf(cnf)[0]

    assert benchmark.pedantic(run, rounds=1, iterations=1) is SolveResult.UNSAT
