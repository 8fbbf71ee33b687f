"""Table 2 — ISCAS-style circuits bipartitioned into two-module cascades.

The paper partitions each ISCAS-85 benchmark into two cascaded circuits,
treats each half as a leaf module, and compares hierarchical against flat
analysis.  The original netlists are not available offline, so the suite
substitutes circuits of comparable flavour (see DESIGN.md §3 and
:mod:`repro.circuits.iscaslike`).

Paper shape to reproduce: estimated delay matches flat analysis on most
circuits, with *small overestimation on some* (global false paths crossing
the cut are invisible to the hierarchical analyzer); CPU time is **not**
better than flat on such small circuits — hierarchical analysis wins on
scalability, not constant factors.

Run as ``python -m repro.bench.table2``.
"""

from __future__ import annotations

from repro.api import AnalysisOptions
from repro.bench.harness import (
    COMPARISON_HEADERS,
    ComparisonRow,
    render_table,
    stopwatch,
)
from repro.circuits.iscaslike import TABLE2_ROWS
from repro.circuits.partition import cascade_bipartition
from repro.core.demand import DemandDrivenAnalyzer, flat_functional_delay
from repro.core.xbd0 import Engine


def run_row(name: str, engine: Engine | None = None) -> ComparisonRow:
    """Analyze one suite circuit (bipartitioned) all three ways."""
    factory, cut = TABLE2_ROWS[name]
    network = factory()
    design = cascade_bipartition(network, cut_fraction=cut)
    analyzer = DemandDrivenAnalyzer(
        design, options=AnalysisOptions(engine=engine)
    )
    with stopwatch() as t_h:
        result = analyzer.analyze()
    flat_delay, _, flat_seconds = flat_functional_delay(design, engine=engine)
    return ComparisonRow(
        circuit=name,
        topological_delay=result.topological_delay,
        hierarchical_delay=result.delay,
        hierarchical_seconds=t_h.seconds,
        flat_delay=flat_delay,
        flat_seconds=flat_seconds,
        extra={
            "gates": network.num_gates(),
            "refinement_checks": result.refinement_checks,
        },
    )


def run_table(engine: Engine | None = None) -> list[ComparisonRow]:
    """All rows of Table 2."""
    return [run_row(name, engine) for name in TABLE2_ROWS]


def main() -> None:  # pragma: no cover - exercised via CLI
    rows = run_table()
    print(
        render_table(
            COMPARISON_HEADERS,
            [r.cells() for r in rows],
            title="Table 2: ISCAS-style circuits (two-module cascades) — "
            "hierarchical vs. flat",
        )
    )
    exact = [r.circuit for r in rows if r.exact]
    over = [(r.circuit, r.overestimate) for r in rows if not r.exact]
    print(f"\naccuracy preserved on: {', '.join(exact)}")
    if over:
        print(
            "small overestimation (global false paths across the cut): "
            + ", ".join(f"{c} (+{fmt_over:g})" for c, fmt_over in over)
        )


if __name__ == "__main__":  # pragma: no cover
    main()
