"""Table 1 — carry-skip adders: hierarchical vs flat.

Regenerates the paper's Table 1 on ``csa n.m`` cascades (an n-bit adder
structured as n/m m-bit carry-skip blocks).  All primary inputs arrive at
t = 0, the Section-4 delay assignment is used (AND/OR = 1, XOR/MUX = 2).

Paper shape to reproduce: hierarchical estimated delay equals flat
estimated delay on every circuit (regular structure → all falsity is
local), both far below the topological delay, and hierarchical CPU is a
small fraction of flat CPU, with the gap widening as circuits grow.

Run as ``python -m repro.bench.table1``.
"""

from __future__ import annotations

from repro.api import AnalysisOptions
from repro.bench.harness import (
    COMPARISON_HEADERS,
    ComparisonRow,
    render_table,
    stopwatch,
)
from repro.circuits.adders import cascade_adder
from repro.core.demand import DemandDrivenAnalyzer, flat_functional_delay
from repro.core.xbd0 import Engine

#: The (total bits, block bits) grid: 9 circuits like the paper's 9 rows.
DEFAULT_GRID: tuple[tuple[int, int], ...] = (
    (8, 2), (8, 4),
    (16, 2), (16, 4), (16, 8),
    (32, 2), (32, 4), (32, 8),
    (48, 4),
)


def run_row(total_bits: int, block_bits: int,
            engine: Engine | None = None,
            flat: bool = True) -> ComparisonRow:
    """Analyze one ``csa n.m`` circuit all three ways."""
    design = cascade_adder(total_bits, block_bits)
    analyzer = DemandDrivenAnalyzer(
        design, options=AnalysisOptions(engine=engine)
    )
    with stopwatch() as t_h:
        result = analyzer.analyze()
    if flat:
        flat_delay, _, flat_seconds = flat_functional_delay(
            design, engine=engine
        )
    else:
        flat_delay, flat_seconds = float("nan"), float("nan")
    return ComparisonRow(
        circuit=f"csa{total_bits}.{block_bits}",
        topological_delay=result.topological_delay,
        hierarchical_delay=result.delay,
        hierarchical_seconds=t_h.seconds,
        flat_delay=flat_delay,
        flat_seconds=flat_seconds,
        extra={
            "refinement_checks": result.refinement_checks,
            "sta_passes": result.sta_passes,
        },
    )


def run_table(
    grid: tuple[tuple[int, int], ...] = DEFAULT_GRID,
    engine: Engine | None = None,
) -> list[ComparisonRow]:
    """All rows of Table 1."""
    return [run_row(n, m, engine) for n, m in grid]


def main() -> None:  # pragma: no cover - exercised via CLI
    rows = run_table()
    print(
        render_table(
            COMPARISON_HEADERS,
            [r.cells() for r in rows],
            title="Table 1: timing analysis of carry-skip adders — "
            "hierarchical vs. flat (unit-style delays, PIs at t=0)",
        )
    )
    exact = sum(r.exact for r in rows)
    print(f"\naccuracy preserved on {exact}/{len(rows)} circuits "
          f"(paper: all); median speedup "
          f"{sorted(r.speedup for r in rows)[len(rows) // 2]:.1f}x")


if __name__ == "__main__":  # pragma: no cover
    main()
