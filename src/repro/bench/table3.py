"""Table 3 (ours) — datapath workloads beyond the paper's benchmark set.

Array multipliers, barrel shifters, carry-select adders, and a wider ALU,
each bipartitioned into a two-module cascade and compared across
topological / hierarchical / flat analysis, extending Table 2's
methodology to the datapath styles a modern user would bring.

Run as ``python -m repro.bench.table3``.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import (
    COMPARISON_HEADERS,
    ComparisonRow,
    render_table,
    stopwatch,
)
from repro.circuits.adders import carry_select_adder
from repro.circuits.datapath import (
    array_multiplier,
    barrel_shifter,
    wallace_multiplier,
)
from repro.circuits.iscaslike import alu
from repro.circuits.partition import cascade_bipartition
from repro.core.demand import DemandDrivenAnalyzer, flat_functional_delay
from repro.netlist.network import Network

#: Row name → (circuit factory, bipartition cut fraction).
TABLE3_ROWS: dict[str, tuple[Callable[[], Network], float]] = {
    "mul4x4": (lambda: array_multiplier(4, 4), 0.5),
    "mul5x5": (lambda: array_multiplier(5, 5), 0.5),
    "wal4x4": (lambda: wallace_multiplier(4, 4), 0.5),
    "wal5x5": (lambda: wallace_multiplier(5, 5), 0.5),
    "bshift8": (lambda: barrel_shifter(3), 0.5),
    "bshift16": (lambda: barrel_shifter(4), 0.5),
    "csel8.2": (lambda: carry_select_adder(8, 2), 0.5),
    "csel12.3": (lambda: carry_select_adder(12, 3), 0.5),
    "alu8": (lambda: alu(8, name="alu8"), 0.5),
}


def run_row(name: str) -> ComparisonRow:
    """One datapath row: bipartition, then all three analyses."""
    factory, cut = TABLE3_ROWS[name]
    network = factory()
    design = cascade_bipartition(network, cut_fraction=cut)
    analyzer = DemandDrivenAnalyzer(design)
    with stopwatch() as t_h:
        result = analyzer.analyze()
    flat_delay, _, flat_seconds = flat_functional_delay(design)
    return ComparisonRow(
        circuit=name,
        topological_delay=result.topological_delay,
        hierarchical_delay=result.delay,
        hierarchical_seconds=t_h.seconds,
        flat_delay=flat_delay,
        flat_seconds=flat_seconds,
        extra={"gates": network.num_gates()},
    )


def run_table() -> list[ComparisonRow]:
    """All rows of Table 3."""
    return [run_row(name) for name in TABLE3_ROWS]


def main() -> None:  # pragma: no cover - exercised via CLI
    rows = run_table()
    print(
        render_table(
            COMPARISON_HEADERS,
            [r.cells() for r in rows],
            title="Table 3 (ours): datapath workloads — "
            "hierarchical vs. flat",
        )
    )
    for row in rows:
        tag = "exact" if row.exact else f"+{row.overestimate:g} conservative"
        print(f"  {row.circuit}: {tag}")


if __name__ == "__main__":  # pragma: no cover
    main()
