"""Figures 3, 4 and 5 — timing-model polygons of the 2-bit carry-skip adder.

* **Figure 3**: the timing model ``T_cout`` of the 2-bit block drawn as a
  polygon — inputs ``c_in, a0, b0, a1, b1`` must arrive 2, 8, 8, 6, 6 time
  units before the output edge.
* **Figure 4**: stacking two such polygons for the 4-bit cascade with all
  PIs at t = 0: the first polygon settles at ``tmp = 8`` (a0/b0 critical),
  the second at ``c4 = 10`` (the chained carry critical).
* **Figure 5**: the 2-bit block under ``arr(c_in) = 5``, others 0: c_out
  stabilizes at 8 with a0/b0 critical, and the *functional* slack of c_in
  is +1 while its topological slack is −3.

Run as ``python -m repro.bench.figures``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.adders import carry_skip_block
from repro.core.polygon import (
    PolygonPlacement,
    place_polygon,
    render_polygon_ascii,
    stack_cascade,
)
from repro.core.required import characterize_network
from repro.core.timing_model import TimingModel
from repro.sta.topological import pin_to_pin_delay


@dataclass
class FigureData:
    """Everything the three figures plot, as plain numbers."""

    #: Figure 3: the characterized models of the 2-bit block.
    models: dict[str, TimingModel]
    #: Figure 4: stacked placements (stage 0 then stage 1) and c4 arrival.
    fig4_placements: list[PolygonPlacement]
    fig4_tmp: float
    fig4_c4: float
    #: Figure 5: c_out arrival under arr(c_in)=5, and both slack notions.
    fig5_cout: float
    fig5_functional_slack: float
    fig5_topological_slack: float


def compute_figures() -> FigureData:
    """Recompute every number the three figures display."""
    block = carry_skip_block(2)
    models = characterize_network(block)
    cout_model = models["c_out"]

    # Figure 4: two stacked polygons, all cascade PIs at 0.
    placements = stack_cascade(
        [cout_model, cout_model],
        [("c_in", "c_out"), ("c_in", "c_out")],
        arrival={},
    )
    tmp = placements[0].stable_time
    c4 = placements[1].stable_time

    # Figure 5: arr(c_in) = 5, others 0.
    arr5 = {"c_in": 5.0}
    placement5 = place_polygon(cout_model, arr5)
    functional_slack = cout_model.input_slack(arr5, "c_in")
    # Topological slack: required time at c_out = the functional stable
    # time (8); topological required at c_in = 8 - longest path (6) = 2;
    # slack = 2 - 5 = -3.
    longest = pin_to_pin_delay(block, "c_in", "c_out")
    topo_slack = (placement5.stable_time - longest) - arr5["c_in"]

    return FigureData(
        models=models,
        fig4_placements=placements,
        fig4_tmp=tmp,
        fig4_c4=c4,
        fig5_cout=placement5.stable_time,
        fig5_functional_slack=functional_slack,
        fig5_topological_slack=topo_slack,
    )


def main() -> None:  # pragma: no cover - exercised via CLI
    data = compute_figures()
    print("=== Figure 3: timing models of the 2-bit carry-skip block ===")
    for out in ("s0", "s1", "c_out"):
        print(f"  {data.models[out]}")
    print()
    print(render_polygon_ascii(
        place_polygon(data.models["c_out"], {}), {},
    ))
    print()
    print("=== Figure 4: stacked polygons, 4-bit cascade, PIs at 0 ===")
    print(f"  tmp (first block c_out) = {data.fig4_tmp:g}   [paper: 8]")
    print(f"  c4  (second block)      = {data.fig4_c4:g}   [paper: 10]")
    for i, placement in enumerate(data.fig4_placements):
        print(f"  stage {i} critical inputs: {', '.join(placement.critical)}")
    print()
    print("=== Figure 5: arr(c_in)=5, others 0 ===")
    print(f"  c_out stable time   = {data.fig5_cout:g}   [paper: 8]")
    print(f"  functional slack    = {data.fig5_functional_slack:+g}   [paper: +1]")
    print(f"  topological slack   = {data.fig5_topological_slack:+g}   [paper: -3]")
    print()
    print(render_polygon_ascii(
        place_polygon(data.models["c_out"], {"c_in": 5.0}), {"c_in": 5.0},
    ))


if __name__ == "__main__":  # pragma: no cover
    main()
