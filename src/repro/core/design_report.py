"""Timing reports for hierarchical designs.

One renderer per analysis result: :func:`render_design_report` formats a
demand-driven (Section 5) run — per-output arrivals with their
topological baselines, the refined pin pairs (each one a discovered
false-path fact, with the paper's Section-5 provenance);
:func:`render_hier_report` formats a two-step (Section 3) run, with the
model library's counters when one is in use; :func:`render_batch_report`
formats a batch of scenarios.  Each can add a per-net arrival table for
debugging.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.core.batch import BatchResult
from repro.core.demand import DemandDrivenResult
from repro.core.hier import HierResult
from repro.core.result import AnalysisResult
from repro.netlist.hierarchy import HierDesign
from repro.sta.topological import NEG_INF

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.library.store import ModelLibrary

POS_INF = float("inf")


def _fmt(value: float) -> str:
    if value == NEG_INF:
        return "-inf"
    if value == float("inf"):
        return "inf"
    if value == int(value):
        return str(int(value))
    return f"{value:.3f}"


def _output_table(result: AnalysisResult) -> list[str]:
    """Per-output arrival table, shared by every report flavor.

    Works off the :class:`~repro.core.result.AnalysisResult` protocol, so
    any analyzer result renders identically — no per-class special cases.
    """
    times = result.arrival_times
    lines = [
        f"  {'output':<16} {'arrival':>8}",
        "  " + "-" * 26,
    ]
    for out in sorted(times, key=lambda o: -times[o]):
        lines.append(f"  {out:<16} {_fmt(times[out]):>8}")
    return lines


def _degradation_lines(degradations) -> list[str]:
    """Render the run's conservative fallbacks (empty on a clean run)."""
    if not degradations:
        return []
    lines = [
        "",
        f"  conservative degradations ({len(degradations)}):",
        "  (arrival times remain upper bounds — Theorem 1)",
    ]
    lines.extend(f"    {d}" for d in degradations)
    return lines


def _net_table(net_times: Mapping[str, float]) -> list[str]:
    lines = [
        f"  {'net':<20} {'arrival':>8}",
        "  " + "-" * 30,
    ]
    for net, time in sorted(net_times.items()):
        lines.append(f"  {net:<20} {_fmt(time):>8}")
    return lines


def render_design_report(
    design: HierDesign,
    result: DemandDrivenResult,
    show_nets: bool = False,
) -> str:
    """Format a :class:`DemandDrivenResult` as a report."""
    lines = [
        f"Hierarchical timing report for {design.name}",
        f"  {len(design.modules)} modules, {len(design.instances)} "
        f"instances, {len(design.inputs)} inputs, "
        f"{len(design.outputs)} outputs",
        "",
        f"  estimated delay      : {_fmt(result.delay)}",
        f"  topological estimate : {_fmt(result.topological_delay)}",
        f"  pessimism removed    : "
        f"{_fmt(result.topological_delay - result.delay)}",
        f"  cone stability checks: {result.refinement_checks} "
        f"({result.refinements} weight refinements, "
        f"{result.sta_passes} graph passes)",
        "",
    ]
    lines.extend(_output_table(result))
    if result.refined_weights:
        lines.append("")
        lines.append("  false-path facts established (module pin pairs):")
        for (module, inp, out), weight in sorted(
            result.refined_weights.items()
        ):
            lines.append(
                f"    {module}: {inp} -> {out}  effective delay "
                f"{_fmt(weight)}"
            )
    lines.extend(_degradation_lines(result.degradations))
    if show_nets:
        lines.append("")
        lines.extend(_net_table(result.net_times))
    return "\n".join(lines) + "\n"


def render_hier_report(
    design: HierDesign,
    result: HierResult,
    show_nets: bool = False,
    library: ModelLibrary | None = None,
) -> str:
    """Format a two-step :class:`~repro.core.hier.HierResult` as a report.

    With a model ``library`` its hit/miss/characterization counters are
    appended — a warm cache shows ``characterizations : 0``.  The
    report holds no wall-clock figure of its own (the library block
    keeps its characterization time), so without a library its text is
    the same at any ``jobs`` and with or without tracing.
    """
    lines = [
        f"Hierarchical timing report for {design.name}",
        f"  {len(design.modules)} modules, {len(design.instances)} "
        f"instances, {len(design.inputs)} inputs, "
        f"{len(design.outputs)} outputs",
        "",
        f"  estimated delay      : {_fmt(result.delay)}",
        f"  modules characterized: {len(result.characterized_modules)}",
    ]
    if library is not None:
        lines.append("")
        lines.append(library.stats.render())
    lines.extend(_degradation_lines(result.degradations))
    lines.append("")
    lines.extend(_output_table(result))
    if show_nets:
        lines.append("")
        lines.extend(_net_table(result.net_times))
    return "\n".join(lines) + "\n"


def render_batch_report(
    design: HierDesign,
    batch: BatchResult,
    show_nets: bool = False,
) -> str:
    """Format a :class:`~repro.core.batch.BatchResult` as a report.

    One line per scenario (delay and minimum output slack, the worst
    scenario starred), then the per-output table of the worst scenario;
    shared degradations render once since characterized models and
    refined weights are batch-wide state.
    """
    worst = batch.worst_scenario()
    lines = [
        f"Batched timing report for {design.name}",
        f"  {len(design.modules)} modules, {len(design.instances)} "
        f"instances, {len(design.inputs)} inputs, "
        f"{len(design.outputs)} outputs",
        "",
        f"  scenarios       : {len(batch)}",
        f"  method          : {batch.method or 'hierarchical'}",
        f"  envelope delay  : {_fmt(batch.delay)}",
        "",
        f"  {'scenario':<10} {'delay':>8} {'min slack':>10}",
        "  " + "-" * 32,
    ]
    for i, scenario in enumerate(batch):
        slack = (
            min(scenario.slacks.values()) if scenario.slacks else POS_INF
        )
        star = "  *" if i == worst else ""
        lines.append(
            f"  {i:<10} {_fmt(scenario.delay):>8} {_fmt(slack):>10}{star}"
        )
    if worst >= 0:
        lines.append("")
        lines.append(f"  worst scenario (#{worst}):")
        lines.extend(_output_table(batch[worst]))
    lines.extend(_degradation_lines(batch.degradations))
    if show_nets and worst >= 0:
        lines.append("")
        lines.extend(_net_table(batch[worst].net_times))
    return "\n".join(lines) + "\n"

