"""Export discovered false-path facts as SDC timing constraints.

The practical hand-off from functional timing analysis to a conventional
topological flow: every pin pair whose effective delay beat its longest
topological path becomes a ``set_max_delay`` exception, and pairs proven
entirely false become ``set_false_path``.  A topological tool consuming
these constraints reproduces the functional answer — which is precisely
the Belkhale-Suess [1] setting, with the error-prone manual assertions
replaced by machine-checked ones (each constraint is backed by an XBD0
stability proof; see :mod:`repro.sta.known_false` for the internal
consumer).

Constraints are emitted per *instance*, since SDC addresses concrete
design objects, while the facts are established once per module.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING, TextIO

from repro.core.demand import DemandDrivenAnalyzer, DemandDrivenResult
from repro.netlist.hierarchy import HierDesign
from repro.sta.topological import pin_to_pin_delay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api import AnalysisOptions

NEG_INF = float("-inf")


def collect_exceptions(
    design: HierDesign, result: DemandDrivenResult
) -> list[tuple[str, str, str, float, float]]:
    """``(instance, in port, out port, topological, effective)`` rows.

    One row per instance pin pair whose effective delay improved on the
    topological baseline; ``effective = -inf`` marks fully false pairs.

    Accepts any :class:`~repro.core.result.AnalysisResult`; results
    without refined pin pairs (e.g. :class:`~repro.core.hier.HierResult`)
    simply yield no exceptions.
    """
    rows: list[tuple[str, str, str, float, float]] = []
    refined = getattr(result, "refined_weights", None)
    if not refined:
        return rows
    topo_cache: dict[tuple[str, str, str], float] = {}
    for inst_name in design.instance_order():
        inst = design.instances[inst_name]
        module = design.module_of(inst)
        for (mod, inp, out), weight in refined.items():
            if mod != inst.module_name:
                continue
            key = (mod, inp, out)
            if key not in topo_cache:
                topo_cache[key] = pin_to_pin_delay(
                    module.network, inp, out
                )
            topo = topo_cache[key]
            if weight < topo:
                rows.append((inst_name, inp, out, topo, weight))
    return rows


def write_sdc(
    design: HierDesign,
    result: DemandDrivenResult,
    stream: TextIO,
    separator: str = "/",
) -> int:
    """Write the exceptions as SDC; returns the number of constraints.

    Pin names are rendered ``instance<separator>port`` — adjust
    ``separator`` to the naming convention of the consuming tool.
    """
    stream.write(
        f"# SDC timing exceptions derived by XBD0 functional analysis\n"
        f"# design: {design.name}\n"
        f"# every constraint is backed by a stability proof "
        f"(see repro.core.demand)\n"
    )
    count = 0
    for inst, inp, out, topo, weight in collect_exceptions(design, result):
        src = f"{inst}{separator}{inp}"
        dst = f"{inst}{separator}{out}"
        if weight == NEG_INF:
            stream.write(
                f"set_false_path -from [get_pins {src}] "
                f"-to [get_pins {dst}]\n"
            )
        else:
            stream.write(
                f"set_max_delay {weight:g} -from [get_pins {src}] "
                f"-to [get_pins {dst}]  ;# topological {topo:g}\n"
            )
        count += 1
    return count


def dumps_sdc(design: HierDesign, result: DemandDrivenResult) -> str:
    """SDC text for the result's exceptions."""
    buf = io.StringIO()
    write_sdc(design, result, buf)
    return buf.getvalue()


def export_design_sdc(
    design: HierDesign,
    stream: TextIO,
    options: "AnalysisOptions | None" = None,
) -> int:
    """One step: analyze ``design`` demand-driven, write its exceptions.

    ``options`` configures the analysis (``None`` means the defaults).
    """
    result = DemandDrivenAnalyzer(design, options=options).analyze()
    return write_sdc(design, result, stream)
