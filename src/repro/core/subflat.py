"""Footnote-12 baseline: per-instance flat analysis in topological order.

"Another alternative is to perform flat analysis of subcircuits in a
topological order. ... However, each instance of the same module must be
analyzed separately given different arrival times at its inputs.
Furthermore incremental analysis capability is very limited."

This analyzer runs exact XBD0 analysis *per instance* with the actual
arrival times at that instance's inputs (no timing models, no reuse
across instances).  Soundness is the usual induction: computed input
times dominate true ones, module-level XBD0 quantifies over all input
vectors, monotone speedup transfers the bound.  Accuracy is at least that
of the two-step analyzer — exact arrival times replace the conservative
tuple summary — and on the paper's workloads the two coincide; what the
baseline loses is everything Section 3.3 is about: module reuse and
incrementality (the benches show characterization work growing with the
instance count instead of the module count).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.core.result import AnalysisResultMixin, removed_alias
from repro.core.xbd0 import Engine, StabilityAnalyzer, resolve_engine
from repro.errors import AnalysisError
from repro.netlist.hierarchy import HierDesign
from repro.obs.trace import ensure_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api import AnalysisOptions

NEG_INF = float("-inf")


@dataclass
class SubFlatResult(AnalysisResultMixin):
    """Outcome of a per-instance flat analysis run."""

    net_times: dict[str, float]
    output_times: dict[str, float]
    delay: float
    #: Number of per-instance module analyses performed (== instance
    #: count; contrast with the module count of the two-step analyzer).
    module_analyses: int
    #: The default shadows the read-only mixin property so the dataclass
    #: can assign the field.
    elapsed_seconds: float = 0.0

    #: Removed spelling of :attr:`elapsed_seconds` (raises with a hint).
    seconds = removed_alias("seconds", "elapsed_seconds")

    def _to_dict_extra(self) -> dict:
        return {"module_analyses": self.module_analyses}


class SubcircuitFlatAnalyzer:
    """The footnote-12 baseline analyzer.

    Configured by an :class:`~repro.api.AnalysisOptions` bundle (its
    engine and tracer; ``None`` means the defaults).
    """

    def __init__(
        self,
        design: HierDesign,
        *,
        options: "AnalysisOptions | None" = None,
    ):
        from repro.api import AnalysisOptions

        if options is None:
            options = AnalysisOptions()
        design.validate()
        self.design = design
        self.options = options
        self.engine: Engine = resolve_engine(options.engine)
        self.tracer = ensure_tracer(options.tracer)

    def analyze(
        self, arrival: Mapping[str, float] | None = None
    ) -> SubFlatResult:
        """Exact XBD0 per instance, instances in topological order."""
        design = self.design
        arrival = arrival or {}
        start = time.perf_counter()
        net_times: dict[str, float] = {
            x: float(arrival.get(x, 0.0)) for x in design.inputs
        }
        analyses = 0
        for inst_name in design.instance_order():
            inst = design.instances[inst_name]
            module = design.module_of(inst)
            local_arrival = {
                port: net_times[inst.net_of(port)]
                for port in module.inputs
            }
            analyzer = StabilityAnalyzer(
                module.network, local_arrival, self.engine,
                tracer=self.tracer,
            )
            analyses += 1
            with self.tracer.span(
                "instance-analysis",
                phase="propagation",
                instance=inst_name,
                module=inst.module_name,
            ):
                for port in module.outputs:
                    net_times[inst.net_of(port)] = (
                        analyzer.functional_delay(port)
                    )
        missing = [o for o in design.outputs if o not in net_times]
        if missing:
            raise AnalysisError(f"undriven outputs {missing!r}")
        output_times = {o: net_times[o] for o in design.outputs}
        return SubFlatResult(
            net_times=net_times,
            output_times=output_times,
            delay=max(output_times.values()) if output_times else NEG_INF,
            module_analyses=analyses,
            elapsed_seconds=time.perf_counter() - start,
        )
