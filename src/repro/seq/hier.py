"""Hierarchical sequential designs: registers over a HierDesign core.

Combines the two directions the paper points at — footnote 3 (sequential
circuits) and the main hierarchical contribution — into the flow a real
chip would use: the combinational core between register boundaries is a
depth-1 hierarchy of leaf modules, analyzed with the demand-driven
algorithm, and the minimum clock period falls out of the endpoint stable
times.  Leaf-module characterization is shared across clock-period
queries, ECOs, and input-constraint sweeps, exactly as in Section 3.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.demand import DemandDrivenAnalyzer
from repro.errors import NetlistError
from repro.netlist.hierarchy import HierDesign
from repro.seq.circuit import Flop

NEG_INF = float("-inf")


@dataclass
class ClockReport:
    """Clock-period analysis outcome."""

    period: float
    critical_endpoint: str
    endpoint_times: dict[str, float]
    #: What plain topological edge weights would have demanded.
    topological_period: float


class SequentialDesign:
    """Registers whose D/Q pins are top-level nets of a hierarchy.

    Parameters
    ----------
    core:
        The combinational hierarchy.  Flop Q nets must be top-level inputs
        of ``core``; flop D nets must be top-level outputs.
    flops:
        The register set.
    """

    def __init__(
        self, core: HierDesign, flops: list[Flop], name: str | None = None
    ):
        core.validate()
        self.name = name or core.name
        self.core = core
        self.flops = tuple(flops)
        q_names: set[str] = set()
        outputs = set(core.outputs)
        for flop in self.flops:
            if flop.q not in core.inputs:
                raise NetlistError(
                    f"flop {flop.name!r}: Q net {flop.q!r} must be a "
                    "top-level input of the core"
                )
            if flop.d not in outputs:
                raise NetlistError(
                    f"flop {flop.name!r}: D net {flop.d!r} must be a "
                    "top-level output of the core"
                )
            if flop.q in q_names:
                raise NetlistError(f"duplicate Q net {flop.q!r}")
            q_names.add(flop.q)
        self._q_names = q_names
        self._analyzer: DemandDrivenAnalyzer | None = None

    @property
    def primary_inputs(self) -> tuple[str, ...]:
        """Core inputs that are not register outputs."""
        return tuple(
            x for x in self.core.inputs if x not in self._q_names
        )

    @property
    def primary_outputs(self) -> tuple[str, ...]:
        """Core outputs that are not register inputs."""
        d_nets = {f.d for f in self.flops}
        return tuple(o for o in self.core.outputs if o not in d_nets)

    def endpoints(self) -> tuple[str, ...]:
        """All timing endpoints: D nets plus primary outputs."""
        pins = [f.d for f in self.flops]
        pins.extend(self.primary_outputs)
        return tuple(dict.fromkeys(pins))

    def clock_report(
        self,
        clk_to_q: float = 0.0,
        setup: float = 0.0,
        input_arrival: Mapping[str, float] | None = None,
    ) -> ClockReport:
        """Minimum clock period via demand-driven hierarchical analysis.

        The analyzer (and with it every refined module pin pair) is cached
        on this object, so repeated queries under different constraints
        pay only graph propagation.
        """
        arrival = {q: clk_to_q for q in self._q_names}
        for x, t in (input_arrival or {}).items():
            if x in self._q_names:
                raise NetlistError(f"{x!r} is a register output, not a PI")
            if x not in self.core.inputs:
                raise NetlistError(f"unknown primary input {x!r}")
            arrival[x] = float(t)
        if self._analyzer is None:
            self._analyzer = DemandDrivenAnalyzer(self.core)
        result = self._analyzer.analyze(arrival)
        endpoint_times = {
            e: result.net_times[e] for e in self.endpoints()
        }
        worst = max(endpoint_times, key=endpoint_times.__getitem__)
        topo_times = list(
            self._topological_endpoint_times(arrival).values()
        )
        return ClockReport(
            period=endpoint_times[worst] + setup,
            critical_endpoint=worst,
            endpoint_times=endpoint_times,
            topological_period=max(topo_times) + setup,
        )

    def _topological_endpoint_times(
        self, arrival: Mapping[str, float]
    ) -> dict[str, float]:
        from repro.sta.known_false import KnownFalseAnalyzer

        result = KnownFalseAnalyzer(self.core).analyze(arrival=arrival)
        return {e: result.net_times[e] for e in self.endpoints()}

    def min_clock_period(
        self,
        clk_to_q: float = 0.0,
        setup: float = 0.0,
        input_arrival: Mapping[str, float] | None = None,
    ) -> float:
        """Smallest safe clock period."""
        return self.clock_report(clk_to_q, setup, input_arrival).period


def registered_cascade(
    total_bits: int, block_bits: int = 2
) -> SequentialDesign:
    """A registered accumulator over the hierarchical ``csa n.m`` adder.

    ``acc <= acc + in``: the b-operand nets of the cascade become register
    outputs and the sum nets register inputs, leaving the a-operand and
    carry as primary inputs.
    """
    from repro.circuits.adders import cascade_adder

    core = cascade_adder(total_bits, block_bits)
    flops = [
        Flop(f"ff{i}", d=f"s{i}", q=f"b{i}") for i in range(total_bits)
    ]
    return SequentialDesign(core, flops, name=f"regcsa{total_bits}")
