"""Sequential circuits with edge-triggered flip-flops.

Footnote 3 of the paper: "Although stated for combinational circuits, the
methods clearly apply to sequential circuits with edge triggered latches."
The reduction is classical: cut the circuit at the registers, treat every
flop output (Q) as a pseudo primary input arriving ``clk_to_q`` after the
clock edge and every flop input (D) as a pseudo primary output that must
settle ``setup`` before the next edge.  The minimum clock period is then
the worst stable time over all D pins and primary outputs — computed
*functionally* (XBD0) instead of topologically, which is where false
paths through the combinational core buy real clock frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.xbd0 import functional_delays
from repro.errors import NetlistError
from repro.netlist.network import Network
from repro.sta.topological import arrival_times

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Flop:
    """One edge-triggered D flip-flop.

    ``q`` must be a primary input of the combinational core and ``d`` any
    core signal; the flop conceptually copies ``d`` to ``q`` on each clock
    edge.
    """

    name: str
    d: str
    q: str


class SequentialCircuit:
    """A combinational core plus a register boundary.

    Parameters
    ----------
    core:
        The combinational network.  Flop Q pins must be core PIs; flop D
        pins core signals.  Core outputs that are not D pins are the
        circuit's primary outputs; core inputs that are not Q pins are its
        primary inputs.
    flops:
        The register set.
    """

    def __init__(self, core: Network, flops: list[Flop], name: str | None = None):
        self.name = name or core.name
        self.core = core
        self.flops = tuple(flops)
        q_names = set()
        for flop in self.flops:
            if not core.is_input(flop.q):
                raise NetlistError(
                    f"flop {flop.name!r}: Q pin {flop.q!r} must be a core PI"
                )
            if not core.has_signal(flop.d):
                raise NetlistError(
                    f"flop {flop.name!r}: D pin {flop.d!r} unknown"
                )
            if flop.q in q_names:
                raise NetlistError(f"duplicate Q pin {flop.q!r}")
            q_names.add(flop.q)
        self._q_names = q_names

    @property
    def primary_inputs(self) -> tuple[str, ...]:
        """Core PIs that are not flop outputs."""
        return tuple(
            x for x in self.core.inputs if x not in self._q_names
        )

    @property
    def primary_outputs(self) -> tuple[str, ...]:
        """Core POs that are not flop D pins."""
        d_pins = {f.d for f in self.flops}
        return tuple(o for o in self.core.outputs if o not in d_pins)

    def endpoints(self) -> tuple[str, ...]:
        """All timing endpoints: D pins plus primary outputs."""
        pins = [f.d for f in self.flops]
        pins.extend(self.primary_outputs)
        return tuple(dict.fromkeys(pins))

    # ------------------------------------------------------------- analysis
    def endpoint_times(
        self,
        clk_to_q: float = 0.0,
        input_arrival: Mapping[str, float] | None = None,
        functional: bool = True,
    ) -> dict[str, float]:
        """Stable time of every endpoint after a clock edge at t = 0.

        Functional times come from flat XBD0 analysis of the core, on
        BDDs (:func:`~repro.core.xbd0.functional_delays`).
        """
        arrival = {q: clk_to_q for q in self._q_names}
        for x, t in (input_arrival or {}).items():
            if x in self._q_names:
                raise NetlistError(f"{x!r} is a flop output, not a PI")
            arrival[x] = float(t)
        endpoints = self.endpoints()
        missing = [e for e in endpoints if e not in self.core.outputs]
        if missing:
            raise NetlistError(
                f"endpoints {missing!r} must be declared core outputs"
            )
        if functional:
            return functional_delays(self.core, arrival, outputs=endpoints)
        at = arrival_times(self.core, arrival)
        return {e: at[e] for e in endpoints}

    def min_clock_period(
        self,
        clk_to_q: float = 0.0,
        setup: float = 0.0,
        input_arrival: Mapping[str, float] | None = None,
        functional: bool = True,
    ) -> float:
        """Smallest clock period closing timing at every endpoint."""
        times = self.endpoint_times(clk_to_q, input_arrival, functional)
        worst = max(times.values(), default=NEG_INF)
        if worst == NEG_INF:
            return 0.0
        return worst + setup

    def critical_endpoint(
        self,
        clk_to_q: float = 0.0,
        input_arrival: Mapping[str, float] | None = None,
        functional: bool = True,
    ) -> tuple[str, float]:
        """The endpoint that sets the clock period."""
        times = self.endpoint_times(clk_to_q, input_arrival, functional)
        pin = max(times, key=times.__getitem__)
        return pin, times[pin]
