"""Topological (worst-case, function-free) static timing analysis.

Every path is assumed to propagate an event; this is the conservative
baseline the paper improves upon and also the starting point of the
demand-driven algorithm (Section 5).  All quantities use ``-inf``/``+inf``
to denote "no path" / "unconstrained".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import AnalysisError
from repro.netlist.network import Network

NEG_INF = float("-inf")
POS_INF = float("inf")


def arrival_times(
    network: Network, arrival: Mapping[str, float] | None = None
) -> dict[str, float]:
    """Topological arrival time of every signal.

    PIs default to 0.0; a PI set to ``-inf`` never constrains anything.
    Gates with no fanins (constants) arrive at ``-inf``.
    """
    arrival = arrival or {}
    at: dict[str, float] = {}
    for x in network.inputs:
        at[x] = float(arrival.get(x, 0.0))
    for s in network.topological_order():
        if s in at:
            continue
        g = network.gate(s)
        if not g.fanins:
            at[s] = NEG_INF
        else:
            worst = max(at[f] for f in g.fanins)
            at[s] = worst + g.delay if worst != NEG_INF else NEG_INF
    return at


def arrival_times_batch(
    network: Network,
    scenarios,
) -> list[Mapping[str, float]]:
    """Topological arrival times for a batch of PI-arrival scenarios.

    Compiles the network once (:func:`repro.kernel.plan.compile_network`)
    and evaluates every scenario in one batched kernel pass through
    :meth:`~repro.kernel.design.CompiledDesign.propagate`: each
    scenario's times are a read-only view equal to (and bit-identical
    with) :func:`arrival_times` of that scenario.  A NaN arrival raises
    :class:`~repro.errors.AnalysisError` naming the input.
    """
    from repro.kernel.design import CompiledDesign
    from repro.kernel.plan import compile_network

    scenarios = [s or {} for s in scenarios]
    if not scenarios:
        return []
    handle = CompiledDesign(compile_network(network), tuple(network.outputs))
    return handle.propagate(scenarios)


def topological_delay(
    network: Network,
    output: str | None = None,
    arrival: Mapping[str, float] | None = None,
) -> float:
    """Arrival of one output (or the max over all outputs if None)."""
    at = arrival_times(network, arrival)
    if output is not None:
        return at[output]
    if not network.outputs:
        raise AnalysisError("network has no outputs")
    return max(at[o] for o in network.outputs)


def required_times(
    network: Network, required: Mapping[str, float]
) -> dict[str, float]:
    """Topological required time of every signal.

    ``required`` maps primary outputs (or any signals) to required times;
    signals with no constrained fanout get ``+inf``.
    """
    rt: dict[str, float] = {s: POS_INF for s in network.signals()}
    for sig, t in required.items():
        if not network.has_signal(sig):
            raise AnalysisError(f"unknown signal {sig!r}")
        rt[sig] = min(rt[sig], float(t))
    for s in reversed(network.topological_order()):
        if s in network.gates:
            g = network.gate(s)
            budget = rt[s] - g.delay
            for f in g.fanins:
                if budget < rt[f]:
                    rt[f] = budget
    return rt


def slacks(
    network: Network,
    arrival: Mapping[str, float] | None = None,
    required: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Slack (required - arrival) of every signal.

    If ``required`` is omitted, the latest primary-output arrival is used as
    the required time at every output (so the most critical path has slack
    zero), matching the convention of Section 5.
    """
    at = arrival_times(network, arrival)
    if required is None:
        if not network.outputs:
            raise AnalysisError("network has no outputs")
        deadline = max(at[o] for o in network.outputs)
        required = {o: deadline for o in network.outputs}
    rt = required_times(network, required)
    return {s: rt[s] - at[s] for s in network.signals()}


@dataclass(frozen=True)
class CriticalPath:
    """A maximal-delay topological path, as a list of signals PI→PO."""

    signals: tuple[str, ...]
    delay: float


def critical_path(
    network: Network,
    output: str | None = None,
    arrival: Mapping[str, float] | None = None,
) -> CriticalPath:
    """One longest topological path ending at ``output`` (or the worst PO)."""
    at = arrival_times(network, arrival)
    if output is None:
        if not network.outputs:
            raise AnalysisError("network has no outputs")
        output = max(network.outputs, key=lambda o: at[o])
    path = [output]
    current = output
    while not network.is_input(current):
        g = network.gate(current)
        if not g.fanins:
            break
        current = max(g.fanins, key=lambda f: at[f])
        path.append(current)
    path.reverse()
    return CriticalPath(tuple(path), at[output])


def pin_to_pin_delays(network: Network, source: str) -> dict[str, float]:
    """Longest topological path delay from ``source`` to every signal.

    One forward pass; signals with no path from ``source`` are absent
    (``source`` itself maps to 0.0).
    """
    if not network.has_signal(source):
        raise AnalysisError("unknown signal in pin_to_pin_delays")
    dist: dict[str, float] = {source: 0.0}
    for s in network.topological_order():
        if s == source or network.is_input(s):
            continue
        g = network.gate(s)
        reachable = [dist[f] for f in g.fanins if f in dist]
        if reachable:
            dist[s] = max(reachable) + g.delay
    return dist


def pin_to_pin_delay(network: Network, source: str, sink: str) -> float:
    """Longest topological path delay from signal ``source`` to ``sink``.

    Returns ``-inf`` if no path exists.  To read many sinks of one
    source, call :func:`pin_to_pin_delays` once instead.
    """
    if not network.has_signal(source) or not network.has_signal(sink):
        raise AnalysisError("unknown signal in pin_to_pin_delay")
    return pin_to_pin_delays(network, source).get(sink, NEG_INF)
