"""Flat gate-level combinational networks.

A :class:`Network` is a DAG of named signals.  Every signal is either a
primary input or the output of exactly one :class:`Gate`; gate outputs share
the gate's name.  Primary outputs reference existing signals (a PI may be an
output directly).  Networks are the unit of analysis for the flat XBD0
engine and the body of every leaf module in a hierarchical design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import NetlistError
from repro.netlist.gates import GateType, check_arity, evaluate


@dataclass(frozen=True)
class Gate:
    """One gate instance: ``name`` is also the name of its output signal."""

    name: str
    gtype: GateType
    fanins: tuple[str, ...]
    delay: float = 1.0

    def __post_init__(self) -> None:
        check_arity(self.gtype, len(self.fanins))
        if self.delay != self.delay:
            raise NetlistError(f"gate {self.name!r}: delay is NaN")
        if self.delay < 0:
            raise NetlistError(f"gate {self.name!r}: negative delay {self.delay}")


class Network:
    """A flat combinational circuit.

    Parameters
    ----------
    name:
        Human-readable circuit name.

    Signals are added with :meth:`add_input` and :meth:`add_gate`;
    outputs are declared with :meth:`set_outputs` (or :meth:`add_output`).
    """

    def __init__(self, name: str = "top"):
        self.name = name
        self._inputs: list[str] = []
        self._input_set: set[str] = set()
        self._gates: dict[str, Gate] = {}
        self._outputs: list[str] = []
        self._topo_cache: list[str] | None = None
        self._fanouts_cache: dict[str, tuple[str, ...]] | None = None

    # ------------------------------------------------------------------ build
    def add_input(self, name: str) -> str:
        """Declare a primary input signal and return its name."""
        self._check_fresh(name)
        self._inputs.append(name)
        self._input_set.add(name)
        self._invalidate()
        return name

    def add_inputs(self, names: Iterable[str]) -> list[str]:
        """Declare several primary inputs, returning their names."""
        return [self.add_input(n) for n in names]

    def add_gate(
        self,
        name: str,
        gtype: GateType | str,
        fanins: Iterable[str],
        delay: float = 1.0,
    ) -> str:
        """Add a gate whose output signal is ``name``; return ``name``."""
        if isinstance(gtype, str):
            gtype = GateType(gtype.upper())
        self._check_fresh(name)
        fanins = tuple(fanins)
        for f in fanins:
            if not self.has_signal(f):
                raise NetlistError(
                    f"gate {name!r}: fanin {f!r} is not a known signal"
                )
        self._gates[name] = Gate(name, gtype, fanins, delay)
        self._invalidate()
        return name

    def add_output(self, signal: str) -> None:
        """Declare an existing signal as a primary output."""
        if not self.has_signal(signal):
            raise NetlistError(f"output {signal!r} is not a known signal")
        self._outputs.append(signal)

    def set_outputs(self, signals: Iterable[str]) -> None:
        """Replace the primary output list."""
        self._outputs = []
        for s in signals:
            self.add_output(s)

    def _check_fresh(self, name: str) -> None:
        if not name:
            raise NetlistError("signal name must be non-empty")
        if self.has_signal(name):
            raise NetlistError(f"duplicate signal name {name!r}")

    def _invalidate(self) -> None:
        self._topo_cache = None
        self._fanouts_cache = None

    # ------------------------------------------------------------------ query
    @property
    def inputs(self) -> tuple[str, ...]:
        """Primary input names, in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[str, ...]:
        """Primary output signal names, in declaration order."""
        return tuple(self._outputs)

    @property
    def gates(self) -> Mapping[str, Gate]:
        """Mapping from gate/signal name to :class:`Gate`."""
        return self._gates

    def has_signal(self, name: str) -> bool:
        """True if ``name`` is a declared input or gate output."""
        return name in self._input_set or name in self._gates

    def is_input(self, name: str) -> bool:
        """True if ``name`` is a primary input."""
        return name in self._input_set

    def gate(self, name: str) -> Gate:
        """Return the gate driving signal ``name`` (raises for inputs)."""
        try:
            return self._gates[name]
        except KeyError:
            raise NetlistError(f"{name!r} is not a gate output") from None

    def fanins(self, name: str) -> tuple[str, ...]:
        """Fanin signals of ``name`` (empty for primary inputs)."""
        if name in self._input_set:
            return ()
        return self.gate(name).fanins

    def num_gates(self) -> int:
        """Number of gates in the network."""
        return len(self._gates)

    def signals(self) -> Iterator[str]:
        """All signals: inputs first, then gates in insertion order."""
        yield from self._inputs
        yield from self._gates

    # ----------------------------------------------------------------- graphs
    def topological_order(self) -> list[str]:
        """All signals in topological order (inputs before their fanouts).

        Raises :class:`NetlistError` if the network contains a combinational
        cycle.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        order: list[str] = list(self._inputs)
        indeg: dict[str, int] = {}
        fanouts: dict[str, list[str]] = {s: [] for s in self.signals()}
        for g in self._gates.values():
            distinct = set(g.fanins)
            indeg[g.name] = len(distinct)
            for f in distinct:
                fanouts[f].append(g.name)
        frontier = list(self._inputs)
        frontier.extend(
            g.name for g in self._gates.values() if indeg[g.name] == 0
        )
        seen_zero = set(frontier)
        queue = list(frontier)
        order = []
        while queue:
            s = queue.pop()
            order.append(s)
            for succ in fanouts[s]:
                indeg[succ] -= 1
                if indeg[succ] == 0 and succ not in seen_zero:
                    seen_zero.add(succ)
                    queue.append(succ)
        if len(order) != len(self._inputs) + len(self._gates):
            raise NetlistError(
                f"network {self.name!r} contains a combinational cycle"
            )
        self._topo_cache = order
        return order

    def fanouts(self, name: str) -> tuple[str, ...]:
        """Gate outputs that ``name`` feeds directly."""
        if self._fanouts_cache is None:
            table: dict[str, list[str]] = {s: [] for s in self.signals()}
            for g in self._gates.values():
                for f in set(g.fanins):
                    table[f].append(g.name)
            self._fanouts_cache = {k: tuple(v) for k, v in table.items()}
        try:
            return self._fanouts_cache[name]
        except KeyError:
            raise NetlistError(f"unknown signal {name!r}") from None

    def transitive_fanin(self, signals: Iterable[str]) -> set[str]:
        """All signals (inclusive) in the transitive fanin of ``signals``."""
        seen: set[str] = set()
        stack = list(signals)
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            if not self.has_signal(s):
                raise NetlistError(f"unknown signal {s!r}")
            seen.add(s)
            stack.extend(self.fanins(s))
        return seen

    def support(self, signal: str) -> list[str]:
        """Primary inputs in the transitive fanin of ``signal``, in PI order."""
        cone = self.transitive_fanin([signal])
        return [x for x in self._inputs if x in cone]

    # ------------------------------------------------------------- evaluation
    def evaluate(self, assignment: Mapping[str, bool]) -> dict[str, bool]:
        """Evaluate the whole network on a PI assignment.

        Returns the value of every signal.  Missing PI values raise
        :class:`NetlistError`.
        """
        values: dict[str, bool] = {}
        for x in self._inputs:
            if x not in assignment:
                raise NetlistError(f"missing value for input {x!r}")
            values[x] = bool(assignment[x])
        for s in self.topological_order():
            if s in values:
                continue
            g = self._gates[s]
            values[s] = evaluate(g.gtype, tuple(values[f] for f in g.fanins))
        return values

    def output_values(self, assignment: Mapping[str, bool]) -> dict[str, bool]:
        """Evaluate and return primary output values only."""
        values = self.evaluate(assignment)
        return {o: values[o] for o in self._outputs}

    # -------------------------------------------------------------- transform
    def copy(self, name: str | None = None) -> "Network":
        """Deep-enough copy (gates are immutable) with an optional new name."""
        net = Network(name or self.name)
        for x in self._inputs:
            net.add_input(x)
        for s in self.topological_order():
            if s in self._gates:
                g = self._gates[s]
                net.add_gate(g.name, g.gtype, g.fanins, g.delay)
        net.set_outputs(self._outputs)
        return net

    def with_delays(self, delay_fn: Callable[[Gate], float],
                    name: str | None = None) -> "Network":
        """Copy of this network with every gate delay recomputed by ``delay_fn``."""
        net = Network(name or self.name)
        for x in self._inputs:
            net.add_input(x)
        for s in self.topological_order():
            if s in self._gates:
                g = self._gates[s]
                net.add_gate(g.name, g.gtype, g.fanins, delay_fn(g))
        net.set_outputs(self._outputs)
        return net

    def extract_cone(self, output: str, name: str | None = None) -> "Network":
        """Sub-network computing ``output`` from its supporting PIs.

        The cone's primary inputs are exactly the PIs in the transitive
        fanin of ``output``, in the original PI order; its single primary
        output is ``output``.
        """
        cone_signals = self.transitive_fanin([output])
        net = Network(name or f"{self.name}.cone.{output}")
        for x in self._inputs:
            if x in cone_signals:
                net.add_input(x)
        for s in self.topological_order():
            if s in cone_signals and s in self._gates:
                g = self._gates[s]
                net.add_gate(g.name, g.gtype, g.fanins, g.delay)
        net.set_outputs([output])
        return net

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network({self.name!r}, inputs={len(self._inputs)}, "
            f"gates={len(self._gates)}, outputs={len(self._outputs)})"
        )
