"""The *plan* half of the kernel: compile timing graphs to flat arrays.

The paper's improved algorithm (Section 5) and the two-step analyzer
(Section 3.2) both walk a timing graph per node, per scenario.  Timing
model extraction work (Li et al.) amortizes one compiled interface over
many evaluation contexts; this module does the same for our propagation:
a :class:`CompiledGraph` freezes the topologically-ordered node list,
the CSR-style fan-in adjacency, and the per-instance tuple delay
matrices into flat arrays, so the executor (:mod:`repro.kernel.execute`)
can evaluate ``min over tuples of max over entries (value[src] + delay)``
for a whole batch of arrival-time scenarios without touching a dict or a
:class:`~repro.core.timing_model.TimingModel` again.

Two compilers produce the same plan shape:

* :func:`compile_design` — a depth-1 hierarchical design whose node
  tuples come from per-instance timing models (Step-2 propagation);
* :func:`compile_network` — a flat gate network whose nodes are single
  max-plus tuples (topological STA).

Results are bit-identical to per-node walks over the same models: the
same float additions, maxima, and minima are performed on the same
values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Mapping

from repro.errors import AnalysisError
from repro.netlist.hierarchy import HierDesign
from repro.netlist.network import Network
from repro.obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.timing_model import TimingModel

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class CompiledGraph:
    """A timing graph lowered to flat arrays.

    ``nets`` is the evaluation order: the first :attr:`n_inputs` entries
    are primary inputs whose values come from the scenario; every later
    net (a *node*) is computed as ``min over its tuples of max over each
    tuple's entries (value[src] + delay)``.

    CSR layout: node ``k`` (net index ``n_inputs + k``) owns tuples
    ``tup_start[k]:tup_start[k+1]``; tuple ``t`` owns entries
    ``ent_start[t]:ent_start[t+1]``; entry ``e`` reads net
    ``ent_src[e]`` and adds ``ent_delay[e]``.  Entries exist only for
    finite delays.  A node with *zero* tuples is constant ``-inf``: the
    compiler collapses any model containing an all-``-inf`` tuple (which
    certifies stability unconditionally) to that form.

    ``node_level[k]`` is node ``k``'s topological level: one more than
    its deepest source's, where inputs and constant nodes are level 0.
    The nodes of one level read only earlier levels.
    """

    name: str
    nets: tuple[str, ...]
    n_inputs: int
    tup_start: tuple[int, ...]
    ent_start: tuple[int, ...]
    ent_src: tuple[int, ...]
    ent_delay: tuple[float, ...]
    net_index: Mapping[str, int] = field(repr=False)
    node_level: tuple[int, ...] = field(repr=False)
    #: Optional delay-group labels (module names for a compiled design,
    #: gate types for a flat network); empty when the compiler recorded
    #: no grouping.  Scenario families use them for per-model scaling.
    groups: tuple[str, ...] = ()
    #: Per-entry index into :attr:`groups` (same length as
    #: :attr:`ent_delay` when present, empty otherwise).
    ent_group: tuple[int, ...] = ()

    @property
    def n_nodes(self) -> int:
        """Computed (non-input) net count."""
        return len(self.nets) - self.n_inputs

    @property
    def n_tuples(self) -> int:
        """Total timing-tuple count across all nodes."""
        return len(self.ent_start) - 1

    @property
    def n_entries(self) -> int:
        """Total finite-delay entry count across all tuples."""
        return len(self.ent_src)

    @cached_property
    def n_levels(self) -> int:
        """Topological levels holding a computed node (0 when every
        node is constant)."""
        return max(self.node_level, default=0)

    def group_factors(
        self,
        default: float = 1.0,
        by_group: Mapping[str, float] | None = None,
    ) -> list[float]:
        """Per-entry delay multipliers for plan-time scaling.

        Every entry whose group label appears in ``by_group`` gets that
        factor; every other entry gets ``default``.  This is the scaling
        hook scenario families (multi-corner sweeps, parametric delays,
        Monte-Carlo means) lower through: the returned list aligns with
        :attr:`ent_delay`, so ``base * factor`` per entry is a complete
        corner.  Naming a group the plan does not have raises
        :class:`~repro.errors.AnalysisError` (catches corner-spec typos).
        """
        overrides = dict(by_group or {})
        if not overrides:
            return [float(default)] * self.n_entries
        if not self.ent_group:
            raise AnalysisError(
                f"plan {self.name!r} carries no delay-group metadata; "
                "per-group scaling needs a plan from compile_design or "
                "compile_network"
            )
        unknown = sorted(set(overrides) - set(self.groups))
        if unknown:
            raise AnalysisError(
                f"unknown delay group {unknown[0]!r}; plan "
                f"{self.name!r} has groups {sorted(self.groups)}"
            )
        per_group = [
            float(overrides.get(g, default)) for g in self.groups
        ]
        return [per_group[gi] for gi in self.ent_group]

    def validate(self) -> None:
        """Check the CSR invariants (tests and debugging)."""
        if len(self.tup_start) != self.n_nodes + 1:
            raise AnalysisError("tup_start length mismatch")
        if self.ent_group and len(self.ent_group) != self.n_entries:
            raise AnalysisError("ent_group length mismatch")
        if any(
            not (0 <= gi < len(self.groups)) for gi in self.ent_group
        ):
            raise AnalysisError("ent_group indexes past groups")
        if len(self.node_level) != self.n_nodes:
            raise AnalysisError("node_level length mismatch")
        if self.tup_start[0] != 0 or self.ent_start[0] != 0:
            raise AnalysisError("CSR arrays must start at 0")
        if list(self.tup_start) != sorted(self.tup_start):
            raise AnalysisError("tup_start must be non-decreasing")
        if list(self.ent_start) != sorted(self.ent_start):
            raise AnalysisError("ent_start must be non-decreasing")
        if self.tup_start[-1] != self.n_tuples:
            raise AnalysisError("tup_start does not cover all tuples")
        if self.ent_start[-1] != self.n_entries:
            raise AnalysisError("ent_start does not cover all entries")
        level = [0] * self.n_inputs + list(self.node_level)
        for k in range(self.n_nodes):
            node_net = self.n_inputs + k
            top = -1
            for t in range(self.tup_start[k], self.tup_start[k + 1]):
                lo, hi = self.ent_start[t], self.ent_start[t + 1]
                if lo == hi:
                    raise AnalysisError(
                        f"tuple {t} of node {k} is empty (should have "
                        "been collapsed to a constant node)"
                    )
                for e in range(lo, hi):
                    if not (0 <= self.ent_src[e] < node_net):
                        raise AnalysisError(
                            f"entry {e} of node {k} reads net "
                            f"{self.ent_src[e]}, not strictly earlier "
                            f"than {node_net}"
                        )
                    top = max(top, level[self.ent_src[e]])
            if level[node_net] != top + 1:
                raise AnalysisError(
                    f"node {k} is at level {level[node_net]}, "
                    f"expected {top + 1}"
                )


class _GraphBuilder:
    """Accumulates nodes for a :class:`CompiledGraph`."""

    def __init__(self, name: str, inputs: tuple[str, ...]):
        self.name = name
        self.nets: list[str] = list(inputs)
        self.net_index: dict[str, int] = {
            net: i for i, net in enumerate(inputs)
        }
        if len(self.net_index) != len(self.nets):
            raise AnalysisError("duplicate primary input net")
        self.n_inputs = len(self.nets)
        self.tup_start: list[int] = [0]
        self.ent_start: list[int] = [0]
        self.ent_src: list[int] = []
        self.ent_delay: list[float] = []
        #: Topological level per net (inputs are level 0).
        self.level: list[int] = [0] * self.n_inputs
        self.groups: list[str] = []
        self.group_index: dict[str, int] = {}
        self.ent_group: list[int] = []
        #: Nodes collapsed to constant ``-inf`` (an all-``-inf`` tuple
        #: certified stability unconditionally) — forensics telemetry.
        self.collapsed = 0

    def add_node(
        self,
        net: str,
        tuples: list[list[tuple[int, float]]],
        group: str = "",
    ) -> None:
        """Append one computed net.

        ``tuples`` holds per-tuple ``(source net index, delay)`` entry
        lists; an empty *entry list* marks an unconditional tuple, which
        collapses the node to constant ``-inf`` (zero tuples).
        ``group`` labels this node's entries for plan-time delay scaling
        (see :meth:`CompiledGraph.group_factors`).
        """
        if net in self.net_index:
            raise AnalysisError(f"net {net!r} has multiple drivers")
        if any(not entries for entries in tuples):
            tuples = []
            self.collapsed += 1
        gi = self.group_index.get(group)
        if gi is None:
            gi = self.group_index[group] = len(self.groups)
            self.groups.append(group)
        level = self.level
        top = -1
        for entries in tuples:
            for src, delay in entries:
                if delay != delay or delay == POS_INF:
                    raise AnalysisError(
                        f"net {net!r}: non-finite delay {delay!r}"
                    )
                self.ent_src.append(src)
                self.ent_delay.append(float(delay))
                self.ent_group.append(gi)
                if level[src] > top:
                    top = level[src]
            self.ent_start.append(len(self.ent_src))
        self.tup_start.append(len(self.ent_start) - 1)
        level.append(top + 1)
        self.net_index[net] = len(self.nets)
        self.nets.append(net)

    def build(self) -> CompiledGraph:
        """Freeze the accumulated arrays into a :class:`CompiledGraph`."""
        return CompiledGraph(
            name=self.name,
            nets=tuple(self.nets),
            n_inputs=self.n_inputs,
            tup_start=tuple(self.tup_start),
            ent_start=tuple(self.ent_start),
            ent_src=tuple(self.ent_src),
            ent_delay=tuple(self.ent_delay),
            net_index=self.net_index,
            node_level=tuple(self.level[self.n_inputs:]),
            groups=tuple(self.groups),
            ent_group=tuple(self.ent_group),
        )


def _note_compile(
    tracer: Tracer, builder: _GraphBuilder, graph: CompiledGraph,
    seconds: float,
) -> None:
    """Emit the ``kernel-compile`` event and plan-shape gauges.

    ``phase=None`` deliberately: compilation happens inside spans that
    already own their phase time, so a phase here would double-count.
    """
    tracer.event(
        "kernel-compile",
        seconds=seconds,
        graph=graph.name,
        nets=len(graph.nets),
        nodes=graph.n_nodes,
        tuples=graph.n_tuples,
        entries=graph.n_entries,
        collapsed=builder.collapsed,
    )
    tracer.count("kernel.compiles")
    tracer.observe("kernel.compile_seconds", seconds)
    tracer.gauge("kernel.plan.nets", len(graph.nets))
    tracer.gauge("kernel.plan.nodes", graph.n_nodes)
    tracer.gauge("kernel.plan.tuples", graph.n_tuples)
    tracer.gauge("kernel.plan.entries", graph.n_entries)
    tracer.gauge("kernel.plan.collapsed_nodes", builder.collapsed)


def compile_design(
    design: HierDesign,
    instance_models: Callable[[str], Mapping[str, "TimingModel"]],
    tracer: Tracer = NULL_TRACER,
) -> CompiledGraph:
    """Compile a design's Step-2 propagation into a :class:`CompiledGraph`.

    ``instance_models`` maps an *instance name* to the timing models of
    that instance's output ports — the shared per-module models of the
    two-step analyzer, or the SDC-aware per-instance models of
    :class:`~repro.core.instance_models.PerInstanceAnalyzer`.  Node order
    follows ``design.instance_order()``.
    """
    start = time.perf_counter() if tracer.enabled else 0.0
    design.validate()
    builder = _GraphBuilder(design.name, design.inputs)
    for inst_name in design.instance_order():
        inst = design.instances[inst_name]
        module = design.module_of(inst)
        models = instance_models(inst_name)
        for port in module.outputs:
            model = models[port]
            tuples: list[list[tuple[int, float]]] = []
            for tup in model.tuples:
                entries = []
                for x, delay in zip(model.inputs, tup):
                    if delay == NEG_INF:
                        continue
                    entries.append(
                        (builder.net_index[inst.net_of(x)], delay)
                    )
                tuples.append(entries)
            builder.add_node(inst.net_of(port), tuples, group=module.name)
    graph = builder.build()
    missing = [o for o in design.outputs if o not in graph.net_index]
    if missing:
        raise AnalysisError(f"undriven outputs {missing!r}")
    if tracer.enabled:
        _note_compile(tracer, builder, graph, time.perf_counter() - start)
    return graph


def compile_network(
    network: Network, tracer: Tracer = NULL_TRACER
) -> CompiledGraph:
    """Compile flat topological STA into a :class:`CompiledGraph`.

    Every gate becomes a single-tuple node whose entries carry the gate
    delay from each fanin (``max over fanins (arrival + delay)``, which
    equals ``max(arrivals) + delay``).  Gates with no fanins (constants)
    become ``-inf`` nodes, matching
    :func:`repro.sta.topological.arrival_times`.
    """
    start = time.perf_counter() if tracer.enabled else 0.0
    builder = _GraphBuilder(network.name, tuple(network.inputs))
    for sig in network.topological_order():
        if network.is_input(sig):
            continue
        gate = network.gate(sig)
        entries = [
            (builder.net_index[f], gate.delay) for f in gate.fanins
        ]
        builder.add_node(
            sig, [entries] if entries else [], group=gate.gtype.value
        )
    graph = builder.build()
    if tracer.enabled:
        _note_compile(tracer, builder, graph, time.perf_counter() - start)
    return graph
