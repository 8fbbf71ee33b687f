"""Compiled demand-driven timing graph with incremental re-propagation.

The Section-5 loop of :mod:`repro.core.demand` needs a forward/backward
STA pass after every accepted refinement.  This module compiles its
timing graph (vertices = top-level nets, edges = module pin pairs with
mutable weights) into index-based adjacency arrays, and keeps
per-scenario arrival/required state that can *reflow* incrementally:
when a refinement lowers the weight of some edges, only the affected
cone is re-evaluated — a worklist ordered by topological node index
walks forward from the dirty edges' heads, and (unless the deadline
moved) a reverse worklist walks backward from their tails.

Incremental results are bit-identical to a full re-propagation
(:meth:`GraphState.run_full`): each touched node is recomputed from
scratch with the same float operations, and an untouched node's inputs
are unchanged by construction.
"""

from __future__ import annotations

import heapq
import time
from typing import Hashable, Iterable, Mapping, Sequence

from repro.errors import AnalysisError
from repro.obs.trace import NULL_TRACER, Tracer

NEG_INF = float("-inf")
POS_INF = float("inf")


class CompiledTimingGraph:
    """Index-based timing graph shared by every scenario of a batch.

    Nets are numbered in the (topological) order given; each edge ``e``
    runs ``edge_src[e] -> edge_dst[e]`` with mutable ``edge_weight[e]``
    and an opaque ``edge_key[e]`` grouping edges that refine together
    (every instance of one module pin pair).  Weights may only decrease
    over the graph's lifetime — the refinement loop's invariant.
    """

    def __init__(
        self,
        nets: Sequence[str],
        edges: Iterable[tuple[str, str, Hashable, float]],
        inputs: Sequence[str],
        outputs: Sequence[str],
    ):
        self.nets: tuple[str, ...] = tuple(nets)
        self.net_index: dict[str, int] = {
            net: i for i, net in enumerate(self.nets)
        }
        if len(self.net_index) != len(self.nets):
            raise AnalysisError("duplicate net in timing graph")
        self.n_inputs = len(inputs)
        for i, net in enumerate(inputs):
            if self.net_index.get(net) != i:
                raise AnalysisError(
                    "graph nets must start with the primary inputs in order"
                )
        self.output_idx: tuple[int, ...] = tuple(
            self.net_index[o] for o in outputs
        )
        self.is_output = [False] * len(self.nets)
        for i in self.output_idx:
            self.is_output[i] = True
        self.edge_src: list[int] = []
        self.edge_dst: list[int] = []
        self.edge_weight: list[float] = []
        self.edge_key: list[Hashable] = []
        self.key_edges: dict[Hashable, list[int]] = {}
        self.in_edges: list[list[int]] = [[] for _ in self.nets]
        self.out_edges: list[list[int]] = [[] for _ in self.nets]
        for src, dst, key, weight in edges:
            s, d = self.net_index[src], self.net_index[dst]
            if not s < d:
                raise AnalysisError(
                    f"edge {src!r} -> {dst!r} violates topological order"
                )
            eid = len(self.edge_src)
            self.edge_src.append(s)
            self.edge_dst.append(d)
            self.edge_weight.append(float(weight))
            self.edge_key.append(key)
            self.key_edges.setdefault(key, []).append(eid)
            self.in_edges[d].append(eid)
            self.out_edges[s].append(eid)

    @property
    def n_edges(self) -> int:
        """Total edge count."""
        return len(self.edge_src)

    def set_key_weight(self, key: Hashable, weight: float) -> list[int]:
        """Lower every edge carrying ``key`` to ``weight``.

        Returns the affected edge ids (the dirty region seed for
        :meth:`GraphState.reflow`).  Raising a weight is rejected: the
        incremental passes rely on monotone tightening.
        """
        eids = self.key_edges.get(key)
        if not eids:
            raise AnalysisError(f"unknown edge key {key!r}")
        for eid in eids:
            if weight > self.edge_weight[eid]:
                raise AnalysisError(
                    f"edge key {key!r}: weight may only decrease "
                    f"({self.edge_weight[eid]:g} -> {weight:g})"
                )
            self.edge_weight[eid] = float(weight)
        return list(eids)


class GraphState:
    """Arrival/required/slack state of one scenario over a shared graph.

    Construct, :meth:`run_full` once, then :meth:`reflow` after each
    weight change.  ``at``/``rt`` are indexed by net; :attr:`deadline`
    is the latest primary-output arrival (the implicit requirement the
    paper asserts at every primary output).
    """

    def __init__(
        self,
        graph: CompiledTimingGraph,
        arrival: Mapping[str, float],
        tracer: Tracer = NULL_TRACER,
    ):
        self.graph = graph
        self.tracer = tracer
        self.at: list[float] = [0.0] * len(graph.nets)
        self.rt: list[float] = [POS_INF] * len(graph.nets)
        self.deadline: float = NEG_INF
        for i in range(graph.n_inputs):
            self.at[i] = float(arrival.get(graph.nets[i], 0.0))
        #: Nodes recomputed by incremental passes since run_full — a
        #: cheap effort probe for tests and tracing.
        self.reflow_forward_nodes = 0
        self.reflow_backward_nodes = 0
        self.full_backward_passes = 0

    # ---------------------------------------------------------------- kernels
    def _recompute_at(self, n: int) -> float:
        g = self.graph
        at = self.at
        terms = []
        for eid in g.in_edges[n]:
            w = g.edge_weight[eid]
            if w == NEG_INF:
                continue
            a = at[g.edge_src[eid]]
            if a == NEG_INF:
                continue
            terms.append(a + w)
        return max(terms) if terms else NEG_INF

    def _recompute_rt(self, n: int) -> float:
        g = self.graph
        rt = self.rt
        best = self.deadline if g.is_output[n] else POS_INF
        for eid in g.out_edges[n]:
            w = g.edge_weight[eid]
            if w == NEG_INF:
                continue
            budget = rt[g.edge_dst[eid]] - w
            if budget < best:
                best = budget
        return best

    # ------------------------------------------------------------------- full
    def run_full(self) -> None:
        """Full forward + backward propagation."""
        g = self.graph
        tracer = self.tracer
        start = time.perf_counter() if tracer.enabled else 0.0
        for n in range(g.n_inputs, len(g.nets)):
            self.at[n] = self._recompute_at(n)
        self.deadline = max(
            (self.at[i] for i in g.output_idx), default=NEG_INF
        )
        self._backward_full()
        if tracer.enabled:
            # phase=None: the caller's sta-pass span owns this interval.
            tracer.event(
                "kernel-propagate",
                seconds=time.perf_counter() - start,
                graph="timing-graph",
                backend="graph",
                nets=len(g.nets),
                edges=g.n_edges,
                scenarios=1,
            )
            tracer.count("kernel.full_passes")

    def _backward_full(self) -> None:
        g = self.graph
        self.full_backward_passes += 1
        for n in range(len(g.nets) - 1, -1, -1):
            self.rt[n] = self._recompute_rt(n)

    # ------------------------------------------------------------ incremental
    def reflow(self, dirty_edges: Iterable[int]) -> None:
        """Re-propagate only the cone affected by the given dirty edges.

        Forward: a worklist (min-heap on node index, so every node is
        finalized after its predecessors) starts at the dirty edges'
        head nodes and follows fan-out only where an arrival actually
        changed.  If the deadline moved, every required time may shift
        and the backward pass runs in full; otherwise a mirrored reverse
        worklist starts at the dirty edges' tail nodes.
        """
        g = self.graph
        tracer = self.tracer
        dirty_edges = list(dirty_edges)
        if tracer.enabled:
            start = time.perf_counter()
            fwd0 = self.reflow_forward_nodes
            bwd0 = self.reflow_backward_nodes
            full0 = self.full_backward_passes
        heap: list[int] = []
        queued: set[int] = set()
        for eid in dirty_edges:
            d = g.edge_dst[eid]
            if d not in queued:
                queued.add(d)
                heapq.heappush(heap, d)
        while heap:
            n = heapq.heappop(heap)
            queued.discard(n)
            self.reflow_forward_nodes += 1
            new = self._recompute_at(n)
            if new == self.at[n]:
                continue
            self.at[n] = new
            for eid in g.out_edges[n]:
                d = g.edge_dst[eid]
                if d not in queued:
                    queued.add(d)
                    heapq.heappush(heap, d)
        deadline = max(
            (self.at[i] for i in g.output_idx), default=NEG_INF
        )
        if deadline != self.deadline:
            self.deadline = deadline
            self._backward_full()
        else:
            rheap: list[int] = []
            rqueued: set[int] = set()
            for eid in dirty_edges:
                s = g.edge_src[eid]
                if s not in rqueued:
                    rqueued.add(s)
                    heapq.heappush(rheap, -s)
            while rheap:
                n = -heapq.heappop(rheap)
                rqueued.discard(n)
                self.reflow_backward_nodes += 1
                new = self._recompute_rt(n)
                if new == self.rt[n]:
                    continue
                self.rt[n] = new
                for eid in g.in_edges[n]:
                    s = g.edge_src[eid]
                    if s not in rqueued:
                        rqueued.add(s)
                        heapq.heappush(rheap, -s)
        if tracer.enabled:
            # phase=None: reflows run inside refinement-owned intervals.
            tracer.event(
                "kernel-reflow",
                seconds=time.perf_counter() - start,
                dirty_edges=len(dirty_edges),
                forward_nodes=self.reflow_forward_nodes - fwd0,
                backward_nodes=self.reflow_backward_nodes - bwd0,
                full_backward=self.full_backward_passes - full0,
            )
            tracer.count("kernel.reflows")
            tracer.count(
                "kernel.reflow_forward_nodes",
                self.reflow_forward_nodes - fwd0,
            )
            tracer.count(
                "kernel.reflow_backward_nodes",
                self.reflow_backward_nodes - bwd0,
            )
            tracer.observe(
                "kernel.reflow_dirty_edges", len(dirty_edges)
            )

    # ---------------------------------------------------------------- queries
    def at_dict(self) -> dict[str, float]:
        """Arrival times keyed by net name."""
        return dict(zip(self.graph.nets, self.at))

    def rt_dict(self) -> dict[str, float]:
        """Required times keyed by net name."""
        return dict(zip(self.graph.nets, self.rt))

    def critical_edge_ids(self, eps: float = 1e-9) -> list[int]:
        """Edges with both endpoints at zero slack and the edge tight.

        Edge order matches construction order, so a driver iterating the
        result visits candidates in the paper's scan order (exactness
        filtering is the caller's).
        """
        g = self.graph
        at, rt = self.at, self.rt
        critical = []
        for eid in range(g.n_edges):
            w = g.edge_weight[eid]
            if w == NEG_INF:
                continue
            s, d = g.edge_src[eid], g.edge_dst[eid]
            if (
                abs(rt[s] - at[s]) < eps
                and abs(rt[d] - at[d]) < eps
                and abs(at[s] + w - at[d]) < eps
            ):
                critical.append(eid)
        return critical
