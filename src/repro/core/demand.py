"""Demand-driven hierarchical timing analysis (Section 5 of the paper).

Instead of fully characterizing every leaf module up front, start from a
*timing graph* whose vertices are module pins (merged with the top-level
nets they connect to) and whose edges carry the longest *topological*
pin-to-pin delay inside a leaf module.  Then:

1. Propagate arrivals forward; assert the latest primary-output arrival as
   the required time at every primary output; propagate required times
   backward; compute slacks.
2. Every *critical edge* (both endpoints slack 0 and the edge tight) is a
   candidate for refinement: ask whether the corresponding input-output
   delay inside the module survives false-path analysis.  The check sets
   the critical input's arrival to minus the *next smaller* distinct path
   length — with the other cone inputs at minus their *current* weights,
   a soundness refinement over the paper's literal wording (see
   ``_try_refine``) — and tests XBD0 stability of the cone output at
   t = 0.  Success lowers the edge weight **in every instance of the
   module**; failure marks the edge exact.
3. Iterate until every critical edge is marked.

Refinement state is memoized per ``(module, input port, output port)``, so
regular designs (many instances of one module) pay for each pin pair once
— the source of the large CPU wins in Table 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.result import AnalysisResultMixin, removed_alias
from repro.core.xbd0 import (
    StabilityAnalyzer,
    StabilityContext,
    reject_nan_arrivals,
)
from repro.errors import AnalysisError
from repro.kernel.graph import CompiledTimingGraph, GraphState
from repro.netlist.hierarchy import HierDesign
from repro.netlist.network import Network
from repro.obs.forensics import (
    ForensicsReport,
    OutputForensics,
    RefinementEvent,
)
from repro.obs.trace import ensure_tracer
from repro.resilience.degradation import Degradation, DegradationLog
from repro.resilience.policy import Deadline
from repro.sta.paths import distinct_path_lengths
from repro.sta.topological import pin_to_pin_delays

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api import AnalysisOptions
    from repro.core.batch import BatchResult

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Key identifying one refinable pin pair of a module (shared across
#: instances).
PinPair = tuple[str, str, str]  # (module name, input port, output port)


@dataclass
class _PinPairState:
    """Refinement state of one module pin pair."""

    #: Distinct path lengths inside the module, descending.
    lengths: tuple[float, ...]
    #: Index into ``lengths`` of the current weight.
    index: int = 0
    #: True once false-path analysis certified the current weight exact
    #: (or candidates ran out).
    exact: bool = False

    @property
    def weight(self) -> float:
        if not self.lengths:
            return NEG_INF
        return self.lengths[self.index]

    def next_candidate(self) -> float:
        """The next smaller distinct length, or -inf when exhausted."""
        if self.index + 1 < len(self.lengths):
            return self.lengths[self.index + 1]
        return NEG_INF


@dataclass(frozen=True)
class PinPairExplanation:
    """Provenance of one timing-graph edge weight (see ``explain_pin``)."""

    module: str
    input_port: str
    output_port: str
    #: Distinct topological path lengths, descending.
    distinct_lengths: tuple[float, ...]
    #: The weight the graph currently uses.
    effective_delay: float
    #: True once false-path analysis certified it cannot improve.
    proven_exact: bool
    #: The tighter candidate that failed (None if never refined/checked).
    rejected_candidate: float | None = None
    #: Input vector defeating the rejected candidate, if one was computed.
    witness: dict[str, bool] | None = None
    #: That vector's exact stable time under the rejected arrivals
    #: (positive = misses the deadline by that much).
    witness_stable_time: float | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lengths = ", ".join(f"{l:g}" for l in self.distinct_lengths)
        lines = [
            f"{self.module}: {self.input_port} -> {self.output_port}",
            f"  path lengths: [{lengths}]",
            f"  effective delay: {self.effective_delay:g}"
            f"{' (proven exact)' if self.proven_exact else ''}",
        ]
        if self.rejected_candidate is not None and self.witness:
            vec = ", ".join(
                f"{k}={int(v)}" for k, v in sorted(self.witness.items())
            )
            lines.append(
                f"  candidate {self.rejected_candidate:g} rejected by "
                f"vector ({vec})"
            )
        return "\n".join(lines)


@dataclass
class DemandDrivenResult(AnalysisResultMixin):
    """Outcome of a demand-driven analysis run."""

    #: Stable-time estimate of every vertex (top-level net).
    net_times: dict[str, float]
    #: Per primary output.
    output_times: dict[str, float]
    #: max over primary outputs.
    delay: float
    #: Purely topological estimate (the starting point).
    topological_delay: float
    #: Number of cone false-path (stability) checks performed.
    refinement_checks: int = 0
    #: Number of edge-weight improvements applied.
    refinements: int = 0
    #: Graph STA re-runs.
    sta_passes: int = 0
    #: Wall-clock seconds for the whole run.
    elapsed_seconds: float = 0.0
    #: Final weight per (module, input, output) pin pair that was refined
    #: below its topological value.
    refined_weights: dict[PinPair, float] = field(default_factory=dict)
    #: Required time per primary output (the implicit deadline, possibly
    #: tightened where an output also feeds another instance).
    required_times: dict[str, float] = field(default_factory=dict)
    #: Conservative fallbacks taken during this run (empty on a clean
    #: run); each entry is a :class:`~repro.resilience.Degradation`.
    degradations: tuple[Degradation, ...] = ()

    #: Removed spelling of :attr:`elapsed_seconds` (raises with a hint).
    seconds = removed_alias("seconds", "elapsed_seconds")

    @property
    def degraded(self) -> bool:
        """True when any conservative fallback was taken."""
        return bool(self.degradations)

    def _to_dict_extra(self) -> dict:
        return {
            "topological_delay": self.topological_delay,
            "refinement_checks": self.refinement_checks,
            "refinements": self.refinements,
            "sta_passes": self.sta_passes,
            "refined_weights": [
                {"module": m, "input": i, "output": o, "weight": w}
                for (m, i, o), w in sorted(self.refined_weights.items())
            ],
            "degradations": [d.as_dict() for d in self.degradations],
        }


class DemandDrivenAnalyzer:
    """Timing-graph based analyzer with lazy critical-edge refinement.

    Configured by an :class:`~repro.api.AnalysisOptions` bundle
    (``None`` means the defaults).  ``options.tracer`` receives one
    event per graph STA pass, per refinement step, and per
    second-longest-path query, plus edges-refined-vs-total counters —
    the Section-5 effort profile.
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
        self.tracer = ensure_tracer(options.tracer)
        self.dlog = DegradationLog(self.tracer)
        self._states: dict[PinPair, _PinPairState] = {}
        self._cones: dict[tuple[str, str], Network] = {}
        #: Shared incremental-SAT state per (module, output) cone, so
        #: successive checks on one cone reuse encodings and learnings.
        self._contexts: dict[tuple[str, str], StabilityContext] = {}
        self._forensics: ForensicsReport | None = None
        self._build_graph()

    # ------------------------------------------------------------------ graph
    def _build_graph(self) -> None:
        design = self.design
        #: edges: (src net, dst net, pin pair key)
        self.edges: list[tuple[str, str, PinPair]] = []
        self.nets: list[str] = list(design.inputs)
        seen_nets = set(self.nets)
        module_pairs: dict[str, list[tuple[str, str, float]]] = {}
        for name, module in design.modules.items():
            delays = {
                inp: pin_to_pin_delays(module.network, inp)
                for inp in module.inputs
            }
            pairs: list[tuple[str, str, float]] = []
            for out in module.outputs:
                for inp in module.inputs:
                    w = delays[inp].get(out, NEG_INF)
                    if w != NEG_INF:
                        pairs.append((inp, out, w))
            module_pairs[name] = pairs
        for inst_name in design.instance_order():
            inst = design.instances[inst_name]
            module = design.module_of(inst)
            for port in (*module.inputs, *module.outputs):
                net = inst.net_of(port)
                if net not in seen_nets:
                    seen_nets.add(net)
                    self.nets.append(net)
            for inp, out, w in module_pairs[inst.module_name]:
                key: PinPair = (inst.module_name, inp, out)
                if key not in self._states:
                    # Lengths are computed lazily per pin pair; seed with
                    # just the topological weight and extend on demand.
                    self._states[key] = _PinPairState(lengths=(w,))
                self.edges.append((inst.net_of(inp), inst.net_of(out), key))

    def _cone(self, module_name: str, output: str) -> Network:
        key = (module_name, output)
        if key not in self._cones:
            module = self.design.modules[module_name]
            self._cones[key] = module.network.extract_cone(output)
        return self._cones[key]

    def _full_lengths(self, key: PinPair) -> tuple[float, ...]:
        module_name, inp, out = key
        cone = self._cone(module_name, out)
        if not self.tracer.enabled:
            return distinct_path_lengths(cone, inp, out)
        t0 = time.perf_counter()
        lengths = distinct_path_lengths(cone, inp, out)
        self.tracer.count("demand.path_length_queries")
        # seconds are timed but not phase-attributed: this runs inside the
        # "refinement-step" interval, which owns the refinement phase time.
        self.tracer.event(
            "second-longest-path",
            seconds=time.perf_counter() - t0,
            module=module_name,
            input=inp,
            output=out,
            count=len(lengths),
        )
        return lengths

    # -------------------------------------------------------------------- STA
    def _compiled_graph(self) -> CompiledTimingGraph:
        """The timing graph lowered to index arrays, seeded with the
        current (possibly already refined) pin-pair weights."""
        t0 = time.perf_counter() if self.tracer.enabled else 0.0
        graph = CompiledTimingGraph(
            self.nets,
            (
                (src, dst, key, self._states[key].weight)
                for src, dst, key in self.edges
            ),
            self.design.inputs,
            self.design.outputs,
        )
        if self.tracer.enabled:
            self.tracer.event(
                "kernel-compile",
                seconds=time.perf_counter() - t0,
                graph="timing-graph",
                nets=len(graph.nets),
                edges=graph.n_edges,
                keys=len(graph.key_edges),
            )
            self.tracer.count("kernel.compiles")
        return graph

    def _note_sta_pass(self, t0: float, incremental: bool) -> None:
        """Trace one graph STA pass (full or incremental)."""
        if not self.tracer.enabled:
            return
        self.tracer.count("demand.sta_passes")
        self.tracer.event(
            "sta-pass",
            phase="propagation",
            seconds=time.perf_counter() - t0,
            nets=len(self.nets),
            edges=len(self.edges),
            incremental=incremental,
        )

    # ------------------------------------------------------------- refinement
    def _critical_edges(
        self, state: GraphState
    ) -> list[tuple[str, str, PinPair]]:
        """Critical edges whose pin pair is not yet proven exact, in
        scan order (the compiled graph numbers edges like
        :attr:`edges`)."""
        critical = []
        for eid in state.critical_edge_ids():
            edge = self.edges[eid]
            if not self._states[edge[2]].exact:
                critical.append(edge)
        return critical

    def _ensure_lengths(self, key: PinPair) -> None:
        """Lazily expand the seed into the full distinct-length list."""
        state = self._states[key]
        if len(state.lengths) == 1 and state.index == 0:
            full = self._full_lengths(key)
            if full:
                state.lengths = full

    def _check_arrival(self, key: PinPair, candidate: float) -> dict:
        """The arrival condition of one refinement check.

        The critical input sits at minus the candidate; the other cone
        inputs at minus their *current* weights (see ``_try_refine``).
        """
        module_name, inp, out = key
        cone = self._cone(module_name, out)
        arrival = {}
        for x in cone.inputs:
            if x == inp:
                arrival[x] = POS_INF if candidate == NEG_INF else -candidate
            else:
                w = self._states[(module_name, x, out)].weight
                arrival[x] = POS_INF if w == NEG_INF else -w
        return arrival

    def _context_for(self, key: PinPair) -> StabilityContext:
        """The cone's shared context."""
        module_name, _inp, out = key
        ckey = (module_name, out)
        context = self._contexts.get(ckey)
        if context is None:
            context = self._contexts[ckey] = StabilityContext()
        return context

    def _run_check(self, key: PinPair, candidate: float) -> bool:
        """Decide one refinement check on the cone's shared context."""
        module_name, _inp, out = key
        analyzer = StabilityAnalyzer(
            self._cone(module_name, out),
            self._check_arrival(key, candidate),
            tracer=self.tracer,
            context=self._context_for(key),
        )
        return analyzer.stable_at(out, 0.0)

    def _try_refine(self, key: PinPair) -> bool:
        """One Section-5 refinement step; True if the weight improved.

        Soundness refinement over the paper's literal description: the
        other cone inputs are placed at minus their *current* (possibly
        already refined) weights, not their topological longest paths.
        Every accepted check therefore validates the cone's entire weight
        vector at once; with others at topological offsets, two
        independently refined inputs of one output could combine into an
        arrival vector that was never checked, breaking conservativeness
        (found by the Theorem-1 property test on random bipartitions).
        By monotone speedup the validated vector then bounds any arrival
        condition the timing graph can present.
        """
        module_name, inp, out = key
        t0 = time.perf_counter() if self.tracer.enabled else 0.0
        state = self._states[key]
        self._ensure_lengths(key)
        candidate = state.next_candidate()
        self._checks += 1
        improved = self._run_check(key, candidate)
        if improved:
            if candidate == NEG_INF:
                state.lengths = ()
                state.index = 0
                state.exact = True
            else:
                state.index += 1
                if state.index + 1 >= len(state.lengths):
                    # keep going next round with candidate -inf
                    pass
            self._refinements += 1
        else:
            state.exact = True
        if self.tracer.enabled:
            self.tracer.count("demand.refinement_checks")
            if improved:
                self.tracer.count("demand.edges_refined")
            self.tracer.event(
                "refinement-step",
                phase="refinement",
                seconds=time.perf_counter() - t0,
                module=module_name,
                input=inp,
                output=out,
                candidate=None if candidate == NEG_INF else candidate,
                improved=improved,
            )
        return improved

    def _try_refine_guarded(self, key: PinPair) -> bool:
        """One refinement step that degrades instead of raising.

        ``_try_refine`` mutates pin-pair state only after the stability
        check returns, so an exception mid-check leaves the current
        (conservative) weight untouched; marking the pair exact then
        just stops re-attempting it — Theorem 1 keeps the result sound.
        """
        module_name, inp, out = key
        try:
            plan = self.options.fault_plan
            if plan is not None:
                plan.fire(
                    "demand.refine", module=module_name, input=inp, output=out
                )
            return self._try_refine(key)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._states[key].exact = True
            self.dlog.record(
                "refinement-error",
                f"{module_name}:{inp}->{out}",
                str(exc) or type(exc).__name__,
                "keep-current-weight",
            )
            return False

    # ------------------------------------------------------------- explain
    def explain_pin(
        self, module_name: str, inp: str, out: str
    ) -> "PinPairExplanation":
        """Why does this pin pair carry its current effective delay?

        Reports the distinct path lengths, the current (possibly refined)
        weight, and — when a tighter candidate was rejected — a *witness
        vector* for which the cone output genuinely misses the deadline
        under the rejected arrival condition, plus that vector's exact
        per-vector stable time.  Call after :meth:`analyze`.
        """
        key: PinPair = (module_name, inp, out)
        if key not in self._states:
            raise AnalysisError(
                f"no topological path {inp!r} -> {out!r} in {module_name!r}"
            )
        state = self._states[key]
        lengths = self._full_lengths(key)
        witness = None
        witness_stable = None
        next_candidate = None
        if state.exact and state.weight != NEG_INF:
            # Reproduce the rejected check and extract its witness.
            next_candidate = state.next_candidate()
            cone = self._cone(module_name, out)
            arrival = self._check_arrival(key, next_candidate)
            analyzer = StabilityAnalyzer(cone, arrival)
            witness = analyzer.unstable_witness(out, 0.0)
            if witness is not None:
                from repro.sim.timed import vector_output_delay

                finite = {
                    x: t for x, t in arrival.items() if t != POS_INF
                }
                never = [x for x, t in arrival.items() if t == POS_INF]
                if not never:
                    witness_stable = vector_output_delay(
                        cone, witness, out, finite
                    )
        return PinPairExplanation(
            module=module_name,
            input_port=inp,
            output_port=out,
            distinct_lengths=lengths,
            effective_delay=state.weight,
            proven_exact=state.exact,
            rejected_candidate=next_candidate,
            witness=witness,
            witness_stable_time=witness_stable,
        )

    # ------------------------------------------------------------------ drive
    def analyze(
        self, arrival: Mapping[str, float] | None = None
    ) -> DemandDrivenResult:
        """Run the full Section-5 loop under the given arrival times.

        The timing graph is compiled once per run (seeded with the
        current, possibly already refined, weights); one full STA pass
        follows, and each accepted refinement lowers its pin pair's
        edges and reflows only the affected cone.  A NaN arrival raises
        :class:`~repro.errors.AnalysisError`.
        """
        arrival = arrival or {}
        reject_nan_arrivals(arrival)
        start = time.perf_counter()
        mark = len(self.dlog)
        deadline = Deadline(self.options.deadline)
        budget = self.options.refine_budget
        self._checks = 0
        self._refinements = 0
        graph = self._compiled_graph()
        state = GraphState(graph, arrival, tracer=self.tracer)
        t0 = time.perf_counter() if self.tracer.enabled else 0.0
        state.run_full()
        self._note_sta_pass(t0, incremental=False)
        passes = 1
        outputs = tuple(self.design.outputs)
        output_idx = [graph.net_index[o] for o in outputs]

        def output_at() -> dict[str, float]:
            return {o: state.at[i] for o, i in zip(outputs, output_idx)}

        # Forensics: arrivals under the run's starting weights (the
        # Theorem-1 topological bound on a fresh analyzer) plus every
        # accepted refinement's exact per-output arrival movement.
        # Recorded unconditionally — pure observation, one snapshot per
        # accepted refinement.
        topo_at = output_at()
        events: list[RefinementEvent] = []
        exhausted = None
        while exhausted is None:
            critical = self._critical_edges(state)
            if not critical:
                break
            if self.tracer.enabled:
                self.tracer.count("demand.critical_edges", len(critical))
            improved_key = None
            weight_before = NEG_INF
            for _src, _dst, key in critical:
                if self._states[key].exact:
                    continue
                if self.tracer.enabled:
                    self.tracer.count("demand.edges_examined")
                if deadline.limited and deadline.expired():
                    exhausted = (
                        "deadline",
                        f"run deadline expired after "
                        f"{deadline.elapsed():.3f}s",
                    )
                    break
                if budget is not None and self._checks >= budget:
                    exhausted = (
                        "refinement-budget",
                        f"refinement budget {budget} exhausted",
                    )
                    break
                weight_before = self._states[key].weight
                if self._try_refine_guarded(key):
                    improved_key = key
                    break  # re-run STA immediately, as the paper iterates
            if exhausted is not None:
                kind, detail = exhausted
                # Unrefined edges keep their current (topological or
                # partially refined) weights — conservative by Theorem 1.
                unrefined = sum(
                    1 for _s, _d, k in critical if not self._states[k].exact
                )
                self.dlog.record(
                    kind,
                    self.design.name,
                    f"{detail}; {unrefined} critical edges left unrefined",
                    "keep-current-weights",
                )
                break
            if improved_key is None:
                break
            before_at = output_at()
            delay_before = max(before_at.values(), default=NEG_INF)
            t0 = time.perf_counter() if self.tracer.enabled else 0.0
            weight_after = self._states[improved_key].weight
            state.reflow(graph.set_key_weight(improved_key, weight_after))
            self._note_sta_pass(t0, incremental=True)
            passes += 1
            after_at = output_at()
            delay_after = max(after_at.values(), default=NEG_INF)
            module_name, inp, out = improved_key
            event = RefinementEvent(
                seq=len(events) + 1,
                module=module_name,
                input_port=inp,
                output_port=out,
                weight_before=weight_before,
                weight_after=weight_after,
                delay_before=delay_before,
                delay_after=delay_after,
                output_moves={
                    o: (before_at[o], after_at[o])
                    for o in outputs
                    if after_at[o] != before_at[o]
                },
            )
            events.append(event)
            if self.tracer.enabled:
                self.tracer.event(
                    "refinement-applied",
                    module=module_name,
                    input=inp,
                    output=out,
                    weight_before=weight_before,
                    weight_after=weight_after,
                    delay_before=delay_before,
                    delay_after=delay_after,
                    moved_outputs=len(event.output_moves),
                )
                movement = delay_before - delay_after
                if movement == movement and abs(movement) != POS_INF:
                    self.tracer.observe(
                        "demand.refinement_slack_movement", movement
                    )
        output_times = output_at()
        required = {o: state.rt[i] for o, i in zip(outputs, output_idx)}
        refined: dict[PinPair, float] = {}
        for key, pair in self._states.items():
            if pair.index > 0 or pair.exact and not pair.lengths:
                refined[key] = pair.weight
        if self.tracer.enabled:
            self.tracer.gauge("demand.edges_total", len(self.edges))
            self.tracer.gauge("demand.edges_refined_final", len(refined))
        self._forensics = ForensicsReport(
            design=self.design.name,
            arrival=dict(arrival),
            outputs=tuple(
                OutputForensics(
                    output=o,
                    topological_arrival=topo_at[o],
                    refined_arrival=output_times[o],
                    required_time=required[o],
                    refinements=tuple(
                        e for e in events if o in e.output_moves
                    ),
                )
                for o in outputs
            ),
            events=tuple(events),
            refinement_checks=self._checks,
            edges_total=len(self.edges),
            pin_pairs_total=len(self._states),
        )
        return DemandDrivenResult(
            net_times=state.at_dict(),
            output_times=output_times,
            delay=max(output_times.values()) if output_times else NEG_INF,
            topological_delay=max(topo_at.values(), default=NEG_INF),
            refinement_checks=self._checks,
            refinements=self._refinements,
            sta_passes=passes,
            elapsed_seconds=time.perf_counter() - start,
            refined_weights=refined,
            required_times=required,
            degradations=self.dlog.snapshot()[mark:],
        )

    def forensics_report(self) -> ForensicsReport:
        """The conservatism audit of the most recent :meth:`analyze` run.

        Per primary output: the arrival under the weights the run
        started with (the Theorem-1 topological bound on a fresh
        analyzer), the refined arrival it ended with, and the ordered
        refinements that closed the gap — each with its exact
        before/after arrival pair, so the attribution chains with exact
        float equality (:attr:`ForensicsReport.fully_attributed`).
        Note that on a *reused* analyzer the starting weights may
        already carry earlier runs' refinements; use a fresh analyzer
        (or :meth:`repro.api.AnalysisSession.forensics`) for the
        topological-vs-refined story.
        """
        if self._forensics is None:
            raise AnalysisError(
                "no analysis recorded yet; call analyze() first"
            )
        return self._forensics

    def analyze_batch(self, scenarios) -> "BatchResult":
        """Analyze many arrival scenarios, sharing refinements.

        Scenarios run through :meth:`analyze` in order; because
        refinement state is memoized per pin pair, edges proven (or refuted) under an earlier scenario are
        never re-checked for later ones — the batch pays for each pin
        pair once, like the paper's regular-design argument.  Slack per
        output is ``required − arrival`` under each scenario's own
        deadline.
        """
        from repro.core.batch import BatchResult, ScenarioResult

        scenarios = [dict(s or {}) for s in scenarios]
        t0 = time.perf_counter()
        mark = len(self.dlog)
        results = []
        checks = refinements = passes = 0
        for scenario in scenarios:
            r = self.analyze(scenario)
            checks += r.refinement_checks
            refinements += r.refinements
            passes += r.sta_passes
            slacks = {}
            for o, at in r.output_times.items():
                rt = r.required_times.get(o, POS_INF)
                if at == NEG_INF or rt == POS_INF:
                    slacks[o] = POS_INF
                else:
                    slacks[o] = rt - at
            results.append(
                ScenarioResult(
                    arrival=scenario,
                    net_times=r.net_times,
                    output_times=r.output_times,
                    delay=r.delay,
                    slacks=slacks,
                )
            )
        return BatchResult(
            scenarios=tuple(results),
            delay=max((r.delay for r in results), default=NEG_INF),
            method="demand",
            degradations=self.dlog.snapshot()[mark:],
            elapsed_seconds=time.perf_counter() - t0,
            stats={
                "sta_passes": passes,
                "refinement_checks": checks,
                "refinements": refinements,
            },
        )


def flat_functional_delay(
    design: HierDesign,
    arrival: Mapping[str, float] | None = None,
) -> tuple[float, dict[str, float], float]:
    """Flat-analysis baseline: flatten and run exact XBD0 per output.

    Returns ``(delay, per-output stable times, seconds)``.  Runs on
    :data:`~repro.core.xbd0.FLAT_ENGINE`, like all flat analysis.
    """
    from repro.core.xbd0 import functional_delays

    flat = design.flatten()
    start = time.perf_counter()
    times = functional_delays(flat, arrival)
    seconds = time.perf_counter() - start
    if not times:
        raise AnalysisError("design has no outputs")
    return max(times.values()), times, seconds
