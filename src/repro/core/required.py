"""Required-time analysis via false-path detection (paper reference [4]).

Given a single-output cone and a required time ``r`` at the output, compute
*when the inputs must stabilize*.  Two flavours:

**Approximate analysis** (:func:`approx_required_tuples`) — input-vector
independent, the one the paper's hierarchical flow uses.  Starting from the
topological required times ``r - l_i``, each input is relaxed in turn: its
candidate looser values walk down the input's distinct path-length list
(``l_k → l'_k → ... → -inf`` = unconstrained), and a candidate is accepted
iff the output is still XBD0-stable at ``r`` when the inputs arrive exactly
at the current tuple (monotone speedup makes validity monotone, so the walk
may binary-search).  Different relaxation orders surface *incomparable*
tuples; dominated ones are pruned and every survivor is re-validated whole.

**Exact analysis** (:func:`exact_required_relation`) — the relation
``T_exact ⊆ B^n × R^n`` of Section 2: for every input vector, the maximal
valid required-time tuples.  Computed by the per-vector prime-implicant
recursion; exponential, intended for small cones and for validating the
approximate analysis.

Both produce results in *required-time* space; module characterization
negates them into delay space (:class:`~repro.core.timing_model.TimingModel`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.timing_model import (
    TimingModel,
    maximal_tuples,
    prune_dominated,
)
from repro.core.xbd0 import StabilityAnalyzer, StabilityContext
from repro.errors import AnalysisError
from repro.netlist.gates import satisfied_primes
from repro.netlist.network import Network
from repro.obs.trace import Tracer, ensure_tracer
from repro.sim.vectors import all_vectors
from repro.sta.paths import distinct_path_lengths
from repro.sta.topological import pin_to_pin_delay

NEG_INF = float("-inf")
POS_INF = float("inf")


def _relaxation_orders(
    inputs: Sequence[str], max_orders: int
) -> list[tuple[str, ...]]:
    """Deterministic family of relaxation orders: each input leads once."""
    base = tuple(inputs)
    orders: list[tuple[str, ...]] = []
    for lead in range(min(len(base), max_orders)):
        rest = base[:lead] + base[lead + 1:]
        orders.append((base[lead],) + rest)
    return orders or [base]


@dataclass
class RequiredTimeResult:
    """Output of the approximate analysis for one output."""

    output: str
    inputs: tuple[str, ...]
    required: float
    #: Set of valid required-time tuples (aligned with ``inputs``).
    tuples: tuple[tuple[float, ...], ...]
    #: Topological (baseline) required-time tuple.
    topological: tuple[float, ...]
    #: Number of XBD0 stability checks spent.
    checks: int

    def as_timing_model(self) -> TimingModel:
        """Negate into delay space (the Section 3.1 definition)."""
        delay_tuples = tuple(
            tuple(
                NEG_INF if t == POS_INF else self.required - t for t in tup
            )
            for tup in self.tuples
        )
        return TimingModel(
            self.output, self.inputs, prune_dominated(delay_tuples)
        )


def approx_required_tuples(
    network: Network,
    output: str,
    required: float = 0.0,
    max_orders: int = 4,
    max_tuples: int = 8,
    path_length_cap: int = 64,
    care: Network | None = None,
    tracer: Tracer | None = None,
) -> RequiredTimeResult:
    """Approximate required-time analysis of one output cone.

    Every check is a per-cone check, decided on
    :data:`~repro.core.xbd0.CONE_ENGINE`.

    Parameters
    ----------
    network:
        Circuit containing ``output`` (the cone is extracted internally).
    required:
        Required time asserted at the output (the paper uses 0).
    max_orders:
        How many relaxation orders to try (more orders can surface more
        incomparable tuples, at proportional cost).
    max_tuples:
        Cap on the tuple set after pruning.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; each relaxation order
        and the final prune are reported as events (tuples generated vs
        kept), with stability-check counts per order.
    """
    tracer = ensure_tracer(tracer)
    cone = network.extract_cone(output)
    inputs = cone.inputs
    if not inputs:
        raise AnalysisError(f"output {output!r} has constant support")
    longest = {
        x: pin_to_pin_delay(cone, x, output) for x in inputs
    }
    base = tuple(
        POS_INF if longest[x] == NEG_INF else required - longest[x]
        for x in inputs
    )
    lengths = {
        x: distinct_path_lengths(cone, x, output, cap=path_length_cap)
        for x in inputs
    }
    checks = 0
    # Every check asks about the same cone under a new arrival vector:
    # one context carries encodings, learned clauses and gate expansions
    # from each check to the next.
    context = StabilityContext()

    def stable_with(tuple_values: Sequence[float]) -> bool:
        nonlocal checks
        checks += 1
        arrival = dict(zip(inputs, tuple_values))
        analyzer = StabilityAnalyzer(
            cone, arrival, care=care, tracer=tracer, context=context
        )
        return analyzer.stable_at(output, required)

    def relax(order: Sequence[str]) -> tuple[float, ...]:
        current = list(base)
        for x in order:
            k = inputs.index(x)
            if current[k] == POS_INF:
                continue  # no path — already unconstrained
            # Candidate required times, tightest (largest l) first, plus
            # the fully-unconstrained +inf at the end; validity is monotone
            # along this list so binary search applies.
            cand_lengths = [
                l for l in lengths[x] if required - l > current[k]
            ]
            candidates = [required - l for l in cand_lengths] + [POS_INF]
            lo, hi = 0, len(candidates) - 1
            best: float | None = None
            # Find the loosest valid candidate (largest index that passes).
            while lo <= hi:
                mid = (lo + hi) // 2
                trial = list(current)
                trial[k] = candidates[mid]
                if stable_with(trial):
                    best = candidates[mid]
                    lo = mid + 1
                else:
                    hi = mid - 1
            if best is not None:
                current[k] = best
        return tuple(current)

    results = []
    for index, order in enumerate(_relaxation_orders(inputs, max_orders)):
        before = checks
        results.append(relax(order))
        if tracer.enabled:
            tracer.count("required.relaxation_orders")
            tracer.event(
                "relaxation-order",
                phase="characterization",
                output=output,
                order=index,
                checks=checks - before,
            )
    # Re-validate whole tuples (greedy steps each validated individually;
    # this guards the composition end-to-end).
    validated = [t for t in results if t == base or stable_with(t)]
    if not validated:
        validated = [base]
    # Prune in required-time space: keep maximal tuples (looser is better).
    as_delays = [
        tuple(NEG_INF if v == POS_INF else -v for v in t) for t in validated
    ]
    kept = prune_dominated(as_delays)[:max_tuples]
    tuples = tuple(
        tuple(POS_INF if d == NEG_INF else -d for d in t) for t in kept
    )
    if tracer.enabled:
        tracer.count("required.tuples_generated", len(validated))
        tracer.count("required.tuples_kept", len(tuples))
        tracer.count("required.checks", checks)
        tracer.event(
            "tuple-prune",
            phase="characterization",
            output=output,
            generated=len(validated),
            kept=len(tuples),
            pruned=len(validated) - len(tuples),
            checks=checks,
        )
    return RequiredTimeResult(
        output=output,
        inputs=inputs,
        required=required,
        tuples=tuples,
        topological=base,
        checks=checks,
    )


def characterize_output(
    network: Network,
    output: str,
    max_orders: int = 4,
    max_tuples: int = 8,
    care: Network | None = None,
    tracer: Tracer | None = None,
) -> TimingModel:
    """Timing model of one output (Section 3.1), in the cone's input order.

    ``care`` optionally restricts the vectors over which stability must
    hold (satisfiability don't-cares; see paper footnote 6 and
    :mod:`repro.core.instance_models`).
    """
    result = approx_required_tuples(
        network, output, 0.0, max_orders, max_tuples,
        care=care, tracer=tracer,
    )
    return result.as_timing_model()


def expand_model_to_inputs(
    model: TimingModel, inputs: Sequence[str]
) -> TimingModel:
    """Re-align a cone-local model to a full input order.

    Inputs outside the model's support get delay ``-inf``
    (unconstrained).
    """
    expanded = []
    for tup in model.tuples:
        by_name = dict(zip(model.inputs, tup))
        expanded.append(tuple(by_name.get(x, NEG_INF) for x in inputs))
    return TimingModel(
        model.output, tuple(inputs), prune_dominated(tuple(expanded))
    )


def characterize_network(
    network: Network,
    max_orders: int = 4,
    max_tuples: int = 8,
    tracer: Tracer | None = None,
) -> dict[str, TimingModel]:
    """Timing model of every primary output, aligned to the full PI order.

    Inputs outside an output's support get delay ``-inf``.
    """
    return {
        output: expand_model_to_inputs(
            characterize_output(
                network, output, max_orders, max_tuples,
                tracer=tracer,
            ),
            network.inputs,
        )
        for output in network.outputs
    }


# --------------------------------------------------------------------- exact
@dataclass(frozen=True)
class ExactRequiredRelation:
    """``T_exact``: per input vector, the maximal required-time tuples."""

    output: str
    inputs: tuple[str, ...]
    required: float
    #: vector (as a bit tuple aligned with ``inputs``) → maximal tuples.
    relation: dict[tuple[bool, ...], tuple[tuple[float, ...], ...]]

    def tuples_for(self, vector: Mapping[str, bool]) -> tuple[tuple[float, ...], ...]:
        """Maximal valid required-time tuples under one vector."""
        key = tuple(bool(vector[x]) for x in self.inputs)
        return self.relation[key]


def exact_required_tuples_for_vector(
    network: Network,
    output: str,
    vector: Mapping[str, bool],
    required: float = 0.0,
    cap: int = 64,
) -> tuple[tuple[float, ...], ...]:
    """Maximal required-time tuples for one vector (prime recursion).

    ``REQ(x_i) = (..., r, ...)``; for a gate, each satisfied prime demands
    all its literals stable by ``r - d`` (elementwise min over combined
    child tuples) and the choice among primes is a union pruned to maximal
    elements.
    """
    cone = network.extract_cone(output)
    inputs = cone.inputs
    values = cone.evaluate({x: vector[x] for x in inputs})
    n = len(inputs)
    index = {x: i for i, x in enumerate(inputs)}
    memo: dict[tuple[str, float], tuple[tuple[float, ...], ...]] = {}

    def req(signal: str, r: float) -> tuple[tuple[float, ...], ...]:
        key = (signal, round(r, 9))
        if key in memo:
            return memo[key]
        if cone.is_input(signal):
            tup = [POS_INF] * n
            tup[index[signal]] = r
            memo[key] = (tuple(tup),)
            return memo[key]
        gate = cone.gate(signal)
        child_r = r - gate.delay
        fanin_values = tuple(values[f] for f in gate.fanins)
        options: list[tuple[float, ...]] = []
        for prime in satisfied_primes(gate.gtype, len(gate.fanins), fanin_values):
            if not prime:  # constant gate: no input constraints at all
                options.append(tuple([POS_INF] * n))
                continue
            # Combine children: for each choice of one tuple per literal,
            # take the elementwise min.
            child_sets = [req(cone.fanins(signal)[idx], child_r) for idx, _ in prime]
            for combo in itertools.product(*child_sets):
                merged = [POS_INF] * n
                for tup in combo:
                    for i, v in enumerate(tup):
                        if v < merged[i]:
                            merged[i] = v
                options.append(tuple(merged))
        result = maximal_tuples(options, cap)
        memo[key] = result
        return result

    return req(output, required)


def exact_required_relation(
    network: Network,
    output: str,
    required: float = 0.0,
    cap: int = 64,
    max_support: int = 12,
) -> ExactRequiredRelation:
    """Full ``T_exact`` over every input vector (small cones only)."""
    cone = network.extract_cone(output)
    inputs = cone.inputs
    if len(inputs) > max_support:
        raise AnalysisError(
            f"exact analysis over {len(inputs)} inputs exceeds "
            f"max_support={max_support}"
        )
    relation: dict[tuple[bool, ...], tuple[tuple[float, ...], ...]] = {}
    for vec in all_vectors(inputs):
        key = tuple(vec[x] for x in inputs)
        relation[key] = exact_required_tuples_for_vector(
            network, output, vec, required, cap
        )
    return ExactRequiredRelation(output, inputs, required, relation)
