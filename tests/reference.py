"""Reference oracles for the compiled propagation engines and the
incremental stability checks.

Plain dict walks written for reading, not speed.  The property tests
hold :mod:`repro.kernel` bit-identical to them: the kernel performs the
same float64 additions, maxima, and minima on the same values, so every
comparison is exact.  :class:`OneShotStabilityAnalyzer` decides each
XBD0 stability check on a fresh CNF and a fresh solver, the reference
for the per-cone incremental SAT sessions; :func:`brute_force_witness`
enumerates input vectors, the reference for witnesses and care sets.
:class:`LiteralDemandAnalyzer` is the Section-5 check exactly as the
paper states it, kept to show why production deviates from it.
:func:`equivalent` proves two networks compute the same function, the
reference for transforms, parsers and flattening.
"""

from __future__ import annotations

from repro.core.demand import DemandDrivenAnalyzer
from repro.core.xbd0 import StabilityAnalyzer
from repro.sim.timed import vector_output_delay
from repro.sim.vectors import all_vectors
from repro.sat.cnf import CNF
from repro.sat.solver import Solver, SolveResult, solve_cnf
from repro.sat.tseitin import NetworkEncoder, encode_equal, miter_cnf
from repro.sta.paths import distinct_path_lengths

NEG_INF = float("-inf")
POS_INF = float("inf")


def hier_net_times(design, models_of_instance, arrival):
    """Step 2 (Section 3.2): min-max propagation over the instance DAG.

    ``models_of_instance(name)`` gives one instance's per-output timing
    models (e.g. ``HierarchicalAnalyzer._models_of_instance``).
    """
    net_times = {x: float(arrival.get(x, 0.0)) for x in design.inputs}
    for inst_name in design.instance_order():
        inst = design.instances[inst_name]
        module = design.module_of(inst)
        models = models_of_instance(inst_name)
        local = {port: net_times[inst.net_of(port)] for port in module.inputs}
        for port in module.outputs:
            net_times[inst.net_of(port)] = models[port].stable_time(local)
    return net_times


def graph_sta(nets, edges, inputs, outputs, arrival):
    """Forward arrivals and backward required times on a timing graph.

    ``nets`` is a topological order starting with ``inputs``; ``edges``
    holds ``(src, dst, weight)`` triples, where a ``-inf`` weight marks
    a pin pair proven false.  The required time at every primary
    output is the latest primary-output arrival.
    """
    incoming: dict[str, list[tuple[str, float]]] = {}
    for src, dst, weight in edges:
        if weight != NEG_INF:
            incoming.setdefault(dst, []).append((src, weight))
    at = {x: float(arrival.get(x, 0.0)) for x in inputs}
    for net in nets:
        if net not in at:
            terms = [
                at[src] + w
                for src, w in incoming.get(net, ())
                if at[src] != NEG_INF
            ]
            at[net] = max(terms) if terms else NEG_INF
    deadline = max((at[o] for o in outputs), default=NEG_INF)
    rt = {net: POS_INF for net in nets}
    for o in outputs:
        rt[o] = deadline
    for net in reversed(nets):
        for src, w in incoming.get(net, ()):
            rt[src] = min(rt[src], rt[net] - w)
    return at, rt


def reference_demand(analyzer, arrival):
    """The Section-5 loop with a full :func:`graph_sta` after each step.

    Drives ``analyzer`` (a fresh
    :class:`~repro.core.demand.DemandDrivenAnalyzer` with default
    options) with a dict-based critical-edge scan, calling its own
    refinement check for each candidate, so only the propagation and
    the scan differ from ``analyzer.analyze``.  Returns the first
    pass's arrivals, the final arrivals and required times, the STA
    pass count, the refined pin-pair weights and the check count.
    """
    design = analyzer.design

    def sta():
        edges = [
            (src, dst, analyzer._states[key].weight)
            for src, dst, key in analyzer.edges
        ]
        return graph_sta(
            analyzer.nets, edges, design.inputs, design.outputs, arrival
        )

    def critical(at, rt):
        """Pin pairs of edges with zero slack at both ends and no slack
        along the edge, in scan order."""
        keys = []
        for src, dst, key in analyzer.edges:
            w = analyzer._states[key].weight
            if (
                w != NEG_INF
                and abs(rt[src] - at[src]) < 1e-9
                and abs(rt[dst] - at[dst]) < 1e-9
                and abs(at[src] + w - at[dst]) < 1e-9
            ):
                keys.append(key)
        return keys

    analyzer._checks = analyzer._refinements = 0
    at, rt = sta()
    first = at
    passes = 1
    while True:
        for key in critical(at, rt):
            if not analyzer._states[key].exact and analyzer._try_refine(key):
                break
        else:
            break
        at, rt = sta()
        passes += 1
    refined = {
        key: state.weight
        for key, state in analyzer._states.items()
        if state.index > 0 or (state.exact and not state.lengths)
    }
    return {
        "topological_at": first,
        "net_times": at,
        "required_times": {o: rt[o] for o in design.outputs},
        "sta_passes": passes,
        "refined_weights": refined,
        "refinement_checks": analyzer._checks,
    }


class LiteralDemandAnalyzer(DemandDrivenAnalyzer):
    """Section 5 with the paper's literal refinement check: the other
    cone inputs sit at their topological offsets ``-l_i`` (``l_i`` the
    longest path from input ``i`` to the output) instead of at minus
    their current weights.

    Unsound: each accepted check validates one arrival vector, but two
    refined inputs of one output combine into a vector no check saw, so
    the estimate can drop below the flat delay (EXPERIMENTS.md,
    "Soundness finding").
    """

    def _check_arrival(self, key, candidate):
        module_name, inp, out = key
        cone = self._cone(module_name, out)
        arrival = {}
        for x in cone.inputs:
            if x == inp:
                arrival[x] = POS_INF if candidate == NEG_INF else -candidate
            else:
                arrival[x] = -distinct_path_lengths(cone, x, out)[0]
        return arrival


class OneShotStabilityAnalyzer(StabilityAnalyzer):
    """A :class:`~repro.core.xbd0.StabilityAnalyzer` whose SAT checks
    re-encode from scratch.

    Every tautology query Tseitin-encodes the stability DAG below the
    queried node, asserts its negation and (with a care network) ties
    the care outputs to the same-named PI variables, all in a fresh
    :class:`~repro.sat.cnf.CNF`, then runs a fresh
    :class:`~repro.sat.solver.Solver` on it.  No clause, encoding or
    learned clause outlives the check, so a shared session that
    decides differently is at fault.
    """

    def _tautology_sat(self, node: int) -> bool:
        exprs = self._exprs
        cnf = CNF()
        pi_vars: dict[str, int] = {}
        lits: dict[int, int] = {}
        seen: set[int] = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                if exprs.kind[n] in ("and", "or"):
                    stack.extend(exprs.data[n])
        # Children are interned before parents: ascending ids are a
        # topological order.
        for n in sorted(seen):
            kind = exprs.kind[n]
            if kind == "lit":
                pi, pos = exprs.data[n]
                if pi not in pi_vars:
                    pi_vars[pi] = cnf.new_var()
                lits[n] = pi_vars[pi] if pos else -pi_vars[pi]
            elif kind in ("and", "or"):
                children = [lits[c] for c in exprs.data[n]]
                v = lits[n] = cnf.new_var()
                if kind == "and":
                    for lit in children:
                        cnf.add_clause((-v, lit))
                    cnf.add_clause((v, *(-lit for lit in children)))
                else:
                    for lit in children:
                        cnf.add_clause((v, -lit))
                    cnf.add_clause((-v, *children))
        cnf.add_clause((-lits[node],))
        if self.care is not None:
            care_map = NetworkEncoder(cnf).encode(self.care)
            for out in self.care.outputs:
                if out not in pi_vars:
                    pi_vars[out] = cnf.new_var()
                encode_equal(cnf, pi_vars[out], care_map[out])
        return Solver(cnf).solve() is SolveResult.UNSAT


def brute_force_witness(network, output, time, arrival=None, care=None):
    """The first input vector under which ``output`` is not stable by
    ``time``, or ``None`` when it is stable under every vector.

    Each vector is decided by the per-vector calculus that
    :func:`~repro.sim.timed.brute_force_stable_at` enumerates
    (:func:`~repro.sim.timed.vector_output_delay`).  With a ``care``
    network only its image counts: the PIs named by its outputs take
    the image's values, every other PI ranges freely.
    """
    constrained = [] if care is None else list(care.outputs)
    free = [x for x in network.inputs if x not in constrained]
    images = (
        [{}] if care is None
        else [care.output_values(v) for v in all_vectors(care.inputs)]
    )
    for image in images:
        for vector in all_vectors(free):
            vector.update({x: image[x] for x in constrained})
            if vector_output_delay(network, vector, output, arrival) > time:
                return vector
    return None


def equivalent(left, right):
    """Whether two networks compute the same function on every input vector.

    Solves the SAT miter of :func:`~repro.sat.tseitin.miter_cnf`: it is
    unsatisfiable exactly when no input vector makes an output differ.
    Both networks must name the same inputs and outputs
    (:class:`~repro.errors.SolverError` otherwise).
    """
    cnf, _ = miter_cnf(left, right)
    result, _ = solve_cnf(cnf)
    return result is SolveResult.UNSAT
