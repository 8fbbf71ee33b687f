"""XBD0 (extended bounded delay-0) functional timing analysis.

This module implements the flat analysis of McGeer, Saldanha, Brayton and
Sangiovanni-Vincentelli ("Delay models and exact timing analysis") that the
paper builds on — reference [6] of the paper — via *timed characteristic
functions*:

``S1_s(t)`` (``S0_s(t)``) is the set of primary-input vectors for which
signal ``s`` is guaranteed stable at value 1 (0) **by** time ``t`` under
every assignment of gate delays in ``[0, d_g]``:

* PI ``x`` with arrival ``a``:  ``S1 = x`` if ``t >= a`` else ``0`` (dually
  ``S0 = ¬x``).
* Gate ``g`` (function ``f``, delay ``d``):
  ``S1_g(t) = Σ over primes P of f: Π_{(i,1) in P} S1_ui(t-d) · Π_{(i,0) in P} S0_ui(t-d)``
  and ``S0_g(t)`` from the primes of ``¬f``.

The output is stable at ``t`` for **all** vectors iff ``S0 + S1`` is a
tautology; stability is monotone in ``t`` (the monotone-speedup property of
XBD0), so the exact functional delay is found by binary search over the
finite set of candidate event times.

Two interchangeable tautology engines are provided: ``"sat"`` (CDCL on
the Tseitin encoding of the stability DAG) and ``"bdd"`` (ROBDD
evaluation).  The code picks one by kind of work: flat analysis runs on
:data:`FLAT_ENGINE`, per-cone checks on :data:`CONE_ENGINE`.
"""

from __future__ import annotations

import time
from typing import Literal, Mapping

from repro.bdd.manager import BDDManager
from repro.errors import AnalysisError
from repro.netlist.gates import GateType, gate_primes
from repro.netlist.network import Network
from repro.obs.trace import Tracer, ensure_tracer
from repro.sat.incremental import IncrementalSolver
from repro.sat.solver import SolveResult
from repro.sta.paths import event_time_candidates
from repro.sta.topological import arrival_times, required_times

NEG_INF = float("-inf")
POS_INF = float("inf")

Engine = Literal["sat", "bdd"]

#: Engine of flat analysis (:func:`functional_delays` and the flat
#: functional report): its one manager per run stays small under the
#: nearest-output-first variable order.
FLAT_ENGINE: Engine = "bdd"

#: Engine of per-cone checks (characterization, Section-5 refinement,
#: per-instance models, pin explanations, the sub-flat baseline): they
#: keep one incremental session per cone alive for the whole run, and
#: the model library keys their models by this name.
CONE_ENGINE: Engine = "sat"


#: Tolerance for time comparisons (all benchmark delays are small integers
#: or simple decimals; 1e-9 is far below any meaningful delay difference).
_EPS = 1e-9


def _require_time(t: float) -> None:
    """Reject a NaN query time: the ``(signal, t)`` memo of
    :meth:`StabilityAnalyzer.stability_pair` never matches NaN, so the
    walk would re-push the same children forever."""
    if t != t:
        raise AnalysisError("stability query time must not be NaN")


def reject_nan_arrivals(arrival: Mapping[str, float]) -> None:
    """Raise :class:`~repro.errors.AnalysisError` naming the first input
    whose arrival time ``float()`` reads as NaN (``"nan"`` included).
    ``-inf`` ("always there") and ``+inf`` ("never arrives") keep their
    meanings; a value ``float()`` cannot read is left to the caller's
    own conversion, which reports it."""
    for x, at in arrival.items():
        try:
            at = float(at)
        except (TypeError, ValueError):
            continue
        if at != at:
            raise AnalysisError(f"arrival time for {x!r} is NaN")


class _ExprManager:
    """Structurally-hashed AND/OR DAG over primary-input literals.

    Node 0 is FALSE, node 1 is TRUE.  Stability functions are monotone
    compositions of literals, so negation occurs only at leaves.
    """

    FALSE = 0
    TRUE = 1

    def __init__(self) -> None:
        # kind: 'const', 'lit', 'and', 'or'
        self.kind: list[str] = ["const", "const"]
        self.data: list[object] = [False, True]
        self._lit_cache: dict[tuple[str, bool], int] = {}
        self._op_cache: dict[tuple[str, tuple[int, ...]], int] = {}
        #: (gate type, *fanin (S0, S1) pairs) → the gate's (S0, S1).
        self.gate_memo: dict[tuple, tuple[int, int]] = {}

    def lit(self, pi: str, positive: bool) -> int:
        key = (pi, positive)
        node = self._lit_cache.get(key)
        if node is None:
            node = len(self.kind)
            self.kind.append("lit")
            self.data.append(key)
            self._lit_cache[key] = node
        return node

    def _gate(self, op: str, children: list[int]) -> int:
        absorbing = self.FALSE if op == "and" else self.TRUE
        identity = self.TRUE if op == "and" else self.FALSE
        flat: list[int] = []
        for c in children:
            if c == absorbing:
                return absorbing
            if c == identity:
                continue
            if self.kind[c] == op:
                flat.extend(self.data[c])  # type: ignore[arg-type]
            else:
                flat.append(c)
        unique = sorted(set(flat))
        # x · ¬x  (resp. x + ¬x) collapses to the absorbing constant.
        lit_set = {
            self.data[c] for c in unique if self.kind[c] == "lit"
        }
        for pi, pos in list(lit_set):  # type: ignore[misc]
            if (pi, not pos) in lit_set:
                return absorbing
        if not unique:
            return identity
        if len(unique) == 1:
            return unique[0]
        key = (op, tuple(unique))
        node = self._op_cache.get(key)
        if node is None:
            node = len(self.kind)
            self.kind.append(op)
            self.data.append(key[1])
            self._op_cache[key] = node
        return node

    def conj(self, children: list[int]) -> int:
        return self._gate("and", children)

    def disj(self, children: list[int]) -> int:
        return self._gate("or", children)

    def expand_gate(
        self, gtype: GateType, child_pairs: list[tuple[int, int]]
    ) -> tuple[int, int]:
        """``(S0, S1)`` of a gate whose fanins have ``child_pairs``.

        Sums the gate's primes over the fanin pairs (the XBD0 gate rule).
        Memoized in :attr:`gate_memo`: the expansion is a pure function
        of hash-consed nodes, so a repeat returns the nodes the first
        call built and creates none.
        """
        key = (gtype, *child_pairs)
        pair = self.gate_memo.get(key)
        if pair is not None:
            return pair
        on_primes, off_primes = gate_primes(gtype, len(child_pairs))
        s1 = self.disj(
            [
                self.conj(
                    [child_pairs[idx][1 if val else 0] for idx, val in prime]
                )
                for prime in on_primes
            ]
        )
        s0 = self.disj(
            [
                self.conj(
                    [child_pairs[idx][1 if val else 0] for idx, val in prime]
                )
                for prime in off_primes
            ]
        )
        pair = self.gate_memo[key] = (s0, s1)
        return pair

    def evaluate(self, node: int, assignment: Mapping[str, bool]) -> bool:
        """Evaluate the DAG on a PI assignment."""
        memo: dict[int, bool] = {}
        stack = [node]
        while stack:
            n = stack[-1]
            if n in memo:
                stack.pop()
                continue
            kind = self.kind[n]
            if kind == "const":
                memo[n] = bool(self.data[n])
                stack.pop()
            elif kind == "lit":
                pi, pos = self.data[n]  # type: ignore[misc]
                memo[n] = assignment[pi] == pos
                stack.pop()
            else:
                children = self.data[n]  # type: ignore[assignment]
                pending = [c for c in children if c not in memo]
                if pending:
                    stack.extend(pending)
                    continue
                vals = (memo[c] for c in children)  # type: ignore[union-attr]
                memo[n] = all(vals) if kind == "and" else any(vals)
                stack.pop()
        return memo[node]


class StabilityContext:
    """Shared incremental-SAT state for stability checks on one cone.

    Bundles the structurally-hashed expression manager, one persistent
    :class:`~repro.sat.incremental.IncrementalSolver` session, and the
    cache mapping stability-DAG nodes to their CNF literals.  Analyzers
    sharing a context may differ in *arrival condition*: arrivals decide
    which expression nodes a query builds, but the definitional Tseitin
    clauses of a node depend only on the DAG structure, so encodings and
    learned clauses stay valid across every query the context serves.

    The demand-driven analyzer keeps one context per (module, output)
    cone, and characterization one per characterized output, so
    successive checks reuse sub-encodings and learned clauses instead of
    re-Tseitin-encoding the cone from scratch.  The expression manager
    memoizes gate expansions, so a later check's stability DAG reuses
    the gates an earlier check already expanded.
    """

    def __init__(self) -> None:
        self.exprs = _ExprManager()
        self.session = IncrementalSolver()
        #: PI name → session variable (shared by all polarities/queries).
        self.pi_vars: dict[str, int] = {}
        #: Expression node → session literal of its definitional encoding.
        self.node_lits: dict[int, int] = {}
        #: id() of the care network whose image constraint was encoded.
        self._care_for: int | None = None
        self.nodes_encoded = 0
        self.nodes_reused = 0

    @property
    def reuse_rate(self) -> float:
        """Fraction of requested sub-encodings served from cache."""
        total = self.nodes_encoded + self.nodes_reused
        return self.nodes_reused / total if total else 0.0


class StabilityAnalyzer:
    """Timed characteristic functions for one network + arrival condition.

    Parameters
    ----------
    network:
        The flat combinational circuit.
    arrival:
        PI → arrival time; missing PIs default to 0.0 and ``-inf`` means
        "available from the beginning of time" (an unconstrained input).
        A NaN arrival raises :class:`~repro.errors.AnalysisError`.
    engine:
        Tautology engine: ``"sat"`` or ``"bdd"``; ``None`` (the default)
        is :data:`CONE_ENGINE`.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; every SAT call and
        stability check is counted (and timed, for SAT) against it.
        ``None`` (the default) disables instrumentation entirely.
    context:
        Optional :class:`StabilityContext` to share expression manager,
        session, and encodings with other analyzers over the *same*
        network structure (e.g. refinement checks under different
        arrival conditions).  Without one, a ``"sat"`` analyzer builds a
        private context.
    """

    def __init__(
        self,
        network: Network,
        arrival: Mapping[str, float] | None = None,
        engine: Engine | None = None,
        care: Network | None = None,
        tracer: Tracer | None = None,
        context: StabilityContext | None = None,
    ):
        if engine is None:
            engine = CONE_ENGINE
        if engine not in ("sat", "bdd"):
            raise AnalysisError(f"unknown engine {engine!r}")
        if care is not None and engine == "bdd":
            raise AnalysisError(
                "care-set constraints are supported by the sat engine only"
            )
        self.network = network
        self.arrival = {
            x: float((arrival or {}).get(x, 0.0)) for x in network.inputs
        }
        reject_nan_arrivals(self.arrival)
        self.engine: Engine = engine
        #: Optional satisfiability-don't-care constraint: a network whose
        #: outputs are named after PIs of ``network``; only PI vectors in
        #: the image of ``care`` (as its own PIs range over all values)
        #: must be stable.  PIs of ``network`` that are not outputs of
        #: ``care`` stay unconstrained.  Used by per-instance
        #: characterization (paper footnote 6).
        self.care = care
        if care is not None:
            missing = [
                o for o in care.outputs if not network.is_input(o)
            ]
            if missing:
                raise AnalysisError(
                    f"care outputs {missing!r} are not PIs of the network"
                )
        self._context = context
        if context is None and engine == "sat":
            self._context = StabilityContext()
        self._exprs = (
            self._context.exprs if self._context is not None
            else _ExprManager()
        )
        self._memo: dict[tuple[str, float], tuple[int, int]] = {}
        self._event_times: dict[str, tuple[float, ...]] | None = None
        self._stable_memo: dict[tuple[str, float], bool] = {}
        self._bdd: BDDManager | None = None
        self._bdd_memo: dict[int, int] = {}
        self.stats = {
            "stability_checks": 0,
            "checks_cached": 0,
            "sat_calls": 0,
            "encodings_reused": 0,
        }
        self.tracer = ensure_tracer(tracer)

    # -------------------------------------------------- stability functions
    def _tkey(self, t: float) -> float:
        if t in (NEG_INF, POS_INF):
            return t
        return round(t, 9)

    def stability_pair(self, signal: str, t: float) -> tuple[int, int]:
        """Expression nodes ``(S0, S1)`` of ``signal`` at time ``t``.

        Built iteratively (circuits can be deeper than the Python recursion
        limit) with memoization on ``(signal, t)``.  The walk order fixes
        the ids of new expression nodes, so it never changes: children
        are pushed in fanin order and a node is finalized once all of
        them are known.
        """
        _require_time(t)
        memo = self._memo
        root = (signal, self._tkey(t))
        pair = memo.get(root)
        if pair is not None:
            return pair
        gates = self.network.gates
        arrival = self.arrival
        if signal not in gates and signal not in arrival:
            self.network.gate(signal)  # raises: not a signal
        exprs = self._exprs
        gate_memo = exprs.gate_memo
        stack = [root]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            sig, tk = key
            gate = gates.get(sig)
            if gate is None:  # a primary input
                if tk >= arrival[sig] - _EPS:
                    memo[key] = (exprs.lit(sig, False), exprs.lit(sig, True))
                else:
                    memo[key] = (exprs.FALSE, exprs.FALSE)
                stack.pop()
                continue
            child_t = tk - gate.delay
            if NEG_INF < child_t < POS_INF:
                child_t = round(child_t, 9)
            child_pairs = []
            missing = []
            for f in gate.fanins:
                child = (f, child_t)
                p = memo.get(child)
                if p is None:
                    missing.append(child)
                else:
                    child_pairs.append(p)
            if missing:
                stack.extend(missing)
                continue
            pair = gate_memo.get((gate.gtype, *child_pairs))
            if pair is None:
                pair = exprs.expand_gate(gate.gtype, child_pairs)
            memo[key] = pair
            stack.pop()
        return memo[root]

    # ------------------------------------------------------ tautology engines
    def _encode_node(self, node: int) -> int:
        """Session literal of ``node``, encoding missing sub-DAG parts.

        Nodes already defined in the shared session (from an earlier
        query — possibly by a different analyzer on the same context)
        are reused as-is; only the frontier below ``node`` that has no
        encoding yet gets fresh Tseitin clauses.  Definitional clauses
        are arrival-independent, so they are permanently valid.
        """
        ctx = self._context
        assert ctx is not None
        exprs = self._exprs
        node_lits = ctx.node_lits
        session = ctx.session
        fresh: list[int] = []
        reused = 0
        seen: set[int] = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if n in node_lits:
                reused += 1
                continue
            fresh.append(n)
            if exprs.kind[n] in ("and", "or"):
                stack.extend(exprs.data[n])  # type: ignore[arg-type]
        # Manager node ids are topological (children are interned before
        # parents), so ascending id order defines children first.
        for n in sorted(fresh):
            kind = exprs.kind[n]
            if kind == "lit":
                pi, pos = exprs.data[n]  # type: ignore[misc]
                var = ctx.pi_vars.get(pi)
                if var is None:
                    var = ctx.pi_vars[pi] = session.new_var()
                node_lits[n] = var if pos else -var
            else:
                children = [node_lits[c] for c in exprs.data[n]]  # type: ignore[union-attr]
                v = session.new_var()
                if kind == "and":
                    for lit in children:
                        session.add_clause((-v, lit))
                    session.add_clause((v, *(-l for l in children)))
                else:
                    for lit in children:
                        session.add_clause((v, -lit))
                    session.add_clause((-v, *children))
                node_lits[n] = v
        ctx.nodes_encoded += len(fresh)
        ctx.nodes_reused += reused
        self.stats["encodings_reused"] += reused
        if self.tracer.enabled:
            if fresh:
                self.tracer.count("xbd0.encodings_new", len(fresh))
            if reused:
                self.tracer.count("xbd0.encodings_reused", reused)
            self.tracer.gauge("xbd0.encoding_reuse_rate", ctx.reuse_rate)
        return node_lits[node]

    def _ensure_care_session(self) -> None:
        """Encode the care-image constraint into the shared session once.

        The constraint ties same-named PI variables to the care network's
        outputs; it is identical for every query, so it lives with the
        permanent clauses.  A context serves exactly one care network.
        """
        ctx = self._context
        assert ctx is not None and self.care is not None
        if ctx._care_for is not None:
            if ctx._care_for != id(self.care):
                raise AnalysisError(
                    "StabilityContext is bound to a different care network"
                )
            return
        from repro.sat.tseitin import NetworkEncoder, encode_equal

        session = ctx.session
        encoder = NetworkEncoder(session)
        care_map = encoder.encode(self.care)
        for out in self.care.outputs:
            var = ctx.pi_vars.get(out)
            if var is None:
                var = ctx.pi_vars[out] = session.new_var()
            encode_equal(session, var, care_map[out])
        ctx._care_for = id(self.care)

    def _tautology_sat(self, node: int) -> bool:
        """Tautology via the persistent session: UNSAT under ``¬node``.

        No clause asserts the query — the negated node literal rides in
        as an assumption, so the session is never poisoned and learned
        clauses remain sound for every later query.
        """
        lit = self._encode_node(node)
        if self.care is not None:
            self._ensure_care_session()
        session = self._context.session  # type: ignore[union-attr]
        self.stats["sat_calls"] += 1
        tracer = self.tracer
        if not tracer.enabled:
            return session.solve((-lit,)) is SolveResult.UNSAT
        t0 = time.perf_counter()
        unsat = session.solve((-lit,)) is SolveResult.UNSAT
        tracer.count("xbd0.sat_calls")
        tracer.gauge("xbd0.expr_nodes", len(self._exprs.kind))
        tracer.event(
            "sat-call",
            seconds=time.perf_counter() - t0,
            variables=session.num_vars,
            unsat=unsat,
        )
        return unsat

    def _bdd_node(self, node: int) -> int:
        if self._bdd is None:
            # Inputs nearest the outputs (shortest longest path to any
            # output) go on top, ties in input order.  On an adder this
            # puts the high bits above the carry-in and keeps the flat
            # manager several times smaller than port order does.
            network = self.network
            rt = required_times(
                network, dict.fromkeys(network.outputs, 0.0)
            )
            self._bdd = BDDManager()
            for x in sorted(network.inputs, key=lambda x: -rt[x]):
                self._bdd.declare(x)
        bdd = self._bdd
        exprs = self._exprs
        memo = self._bdd_memo
        stack = [node]
        while stack:
            n = stack[-1]
            if n in memo:
                stack.pop()
                continue
            kind = exprs.kind[n]
            if kind == "const":
                memo[n] = bdd.ONE if exprs.data[n] else bdd.ZERO
                stack.pop()
            elif kind == "lit":
                pi, pos = exprs.data[n]  # type: ignore[misc]
                memo[n] = bdd.var(pi) if pos else bdd.nvar(pi)
                stack.pop()
            else:
                children = exprs.data[n]  # type: ignore[assignment]
                pending = [c for c in children if c not in memo]
                if pending:
                    stack.extend(pending)
                    continue
                nodes = [memo[c] for c in children]  # type: ignore[union-attr]
                memo[n] = (
                    bdd.conj_all(nodes) if kind == "and" else bdd.disj_all(nodes)
                )
                stack.pop()
        return memo[node]

    def _tautology_bdd(self, node: int) -> bool:
        """Tautology via the analyzer's manager: ``node`` reduces to ONE."""
        root = self._bdd_node(node)
        tracer = self.tracer
        if tracer.enabled:
            assert self._bdd is not None
            tracer.count("xbd0.bdd_checks")
            tracer.gauge("xbd0.bdd_nodes", self._bdd.size())
        return root == BDDManager.ONE

    def _is_tautology(self, node: int) -> bool:
        if node == _ExprManager.TRUE:
            return True
        if node == _ExprManager.FALSE:
            # FALSE is a tautology only over an empty vector space, which
            # cannot happen here (FALSE with no PIs simplifies elsewhere).
            return False
        if self.engine == "sat":
            return self._tautology_sat(node)
        return self._tautology_bdd(node)

    # --------------------------------------------------------------- queries
    def stable_at(self, output: str, t: float) -> bool:
        """True iff ``output`` is stable by ``t`` for every input vector.

        Results are memoized per ``(output, t)``: ``stability_checks``
        counts every query, ``checks_cached`` the memo-served ones, and
        ``sat_calls`` only the checks that actually reached a solver —
        the three stay consistent (`sat_calls <= checks - cached`).
        """
        _require_time(t)
        key = (output, self._tkey(t))
        self.stats["stability_checks"] += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.count("xbd0.stability_checks")
        cached = self._stable_memo.get(key)
        if cached is not None:
            self.stats["checks_cached"] += 1
            if tracer.enabled:
                tracer.count("xbd0.checks_cached")
            return cached
        s0, s1 = self.stability_pair(output, t)
        stable = self._is_tautology(self._exprs.disj([s0, s1]))
        self._stable_memo[key] = stable
        return stable

    def unstable_witness(
        self, output: str, t: float
    ) -> dict[str, bool] | None:
        """A vector for which ``output`` is not stable by ``t`` (or None).

        The witness makes stability failures actionable: combined with the
        per-vector calculus (:func:`repro.sim.timed.stable_times`) it
        names the exact input combination and the late cone.  Cares are
        honoured: with a care network attached, witnesses come from its
        image only.  PIs outside the failing condition's support default
        to False.
        """
        s0, s1 = self.stability_pair(output, t)
        node = self._exprs.disj([s0, s1])
        if node == _ExprManager.TRUE:
            return None
        witness = (
            self._sat_witness(node)
            if self.engine == "sat"
            else self._bdd_witness(node)
        )
        if witness is None:
            return None
        full = {x: witness.get(x, False) for x in self.network.inputs}
        if not self._exprs.evaluate(node, full):
            return full
        return None

    def _bdd_witness(self, node: int) -> dict[str, bool] | None:
        """A path to ZERO in the BDD of ``node``, by PI name."""
        bdd_node = self._bdd_node(node)
        assert self._bdd is not None
        model = self._bdd.any_model(self._bdd.negate(bdd_node))
        if model is None:
            return None
        names = {self._bdd.var_level(x): x for x in self.network.inputs}
        return {names[level]: value for level, value in model.items()}

    def _sat_witness(self, node: int) -> dict[str, bool] | None:
        """SAT model of ¬(S0+S1) (∧ care), mapped back to PI names."""
        ctx = self._context
        assert ctx is not None
        exprs = self._exprs
        if exprs.kind[node] == "const":
            if exprs.data[node]:
                return None  # TRUE has no counterexample
            # FALSE fails on every vector; the witness must still come
            # from the care image, so solve under the care constraint
            # alone (no assumption) when one is attached.
            assumptions: tuple[int, ...] = ()
        else:
            assumptions = (-self._encode_node(node),)
        if self.care is not None:
            self._ensure_care_session()
        elif not assumptions:
            return {}
        if ctx.session.solve(assumptions) is SolveResult.UNSAT:
            return None
        model = ctx.session.model()
        return {pi: model[var] for pi, var in ctx.pi_vars.items()}

    def functional_delay(self, output: str) -> float:
        """Exact XBD0 stable time of ``output`` under this arrival condition.

        Binary search over the finite candidate event times (stability
        is monotone in ``t``).  Returns ``-inf`` for outputs stable from
        the beginning of time (constants) and ``+inf`` for outputs never
        stable at a finite time (every path that decides them starts at
        an input that never arrives).
        """
        if not self.network.has_signal(output):
            raise AnalysisError(f"unknown signal {output!r}")
        if self._event_times is None:
            self._event_times = event_time_candidates(
                self.network, self.arrival
            )
        cands = self._event_times.get(output, ())
        finite = [c for c in cands if NEG_INF < c < POS_INF]
        if not finite:
            return NEG_INF if self.stable_at(output, NEG_INF) else POS_INF
        ascending = sorted(finite)
        if not self.stable_at(output, ascending[-1]):
            # No event happens past the last finite candidate, so the
            # output settles only once a never-arriving input arrives.
            return POS_INF
        lo, hi = 0, len(ascending) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.stable_at(output, ascending[mid]):
                hi = mid
            else:
                lo = mid + 1
        if lo == 0 and self.stable_at(output, ascending[0] - 1.0):
            return NEG_INF
        return ascending[lo]


def functional_delays(
    network: Network,
    arrival: Mapping[str, float] | None = None,
    outputs: tuple[str, ...] | None = None,
    tracer: Tracer | None = None,
) -> dict[str, float]:
    """Exact XBD0 stable time of each requested output (default: all POs).

    Flat analysis: runs on :data:`FLAT_ENGINE`.
    """
    analyzer = StabilityAnalyzer(network, arrival, FLAT_ENGINE, tracer=tracer)
    targets = outputs if outputs is not None else network.outputs
    return {o: analyzer.functional_delay(o) for o in targets}


def circuit_delay(
    network: Network, arrival: Mapping[str, float] | None = None
) -> float:
    """Exact XBD0 delay of the circuit: max over primary outputs."""
    if not network.outputs:
        raise AnalysisError("network has no outputs")
    delays = functional_delays(network, arrival)
    return max(delays.values())


def topological_upper_bound(
    network: Network, arrival: Mapping[str, float] | None = None
) -> float:
    """Topological circuit delay (the trivial upper bound)."""
    at = arrival_times(network, arrival)
    if not network.outputs:
        raise AnalysisError("network has no outputs")
    return max(at[o] for o in network.outputs)
