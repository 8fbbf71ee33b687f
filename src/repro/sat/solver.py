"""A CDCL SAT solver.

Implements the standard modern architecture: two-watched-literal unit
propagation, first-UIP conflict analysis with clause learning and
non-chronological backjumping, exponential VSIDS branching with phase
saving, and Luby-sequence restarts.  Assumptions are supported (replayed as
the first decisions; a falsified assumption reports UNSAT).

The solver is self-contained because the offline environment ships no SAT
package.  It is sized for the workloads of this library: tautology checks
of XBD0 stability functions over circuits of a few thousand gates.
"""

from __future__ import annotations

import enum
import heapq
from typing import Iterable, Sequence

from repro.errors import SolverError
from repro.sat.cnf import CNF


class SolveResult(enum.Enum):
    """Outcome of a :meth:`Solver.solve` call."""

    SAT = "SAT"
    UNSAT = "UNSAT"


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    if i <= 0:
        raise SolverError("luby sequence is 1-based")
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


_UNASSIGNED = -1


class Solver:
    """CDCL solver over integer (DIMACS-style) literals.

    Typical use::

        solver = Solver(cnf)
        if solver.solve() is SolveResult.SAT:
            model = solver.model()   # dict var -> bool
    """

    def __init__(self, cnf: CNF | None = None, reduce_base: int = 4000):
        self._nvars = 0
        #: Learned-clause count that triggers the first DB reduction.
        self._reduce_base = reduce_base
        # Clause database: lists of internal literals, watches at slots 0/1.
        self._clauses: list[list[int]] = []
        # Internal literal -> clause indices; var v maps to lits 2v / 2v+1,
        # so slots 0 and 1 are permanently unused.
        self._watches: list[list[int]] = [[], []]
        # Internal literal -> 1 true / 0 false / _UNASSIGNED; both literals
        # of a variable are always written together.
        self._lval: list[int] = [_UNASSIGNED, _UNASSIGNED]
        self._level: list[int] = [0]
        self._reason: list[int] = [-1]
        self._phase: list[int] = [0]
        self._activity: list[float] = [0.0]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._empty_clause = False
        # Lazy max-activity heap of (-activity, var); entries are stale
        # once the variable is assigned or its activity moved on.
        # _in_heap[var] is set while the heap holds an entry at var's
        # current activity, so no variable is pushed twice at one activity.
        self._heap: list[tuple[float, int]] = []
        self._in_heap: list[bool] = [False]
        # Learned-clause bookkeeping for DB reduction.
        self._learned_idxs: list[int] = []
        self._reductions = 0
        self.stats = {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
            "learned": 0,
            "deleted": 0,
        }
        if cnf is not None:
            self.add_cnf(cnf)

    # ----------------------------------------------------------- construction
    @property
    def num_vars(self) -> int:
        """Number of variables the solver currently knows about."""
        return self._nvars

    @property
    def ok(self) -> bool:
        """False once the clause database is known unsatisfiable."""
        return not self._empty_clause

    def new_var(self) -> int:
        """Allocate (and return) one fresh variable."""
        self._ensure_vars(self._nvars + 1)
        return self._nvars

    def _ensure_vars(self, nvars: int) -> None:
        while self._nvars < nvars:
            self._nvars += 1
            self._lval.append(_UNASSIGNED)
            self._lval.append(_UNASSIGNED)
            self._level.append(0)
            self._reason.append(-1)
            self._phase.append(0)
            self._activity.append(0.0)
            heapq.heappush(self._heap, (0.0, self._nvars))
            self._in_heap.append(True)
            self._watches.append([])  # positive literal of the new var
            self._watches.append([])  # negative literal

    def add_cnf(self, cnf: CNF) -> None:
        """Load every clause of ``cnf`` (may be called repeatedly)."""
        self._ensure_vars(cnf.num_vars)
        for clause in cnf:
            self.add_clause(clause)

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause of DIMACS literals (only at decision level 0).

        Every variable the clause names is allocated, even when the
        clause is then dropped as a tautology or as satisfied at level 0.
        """
        if self._trail_lim:
            raise SolverError("cannot add clauses mid-search")
        lits: list[int] = []
        top = 0
        for ext in literals:
            if ext > 0:
                lits.append(ext << 1)
                if ext > top:
                    top = ext
            elif ext:
                lits.append((-ext << 1) | 1)
                if -ext > top:
                    top = -ext
            else:
                raise SolverError("literal 0 is not allowed")
        if top > self._nvars:
            self._ensure_vars(top)
        # One pass: drop duplicates and level-0 false literals, give up on
        # tautologies and on clauses already true at level 0.  Clauses
        # are short (Tseitin gates), so scanning the list beats a set.
        lval = self._lval
        clause: list[int] = []
        for lit in lits:
            val = lval[lit]
            if val == 1:
                return
            if val == 0 or lit in clause:
                continue
            if lit ^ 1 in clause:
                return
            clause.append(lit)
        if not clause:
            self._empty_clause = True
            return
        if len(clause) == 1:
            self._enqueue(clause[0], -1)
            if self._propagate() != -1:
                self._empty_clause = True
            return
        self._attach(clause)

    def _attach(self, lits: list[int]) -> int:
        idx = len(self._clauses)
        self._clauses.append(lits)
        self._watches[lits[0]].append(idx)
        self._watches[lits[1]].append(idx)
        return idx

    def cancel(self) -> None:
        """Return to decision level 0 (keeps learned clauses and phases).

        The incremental session calls this before adding clauses so a
        prior :meth:`solve` cannot leave the solver mid-search.
        """
        self._backtrack(0)

    def purge_satisfied(self, ext: int) -> int:
        """Detach every clause containing ``ext``; returns how many.

        ``ext`` must be true at level 0 — the caller just added it as a
        unit (e.g. the negated activation literal of a popped frame), so
        every clause containing it is permanently satisfied dead weight.
        Level-0 trail entries whose reason clause is purged have the
        reason pointer cleared; conflict analysis never dereferences
        level-0 reasons, so this only keeps the bookkeeping honest.
        """
        if self._trail_lim:
            raise SolverError("cannot purge clauses mid-search")
        lit = self._to_internal(ext)
        if self._lval[lit] != 1:
            raise SolverError("purge literal must be true at level 0")
        purged: set[int] = set()
        for idx, clause in enumerate(self._clauses):
            if not clause or lit not in clause:
                continue
            for watched in clause[:2]:
                try:
                    self._watches[watched].remove(idx)
                except ValueError:  # pragma: no cover - defensive
                    pass
            self._clauses[idx] = []
            purged.add(idx)
            self.stats["deleted"] += 1
        if purged:
            for trail_lit in self._trail:
                var = trail_lit >> 1
                if self._reason[var] in purged:
                    self._reason[var] = -1
            self._learned_idxs = [
                idx for idx in self._learned_idxs if idx not in purged
            ]
        return len(purged)

    # -------------------------------------------------------------- encoding
    @staticmethod
    def _to_internal(ext: int) -> int:
        return (abs(ext) << 1) | (1 if ext < 0 else 0)

    @staticmethod
    def _to_external(lit: int) -> int:
        var = lit >> 1
        return -var if lit & 1 else var

    def _enqueue(self, lit: int, reason: int) -> bool:
        lval = self._lval
        val = lval[lit]
        if val != _UNASSIGNED:
            return val == 1
        lval[lit] = 1
        lval[lit ^ 1] = 0
        var = lit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    # ------------------------------------------------------------ propagation
    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause index or -1."""
        trail = self._trail
        qhead = start = self._qhead
        lval = self._lval
        clauses = self._clauses
        watches = self._watches
        level = self._level
        reason = self._reason
        dlevel = len(self._trail_lim)
        conflict = -1
        while qhead < len(trail) and conflict == -1:
            falsified = trail[qhead] ^ 1
            qhead += 1
            watchers = watches[falsified]
            i = j = 0
            n = len(watchers)
            while i < n:
                cidx = watchers[i]
                i += 1
                clause = clauses[cidx]
                first = clause[0]
                if first == falsified:
                    first = clause[0] = clause[1]
                    clause[1] = falsified
                if lval[first] == 1:
                    watchers[j] = cidx
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if lval[lit] != 0:
                        clause[1] = lit
                        clause[k] = falsified
                        watches[lit].append(cidx)
                        break
                else:
                    watchers[j] = cidx
                    j += 1
                    if lval[first] == 0:
                        conflict = cidx
                        break
                    lval[first] = 1
                    lval[first ^ 1] = 0
                    var = first >> 1
                    level[var] = dlevel
                    reason[var] = cidx
                    trail.append(first)
            # Watchers [j, i) moved to another literal; on a conflict the
            # unvisited tail [i, n) is kept as is.
            del watchers[j:i]
        self.stats["propagations"] += qhead - start
        self._qhead = len(trail)
        return conflict

    # --------------------------------------------------------------- analysis
    def _bump_var(self, var: int) -> None:
        activity = self._activity
        in_heap = self._in_heap
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            lval = self._lval
            for v in range(1, self._nvars + 1):
                activity[v] *= 1e-100
                in_heap[v] = lval[v << 1] == _UNASSIGNED
            self._var_inc *= 1e-100
            self._heap = [
                (-activity[v], v)
                for v in range(1, self._nvars + 1)
                if in_heap[v]
            ]
            heapq.heapify(self._heap)
        heapq.heappush(self._heap, (-activity[var], var))
        in_heap[var] = True

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP learning.  Returns (learned clause, backjump level)."""
        learnt: list[int] = [0]  # slot 0 = asserting literal, filled below
        seen = [False] * (self._nvars + 1)
        counter = 0
        lit = -1
        index = len(self._trail) - 1
        clause = self._clauses[conflict]
        current_level = len(self._trail_lim)
        while True:
            start = 0 if lit == -1 else 1
            for q in clause[start:]:
                var = q >> 1
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self._trail[index] >> 1]:
                index -= 1
            lit = self._trail[index]
            index -= 1
            var = lit >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[var]
            clause = self._clauses[reason]
            if clause[0] != lit:
                pos = clause.index(lit)
                clause[0], clause[pos] = clause[pos], clause[0]
        learnt[0] = lit ^ 1
        if len(learnt) == 1:
            back_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if self._level[learnt[i] >> 1] > self._level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = self._level[learnt[1] >> 1]
        return learnt, back_level

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        lval = self._lval
        reason = self._reason
        phase = self._phase
        activity = self._activity
        heap = self._heap
        in_heap = self._in_heap
        for lit in reversed(self._trail[limit:]):
            var = lit >> 1
            lval[lit] = lval[lit ^ 1] = _UNASSIGNED
            reason[var] = -1
            phase[var] = 1 ^ (lit & 1)
            if not in_heap[var]:
                heapq.heappush(heap, (-activity[var], var))
                in_heap[var] = True
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # --------------------------------------------------------------- decision
    def _decide(self) -> int:
        """Pick an unassigned variable by VSIDS activity; 0 if none left."""
        heap = self._heap
        lval = self._lval
        activity = self._activity
        in_heap = self._in_heap
        while heap:
            negact, var = heapq.heappop(heap)
            if -negact != activity[var]:
                continue  # stale entry; a fresher one exists
            in_heap[var] = False
            if lval[var << 1] == _UNASSIGNED:
                return (var << 1) | (1 if self._phase[var] == 0 else 0)
        # Heap exhausted: verify nothing was missed (cheap fallback scan).
        for var in range(1, self._nvars + 1):
            if lval[var << 1] == _UNASSIGNED:
                return (var << 1) | (1 if self._phase[var] == 0 else 0)
        return 0

    # ------------------------------------------------------------------ solve
    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
    ) -> SolveResult:
        """Decide satisfiability under ``assumptions`` (DIMACS literals).

        Raises :class:`SolverError` if ``conflict_limit`` is exhausted.
        """
        if self._empty_clause:
            return SolveResult.UNSAT
        self._backtrack(0)
        if self._propagate() != -1:
            self._empty_clause = True
            return SolveResult.UNSAT
        for ext in assumptions:
            self._ensure_vars(abs(ext))
        assume = [self._to_internal(a) for a in assumptions]

        restart_idx = 1
        restart_budget = 32 * luby(restart_idx)
        conflicts_total = 0
        while True:
            conflict = self._propagate()
            if conflict != -1:
                self.stats["conflicts"] += 1
                conflicts_total += 1
                restart_budget -= 1
                if len(self._trail_lim) == 0:
                    self._empty_clause = True
                    return SolveResult.UNSAT
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], -1):
                        self._empty_clause = True
                        return SolveResult.UNSAT
                else:
                    idx = self._attach(learnt)
                    self._learned_idxs.append(idx)
                    self.stats["learned"] += 1
                    if not self._enqueue(learnt[0], idx):  # pragma: no cover
                        raise SolverError("asserting literal not enqueueable")
                self._var_inc /= self._var_decay
                if conflict_limit is not None and conflicts_total >= conflict_limit:
                    raise SolverError("conflict limit exhausted")
                continue
            if restart_budget <= 0:
                self.stats["restarts"] += 1
                restart_idx += 1
                restart_budget = 32 * luby(restart_idx)
                self._backtrack(0)
                if len(self._learned_idxs) > (
                    self._reduce_base + 1000 * self._reductions
                ):
                    self._reduce_db()
                continue
            # Replay assumptions as the first decisions.
            pending = 0
            failed = False
            for a in assume:
                val = self._lval[a]
                if val == 0:
                    failed = True
                    break
                if val == _UNASSIGNED:
                    pending = a
                    break
            if failed:
                self._backtrack(0)
                return SolveResult.UNSAT
            if pending:
                self._trail_lim.append(len(self._trail))
                self._enqueue(pending, -1)
                continue
            lit = self._decide()
            if lit == 0:
                return SolveResult.SAT
            self.stats["decisions"] += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, -1)

    def _reduce_db(self) -> None:
        """Drop the older half of the long learned clauses.

        Called only at decision level 0; clauses serving as reasons for
        level-0 assignments and binary clauses are kept.
        """
        reasons = {
            self._reason[lit >> 1]
            for lit in self._trail
            if self._reason[lit >> 1] != -1
        }
        keep_from = len(self._learned_idxs) // 2
        survivors: list[int] = []
        for pos, idx in enumerate(self._learned_idxs):
            clause = self._clauses[idx]
            if (
                pos >= keep_from
                or len(clause) <= 2
                or idx in reasons
                or not clause
            ):
                if clause:
                    survivors.append(idx)
                continue
            for lit in clause[:2]:
                try:
                    self._watches[lit].remove(idx)
                except ValueError:  # pragma: no cover - defensive
                    pass
            self._clauses[idx] = []
            self.stats["deleted"] += 1
        self._learned_idxs = survivors
        self._reductions += 1

    # ------------------------------------------------------------------ model
    def model(self) -> dict[int, bool]:
        """Assignment after a SAT answer (var → bool; unassigned vars False)."""
        lval = self._lval
        return {var: lval[var << 1] == 1 for var in range(1, self._nvars + 1)}


def solve_cnf(
    cnf: CNF, assumptions: Sequence[int] = ()
) -> tuple[SolveResult, dict[int, bool] | None]:
    """One-shot convenience wrapper: returns ``(result, model_or_None)``.

    Thin veneer over :class:`repro.sat.incremental.IncrementalSolver` —
    the blessed entry point.  Callers issuing more than one query over
    related formulas should hold a session instead, so learned clauses
    and encodings carry over between calls.
    """
    from repro.sat.incremental import IncrementalSolver

    session = IncrementalSolver()
    session.add_cnf(cnf)
    result = session.solve(assumptions)
    if result is SolveResult.SAT:
        return result, session.model()
    return result, None
