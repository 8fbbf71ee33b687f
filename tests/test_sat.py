"""Unit and property tests for the CNF container and CDCL solver."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.adders import cascade_adder
from repro.circuits.partition import cascade_bipartition
from repro.circuits.random_logic import random_network
from repro.core.demand import DemandDrivenAnalyzer
from repro.core.xbd0 import StabilityAnalyzer, StabilityContext
from repro.errors import SolverError
from repro.sat.cnf import CNF
from repro.sat.solver import Solver, SolveResult, luby, solve_cnf


class TestCNF:
    def test_new_vars(self):
        cnf = CNF()
        assert cnf.new_vars(3) == [1, 2, 3]
        assert cnf.num_vars == 3

    def test_unallocated_literal_rejected(self):
        cnf = CNF(2)
        with pytest.raises(SolverError):
            cnf.add_clause((3,))

    def test_zero_literal_rejected(self):
        cnf = CNF(1)
        with pytest.raises(SolverError):
            cnf.add_clause((0,))

    def test_evaluate(self):
        cnf = CNF(2)
        cnf.add_clause((1, 2))
        cnf.add_clause((-1,))
        assert cnf.evaluate({1: False, 2: True})
        assert not cnf.evaluate({1: True, 2: True})

    def test_copy_independent(self):
        cnf = CNF(1)
        cnf.add_clause((1,))
        cp = cnf.copy()
        cp.add_clause((-1,))
        assert len(cnf) == 1
        assert len(cp) == 2


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8
        ]

    def test_invalid(self):
        with pytest.raises(SolverError):
            luby(0)


def _pigeonhole(pigeons: int, holes: int) -> CNF:
    cnf = CNF(pigeons * holes)

    def var(i, j):
        return 1 + i * holes + j

    for i in range(pigeons):
        cnf.add_clause(tuple(var(i, j) for j in range(holes)))
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                cnf.add_clause((-var(i1, j), -var(i2, j)))
    return cnf


class TestSolverBasics:
    def test_empty_formula_sat(self):
        assert Solver(CNF()).solve() is SolveResult.SAT

    def test_unit_clauses(self):
        cnf = CNF(2)
        cnf.add_clause((1,))
        cnf.add_clause((-2,))
        result, model = solve_cnf(cnf)
        assert result is SolveResult.SAT
        assert model[1] is True and model[2] is False

    def test_trivial_unsat(self):
        cnf = CNF(1)
        cnf.add_clause((1,))
        cnf.add_clause((-1,))
        assert Solver(cnf).solve() is SolveResult.UNSAT

    def test_tautological_clause_dropped(self):
        cnf = CNF(1)
        solver = Solver(cnf)
        solver.add_clause((1, -1))
        assert solver.solve() is SolveResult.SAT

    def test_add_clause_simplifies_at_level_zero(self):
        solver = Solver()
        with pytest.raises(SolverError):
            solver.add_clause((1, 0))
        solver.add_clause((1,))
        solver.add_clause((-1, 2, 2, -1))  # -1 is false at level 0: unit 2
        assert solver.model() == {1: True, 2: True}
        solver.add_clause((3, 1, -3))  # satisfied and tautological
        assert solver.num_vars == 3 and solver.ok
        solver.add_clause((-2, -1))  # every literal false at level 0
        assert not solver.ok
        assert solver.solve() is SolveResult.UNSAT

    def test_propagation_chain(self):
        # implications 1 -> 2 -> 3 -> -1 force 1 false
        cnf = CNF(3)
        cnf.add_clause((-1, 2))
        cnf.add_clause((-2, 3))
        cnf.add_clause((-3, -1))
        cnf.add_clause((1, 2))
        result, model = solve_cnf(cnf)
        assert result is SolveResult.SAT
        assert cnf.evaluate(model)

    def test_model_satisfies_formula(self):
        cnf = CNF(4)
        cnf.add_clause((1, 2))
        cnf.add_clause((-1, 3))
        cnf.add_clause((-3, -2, 4))
        cnf.add_clause((-4, 1))
        result, model = solve_cnf(cnf)
        assert result is SolveResult.SAT
        assert cnf.evaluate(model)

    def test_pigeonhole_3_into_2_unsat(self):
        assert Solver(_pigeonhole(3, 2)).solve() is SolveResult.UNSAT

    def test_pigeonhole_4_into_3_unsat(self):
        assert Solver(_pigeonhole(4, 3)).solve() is SolveResult.UNSAT

    def test_add_clause_mid_search_rejected(self):
        cnf = CNF(2)
        cnf.add_clause((1, 2))
        solver = Solver(cnf)
        solver.solve()
        # after solve, decision levels may remain; adding must fail then
        if solver._trail_lim:
            with pytest.raises(SolverError):
                solver.add_clause((1,))

    def test_conflict_limit(self):
        with pytest.raises(SolverError):
            Solver(_pigeonhole(4, 3)).solve(conflict_limit=1)


class TestAssumptions:
    def test_assumption_forces_value(self):
        cnf = CNF(2)
        cnf.add_clause((1, 2))
        solver = Solver(cnf)
        assert solver.solve(assumptions=[-1]) is SolveResult.SAT
        assert solver.model()[2] is True

    def test_conflicting_assumptions_unsat(self):
        cnf = CNF(2)
        cnf.add_clause((1, 2))
        solver = Solver(cnf)
        assert solver.solve(assumptions=[-1, -2]) is SolveResult.UNSAT

    def test_assumption_vs_implication_unsat(self):
        cnf = CNF(2)
        cnf.add_clause((-1, 2))
        solver = Solver(cnf)
        assert solver.solve(assumptions=[1, -2]) is SolveResult.UNSAT

    def test_reusable_across_assumption_sets(self):
        cnf = CNF(3)
        cnf.add_clause((1, 2, 3))
        solver = Solver(cnf)
        assert solver.solve(assumptions=[-1, -2]) is SolveResult.SAT
        assert solver.model()[3] is True
        assert solver.solve(assumptions=[-1, -3]) is SolveResult.SAT
        assert solver.model()[2] is True
        assert solver.solve(assumptions=[-1, -2, -3]) is SolveResult.UNSAT
        assert solver.solve(assumptions=[]) is SolveResult.SAT


def _random_3sat(seed: int, num_vars: int, num_clauses: int) -> CNF:
    rng = random.Random(seed)
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return cnf


def _cnf_solver(cnf: CNF) -> Solver:
    solver = Solver(cnf)
    assert solver.solve() is SolveResult.UNSAT
    return solver


def _csa16_4_session_solver() -> Solver:
    ctx = StabilityContext()
    analyzer = StabilityAnalyzer(cascade_adder(16, 4).flatten(), context=ctx)
    for out in analyzer.network.outputs:
        analyzer.functional_delay(out)
    return ctx.session._solver


_SEARCH_KEYS = ("decisions", "conflicts", "propagations", "learned", "restarts")


class TestSearchPinned:
    """Counts recorded before the solver's hot loops moved to flat arrays.

    A change to the solver's mechanics must reproduce them exactly: the
    same decisions, conflicts, propagations and learned clauses.
    """

    @pytest.mark.parametrize(
        ("make", "expected"),
        [
            (lambda: _cnf_solver(_pigeonhole(6, 5)), (200, 159, 1827, 154, 3)),
            (
                lambda: _cnf_solver(_random_3sat(1, 80, 340)),
                (184, 140, 2443, 135, 3),
            ),
            (_csa16_4_session_solver, (1578, 414, 39321, 373, 0)),
        ],
        ids=["php6_5", "random_3sat", "csa16_4_session"],
    )
    def test_same_search(self, make, expected):
        solver = make()
        assert tuple(solver.stats[k] for k in _SEARCH_KEYS) == expected
        # No variable is pushed twice at one activity.
        current = collections.Counter(
            var
            for negact, var in solver._heap
            if -negact == solver._activity[var]
        )
        assert [v for v, n in current.items() if n > 1] == []

    @pytest.mark.parametrize(
        ("num_inputs", "num_gates", "expected"),
        [(16, 120, (37, 22, 1042, 15, 0)), (12, 80, (52, 42, 2851, 30, 0))],
    )
    def test_same_search_on_demand_loop(self, num_inputs, num_gates, expected):
        """Counts recorded before the stability walk memoized gate
        expansions, summed over the per-cone sessions of one Section-5
        run on a random reconvergent bipartition."""
        design = cascade_bipartition(
            random_network(num_inputs, num_gates, seed=1), 0.5
        )
        analyzer = DemandDrivenAnalyzer(design)
        analyzer.analyze()
        solvers = [c.session._solver for c in analyzer._contexts.values()]
        assert tuple(
            sum(solver.stats[k] for solver in solvers) for k in _SEARCH_KEYS
        ) == expected


def _brute_force_sat(num_vars: int, clauses: list[tuple[int, ...]]) -> bool:
    for bits in itertools.product((False, True), repeat=num_vars):
        assignment = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause)
            for clause in clauses
        ):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solver_agrees_with_brute_force(data):
    num_vars = data.draw(st.integers(1, 8))
    num_clauses = data.draw(st.integers(1, 24))
    literal = st.integers(1, num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = [
        tuple(data.draw(st.lists(literal, min_size=1, max_size=4)))
        for _ in range(num_clauses)
    ]
    cnf = CNF(num_vars)
    for c in clauses:
        cnf.add_clause(c)
    result, model = solve_cnf(cnf)
    expected = _brute_force_sat(num_vars, clauses)
    assert (result is SolveResult.SAT) == expected
    if model is not None:
        assert cnf.evaluate(model)
