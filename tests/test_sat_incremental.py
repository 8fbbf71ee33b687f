"""Property tests for the incremental SAT session.

An :class:`IncrementalSolver` session must be an *exact* stand-in for a
fresh :class:`Solver` on the currently-live clause set: the same
SAT/UNSAT verdict at every point of a push/pop script, under arbitrary
assumptions, and regardless of how aggressively the learned-clause
database is reduced.  Models are checked semantically (they must satisfy
the live clauses) since the search order legitimately differs.

The tests at the bottom pin the demand-driven refinement contract: the
per-cone sessions decide every check as the one-shot oracle of
``tests/reference.py`` does.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.sat.cnf import CNF
from repro.sat.incremental import IncrementalSolver
from repro.sat.solver import Solver, SolveResult


def random_clauses(rng, num_vars, count):
    """Random 1..3-literal clauses over ``num_vars`` variables."""
    out = []
    for _ in range(count):
        width = rng.randint(1, 3)
        vs = rng.sample(range(1, num_vars + 1), width)
        out.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return out


def reference_solve(num_vars, clauses, assumptions=()):
    """Fresh one-shot solve of exactly the live clause set."""
    cnf = CNF()
    while cnf.num_vars < num_vars:
        cnf.new_var()
    for c in clauses:
        cnf.add_clause(c)
    for a in assumptions:
        cnf.add_clause((a,))
    return Solver(cnf).solve()


def assert_model_satisfies(model, clauses, assumptions=()):
    for clause in list(clauses) + [(a,) for a in assumptions]:
        assert any(
            model.get(abs(lit), False) == (lit > 0) for lit in clause
        ), f"model violates {clause}"


class TestSessionEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_push_pop_script_matches_fresh_solver(self, seed):
        """Random interleavings of add/push/pop/solve track a fresh solver."""
        rng = random.Random(seed)
        num_vars = rng.randint(3, 8)
        session = IncrementalSolver()
        for _ in range(num_vars):
            session.new_var()
        permanent = random_clauses(rng, num_vars, rng.randint(1, 6))
        for c in permanent:
            session.add_clause(c)
        # stack of live frame clause-batches mirrors the session frames
        live_frames: list[list[tuple[int, ...]]] = []
        for _ in range(rng.randint(2, 10)):
            op = rng.random()
            if op < 0.4:
                session.push()
                batch = random_clauses(rng, num_vars, rng.randint(1, 4))
                for c in batch:
                    session.add_clause(c)
                live_frames.append(batch)
            elif op < 0.6 and live_frames:
                session.pop()
                live_frames.pop()
            else:
                live = permanent + [c for b in live_frames for c in b]
                result = session.solve()
                assert result is reference_solve(num_vars, live)
                if result is SolveResult.SAT:
                    assert_model_satisfies(session.model(), live)
        # after draining every frame only the permanent clauses remain
        while session.depth:
            session.pop()
        result = session.solve()
        assert result is reference_solve(num_vars, permanent)
        if result is SolveResult.SAT:
            assert_model_satisfies(session.model(), permanent)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_assumptions_match_unit_clauses(self, seed):
        """solve(assumptions) ≡ fresh solve with the assumptions as units."""
        rng = random.Random(seed)
        num_vars = rng.randint(3, 8)
        session = IncrementalSolver()
        for _ in range(num_vars):
            session.new_var()
        clauses = random_clauses(rng, num_vars, rng.randint(2, 10))
        for c in clauses:
            session.add_clause(c)
        for _ in range(4):
            vs = rng.sample(range(1, num_vars + 1), rng.randint(1, 3))
            assumptions = tuple(
                v if rng.random() < 0.5 else -v for v in vs
            )
            result = session.solve(assumptions)
            assert result is reference_solve(num_vars, clauses, assumptions)
            if result is SolveResult.SAT:
                assert_model_satisfies(session.model(), clauses, assumptions)
        # an assumption-falsified UNSAT must not poison the session
        assert session.solve() is reference_solve(num_vars, clauses)

    def test_contradictory_assumptions_unsat_then_recover(self):
        session = IncrementalSolver()
        x = session.new_var()
        y = session.new_var()
        session.add_clause((x, y))
        assert session.solve((x, -x)) is SolveResult.UNSAT
        assert session.solve((-x,)) is SolveResult.SAT
        assert session.model()[y] is True
        assert session.solve() is SolveResult.SAT

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_db_reduction_boundary(self, seed):
        """A tiny reduce_base forces clause-DB sweeps mid-session; frame
        retraction must stay sound across them."""
        rng = random.Random(seed)
        num_vars = rng.randint(6, 10)
        session = IncrementalSolver(reduce_base=1)
        for _ in range(num_vars):
            session.new_var()
        permanent = random_clauses(rng, num_vars, rng.randint(4, 12))
        for c in permanent:
            session.add_clause(c)
        for _ in range(6):
            session.push()
            batch = random_clauses(rng, num_vars, rng.randint(2, 6))
            for c in batch:
                session.add_clause(c)
            live = permanent + batch
            result = session.solve()
            assert result is reference_solve(num_vars, live)
            if result is SolveResult.SAT:
                assert_model_satisfies(session.model(), live)
            session.pop()
            # retraction restored the permanent-only verdict
            assert session.solve() is reference_solve(num_vars, permanent)


class TestSessionSurface:
    def test_pop_without_push_raises(self):
        with pytest.raises(SolverError):
            IncrementalSolver().pop()

    def test_add_cnf_then_solve(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause((a,))
        cnf.add_clause((-a, b))
        session = IncrementalSolver()
        session.add_cnf(cnf)
        assert session.num_vars == cnf.num_vars
        assert session.solve() is SolveResult.SAT
        model = session.model()
        assert model[a] is True and model[b] is True

    def test_stats_track_lifecycle(self):
        session = IncrementalSolver()
        x = session.new_var()
        session.add_clause((x,))
        session.push()
        session.add_clause((-x,))
        assert session.solve() is SolveResult.UNSAT
        session.pop()
        assert session.solve() is SolveResult.SAT
        stats = session.stats
        assert stats["solve_calls"] == 2
        assert stats["frames_pushed"] == 1
        assert stats["frames_popped"] == 1
        assert stats["clauses_added"] >= 2


def _assert_session_matches_oracle(design, monkeypatch):
    """Run the demand loop on the shipped per-cone sessions and on the
    one-shot oracle; both must refine the same weights with the same
    checks.  Returns the session run's analyzer and result."""
    import repro.core.demand as demand
    from repro.api import AnalysisOptions
    from repro.core.hier import HierarchicalAnalyzer
    from tests.reference import OneShotStabilityAnalyzer

    analyzer = demand.DemandDrivenAnalyzer(design)
    inc = analyzer.analyze()
    with monkeypatch.context() as patch:
        patch.setattr(demand, "StabilityAnalyzer", OneShotStabilityAnalyzer)
        one = demand.DemandDrivenAnalyzer(design).analyze()
    assert inc.refinement_checks > 0 and inc.refined_weights
    assert inc.output_times == one.output_times
    assert inc.refined_weights == one.refined_weights
    assert inc.refinement_checks == one.refinement_checks
    topological = HierarchicalAnalyzer(
        design, options=AnalysisOptions(functional=False)
    ).analyze()
    for out, t in inc.output_times.items():
        assert t <= topological.output_times[out] + 1e-12
    return analyzer, inc


class TestSatModesAgree:
    """The per-cone sessions decide every refinement check exactly as
    the one-shot oracle of ``tests/reference.py`` does."""

    def test_incremental_matches_oneshot(self, monkeypatch):
        """Per-cone sessions refine exactly what per-check re-encoding does."""
        from repro.circuits.adders import cascade_adder

        analyzer, _ = _assert_session_matches_oracle(
            cascade_adder(64, 16), monkeypatch
        )
        contexts = analyzer._contexts.values()
        assert sum(c.nodes_reused for c in contexts) > 0

    @pytest.mark.parametrize(
        "num_inputs,num_gates,seed", [(12, 80, 1), (16, 120, 1), (16, 120, 3)]
    )
    def test_random_cascade_matches_oneshot(
        self, num_inputs, num_gates, seed, monkeypatch
    ):
        """Random reconvergent bipartitions make 8-19 checks each, against
        5 on csa64.16."""
        from repro.circuits.partition import cascade_bipartition
        from repro.circuits.random_logic import random_network

        design = cascade_bipartition(
            random_network(num_inputs, num_gates, seed=seed), 0.5
        )
        _, result = _assert_session_matches_oracle(design, monkeypatch)
        assert result.refinement_checks >= 8

    def test_characterization_matches_oneshot(self, monkeypatch):
        """Characterization runs every check of one output on one shared
        context; the one-shot oracle finds the same tuples with the same
        checks, under per-instance care networks too."""
        import repro.core.required as required
        from repro.circuits.adders import carry_skip_block
        from repro.circuits.random_logic import random_network
        from repro.core.instance_models import instance_care_network
        from tests.reference import OneShotStabilityAnalyzer
        from tests.test_instance_models import sdc_design

        runs = [
            (network, out, None)
            for network in (
                carry_skip_block(8), random_network(12, 80, seed=1)
            )
            for out in network.outputs
        ]
        design = sdc_design()
        for name, inst in design.instances.items():
            module = design.module_of(inst).network
            care = instance_care_network(design, name)
            runs += [(module, out, care) for out in module.outputs]
        for network, out, care in runs:
            shipped = required.approx_required_tuples(network, out, care=care)
            with monkeypatch.context() as patch:
                patch.setattr(
                    required, "StabilityAnalyzer", OneShotStabilityAnalyzer
                )
                oracle = required.approx_required_tuples(
                    network, out, care=care
                )
            assert shipped.checks > 0
            assert (shipped.tuples, shipped.topological, shipped.checks) == (
                oracle.tuples, oracle.topological, oracle.checks
            ), (network.name, out)

    def test_care_checks_match_oneshot(self):
        """Under per-instance care networks (paper footnote 6) the
        session and the oracle agree on every candidate stable time,
        including the ones the care set changes."""
        from repro.circuits.partition import cascade_bipartition
        from repro.circuits.random_logic import random_network
        from repro.core.instance_models import instance_care_network
        from repro.core.xbd0 import StabilityAnalyzer
        from repro.sta.paths import event_time_candidates
        from tests.reference import OneShotStabilityAnalyzer
        from tests.test_instance_models import sdc_design

        designs = [
            sdc_design(),
            cascade_bipartition(random_network(10, 60, seed=1), 0.5),
        ]
        care_changed = 0
        for design in designs:
            for name, inst in design.instances.items():
                module = design.module_of(inst).network
                care = instance_care_network(design, name)
                session = StabilityAnalyzer(module, care=care)
                oracle = OneShotStabilityAnalyzer(module, care=care)
                free = StabilityAnalyzer(module)
                candidates = event_time_candidates(module)
                for out in module.outputs:
                    for t in candidates[out]:
                        stable = session.stable_at(out, t)
                        assert stable == oracle.stable_at(out, t), (
                            design.name, name, out, t
                        )
                        care_changed += stable != free.stable_at(out, t)
        assert care_changed > 0
