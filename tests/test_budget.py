"""Tests for input timing budgets (the [4] application)."""

import pytest

from repro.core.budget import input_budgets
from repro.core.timing_model import POS_INF
from repro.core.xbd0 import StabilityAnalyzer
from repro.errors import AnalysisError


class TestCarrySkipBudget:
    def test_cout_only_budget(self, csa_block2):
        budget = input_budgets(csa_block2, {"c_out": 8.0})
        assert budget.inputs == csa_block2.inputs
        # functional: c_in may arrive at 6 (8 - effective 2)
        assert budget.tuples == ((6.0, 0.0, 0.0, 2.0, 2.0),)
        # topological: c_in must arrive by 2 (8 - path 6)
        assert budget.topological == (2.0, 0.0, 0.0, 2.0, 2.0)
        assert budget.slack_gain()["c_in"] == 4.0
        assert budget.slack_gain()["a0"] == 0.0

    def test_all_outputs_budget(self, csa_block2):
        budget = input_budgets(
            csa_block2, {"s0": 10.0, "s1": 10.0, "c_out": 10.0}
        )
        (tup,) = budget.tuples
        by_name = dict(zip(budget.inputs, tup))
        # c_in: min(10-2 via s0, 10-4 via s1, 10-2 via c_out) = 6
        assert by_name["c_in"] == 6.0
        # a0: min(10-4, 10-6, 10-8) = 2
        assert by_name["a0"] == 2.0

    def test_budget_tuples_are_valid(self, csa_block2):
        """Arrivals at the budget keep every output inside its deadline."""
        required = {"s0": 9.0, "s1": 11.0, "c_out": 9.0}
        budget = input_budgets(csa_block2, required)
        for tup in budget.tuples:
            arrival = {
                x: (0.0 if v == POS_INF else v)
                for x, v in zip(budget.inputs, tup)
            }
            analyzer = StabilityAnalyzer(csa_block2, arrival)
            for out, deadline in required.items():
                assert analyzer.stable_at(out, deadline), (tup, out)

    def test_budget_never_tighter_than_topological(self, csa_block2):
        budget = input_budgets(csa_block2, {"c_out": 8.0, "s1": 8.0})
        for tup in budget.tuples:
            assert all(
                v >= base - 1e-9
                for v, base in zip(tup, budget.topological)
            )

    def test_unconstrained_outputs_do_not_constrain(self, csa_block2):
        budget = input_budgets(csa_block2, {"s0": 6.0})
        by_name = dict(zip(budget.inputs, budget.tuples[0]))
        # a1/b1 do not feed s0 at all
        assert by_name["a1"] == POS_INF
        assert by_name["b1"] == POS_INF

    def test_models_reuse(self, csa_block2):
        from repro.core.required import characterize_network

        models = characterize_network(csa_block2)
        a = input_budgets(csa_block2, {"c_out": 8.0}, models=models)
        b = input_budgets(csa_block2, {"c_out": 8.0})
        assert a.tuples == b.tuples

    def test_errors(self, csa_block2):
        with pytest.raises(AnalysisError):
            input_budgets(csa_block2, {})
        with pytest.raises(AnalysisError):
            input_budgets(csa_block2, {"ghost": 1.0})
