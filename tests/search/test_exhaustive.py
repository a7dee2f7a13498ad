"""ES: exhaustive exploration, budgets, optimality on small spaces."""

import pytest

from repro.core.search import SearchBudget, exhaustive_search
from repro.engine import Executor, empirically_equivalent


class TestExhaustive:
    def test_finds_optimum_on_two_branch(self, two_branch, model):
        result = exhaustive_search(two_branch.workflow, model)
        assert result.completed
        assert result.best_cost < result.initial_cost
        assert result.algorithm == "ES"

    def test_best_state_is_equivalent(self, two_branch):
        result = exhaustive_search(two_branch.workflow)
        report = empirically_equivalent(
            two_branch.workflow,
            result.best.workflow,
            two_branch.make_data(seed=9),
            Executor(context=two_branch.context),
        )
        assert report.equivalent

    def test_fig1_space_contains_fig2_shape(self, fig1):
        """ES reaches the Fig. 2 design: σ distributed, γ before A2E."""
        result = exhaustive_search(fig1.workflow)
        assert result.completed
        assert result.best.signature == "((1.8_1.3)//(2.4.6.8_2.5)).7.9"

    def test_max_states_budget(self, two_branch):
        result = exhaustive_search(
            two_branch.workflow, budget=SearchBudget(max_states=5)
        )
        assert not result.completed
        assert result.visited_states <= 5

    def test_max_seconds_budget(self, two_branch):
        result = exhaustive_search(
            two_branch.workflow, budget=SearchBudget(max_seconds=0.0)
        )
        assert not result.completed

    def test_budgeted_run_still_reports_best_so_far(self, two_branch):
        result = exhaustive_search(
            two_branch.workflow, budget=SearchBudget(max_states=5)
        )
        assert result.best_cost <= result.initial_cost

    def test_never_worse_than_initial(self, fig1):
        result = exhaustive_search(fig1.workflow)
        assert result.best_cost <= result.initial_cost

    def test_improvement_percent(self, two_branch):
        result = exhaustive_search(two_branch.workflow)
        expected = 100.0 * (result.initial_cost - result.best_cost) / result.initial_cost
        assert result.improvement_percent == pytest.approx(expected)

    def test_visited_states_deduplicated(self, fig1):
        """Visiting the same signature twice is impossible by construction:
        run twice and check determinism as a proxy."""
        first = exhaustive_search(fig1.workflow)
        second = exhaustive_search(fig1.workflow)
        assert first.visited_states == second.visited_states
        assert first.best.signature == second.best.signature
