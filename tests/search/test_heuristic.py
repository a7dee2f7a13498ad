"""HS and HS-Greedy: phases, merge constraints, budgets, quality."""

import gc
import types

import pytest

from repro.core.activity import CompositeActivity
from repro.core.search import (
    SearchBudget,
    exhaustive_search,
    greedy_search,
    heuristic_search,
)
from repro.engine import Executor, empirically_equivalent
from repro.exceptions import SchemaError
from repro.workloads import generate_workload


def _live_tracebacks():
    return sum(
        isinstance(obj, types.TracebackType) for obj in gc.get_objects()
    )


class TestHeuristicSearch:
    def test_matches_exhaustive_on_fig1(self, fig1):
        es = exhaustive_search(fig1.workflow)
        hs = heuristic_search(fig1.workflow)
        assert hs.best_cost == pytest.approx(es.best_cost)

    def test_matches_exhaustive_on_two_branch(self, two_branch):
        es = exhaustive_search(two_branch.workflow)
        hs = heuristic_search(two_branch.workflow)
        assert hs.best_cost == pytest.approx(es.best_cost)

    def test_visits_fewer_states_than_es(self, two_branch):
        es = exhaustive_search(two_branch.workflow)
        hs = heuristic_search(two_branch.workflow)
        assert hs.visited_states <= es.visited_states

    def test_best_state_is_equivalent(self, fig1):
        result = heuristic_search(fig1.workflow)
        report = empirically_equivalent(
            fig1.workflow,
            result.best.workflow,
            fig1.make_data(seed=21),
            Executor(context=fig1.context),
        )
        assert report.equivalent

    def test_never_worse_than_initial(self, fig1, two_branch):
        for scenario in (fig1, two_branch):
            result = heuristic_search(scenario.workflow)
            assert result.best_cost <= result.initial_cost

    def test_repeated_runs_leave_no_traceback_alive(self):
        # A rejection's traceback pins every frame it passes through, and
        # those frames hold the orderings and states being priced.
        workflow = generate_workload("small", seed=0).workflow
        gc.collect()
        before = _live_tracebacks()
        for _ in range(2):
            heuristic_search(workflow)
        gc.collect()
        cached = [
            value
            for activity in workflow.activities()
            for value in activity._derive_cache.values()
            if isinstance(value, SchemaError)
        ]
        assert cached, "the search must cache a rejection"
        assert all(error.__traceback__ is None for error in cached)
        assert _live_tracebacks() == before

    def test_deterministic(self, two_branch):
        first = heuristic_search(two_branch.workflow)
        second = heuristic_search(two_branch.workflow)
        assert first.best.signature == second.best.signature
        assert first.visited_states == second.visited_states

    def test_time_budget_returns_best_so_far(self, two_branch):
        result = heuristic_search(
            two_branch.workflow, budget=SearchBudget(max_seconds=0.0)
        )
        assert not result.completed
        assert result.best_cost <= result.initial_cost

    def test_no_composites_in_final_state(self, fig1):
        result = heuristic_search(
            fig1.workflow, merge_constraints=(("4", "5"),)
        )
        assert not any(
            isinstance(a, CompositeActivity)
            for a in result.best.workflow.activities()
        )

    def test_merge_constraint_keeps_pair_together(self, fig1):
        """With 5 and 6 merged, γ cannot be swapped before A2E, so the best
        state keeps the 5.6 order."""
        free = heuristic_search(fig1.workflow)
        constrained = heuristic_search(
            fig1.workflow, merge_constraints=(("5", "6"),)
        )
        # γ (6) precedes A2E (5) in the free optimum; the constraint pins
        # the original 5-before-6 order. Each id occurs once per signature.
        assert free.best.signature.index("6") < free.best.signature.index("5")
        assert constrained.best.signature.index("5") < constrained.best.signature.index("6")
        assert constrained.best_cost >= free.best_cost

    def test_reported_initial_is_unmerged(self, fig1):
        result = heuristic_search(fig1.workflow, merge_constraints=(("4", "5"),))
        assert result.initial.signature == "((1.3)//(2.4.5.6)).7.8.9"


class TestGreedy:
    def test_greedy_algorithm_label(self, fig1):
        assert greedy_search(fig1.workflow).algorithm == "HS-Greedy"

    def test_greedy_visits_fewer_states_than_hs(self):
        workload = generate_workload("small", seed=4)
        hs = heuristic_search(workload.workflow)
        greedy = greedy_search(workload.workflow)
        assert greedy.visited_states < hs.visited_states

    def test_greedy_quality_at_most_hs(self):
        workload = generate_workload("small", seed=4)
        hs = heuristic_search(workload.workflow)
        greedy = greedy_search(workload.workflow)
        assert greedy.best_cost >= hs.best_cost - 1e-9

    def test_greedy_equivalent_on_data(self, two_branch):
        result = greedy_search(two_branch.workflow)
        report = empirically_equivalent(
            two_branch.workflow,
            result.best.workflow,
            two_branch.make_data(seed=2),
            Executor(context=two_branch.context),
        )
        assert report.equivalent

    def test_greedy_never_worse_than_initial(self, fig1):
        result = greedy_search(fig1.workflow)
        assert result.best_cost <= result.initial_cost


class TestOptimizeFacade:
    def test_algorithm_aliases(self, fig1):
        from repro import optimize

        assert optimize(fig1.workflow, algorithm="ES").algorithm == "ES"
        assert optimize(fig1.workflow, algorithm="hs").algorithm == "HS"
        assert (
            optimize(fig1.workflow, algorithm="HS-Greedy").algorithm == "HS-Greedy"
        )

    def test_unknown_algorithm(self, fig1):
        from repro import ReproError, optimize

        with pytest.raises(ReproError, match="unknown algorithm"):
            optimize(fig1.workflow, algorithm="quantum")

    def test_kwargs_forwarded(self, fig1):
        from repro import optimize

        one_step = optimize(fig1.workflow, algorithm="sa", steps=1)
        default = optimize(fig1.workflow, algorithm="sa")
        assert one_step.visited_states < default.visited_states
        with pytest.raises(TypeError, match="steps"):
            optimize(fig1.workflow, algorithm="hs", steps=1)

    def test_summary_mentions_algorithm(self, fig1):
        from repro import optimize

        summary = optimize(fig1.workflow).summary()
        assert "HS" in summary and "%" in summary
