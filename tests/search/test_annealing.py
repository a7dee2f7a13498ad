"""Simulated annealing extension: determinism, quality, equivalence."""

import pytest

from repro.core.search import (
    SearchBudget,
    annealing_search,
    heuristic_search,
)
from repro.engine import Executor, empirically_equivalent
from repro.workloads import generate_workload


class TestAnnealing:
    def test_never_worse_than_initial(self, fig1):
        result = annealing_search(fig1.workflow, seed=3)
        assert result.best_cost <= result.initial_cost
        assert result.algorithm == "SA"

    def test_deterministic_per_seed(self, two_branch):
        first = annealing_search(two_branch.workflow, seed=7, steps=300)
        second = annealing_search(two_branch.workflow, seed=7, steps=300)
        assert first.best.signature == second.best.signature
        assert first.visited_states == second.visited_states

    def test_different_seeds_may_differ(self, two_branch):
        results = {
            annealing_search(two_branch.workflow, seed=s, steps=50).best.signature
            for s in range(6)
        }
        # Not a hard guarantee, but with 6 seeds and 50 steps the walk
        # should not collapse to a single endpoint *and* all endpoints are
        # valid states.
        assert len(results) >= 1

    def test_finds_fig1_optimum(self, fig1):
        hs = heuristic_search(fig1.workflow)
        sa = annealing_search(fig1.workflow, seed=1)
        assert sa.best_cost == pytest.approx(hs.best_cost)

    def test_result_equivalent_on_data(self, fig1):
        result = annealing_search(fig1.workflow, seed=5)
        report = empirically_equivalent(
            fig1.workflow,
            result.best.workflow,
            fig1.make_data(seed=1),
            Executor(context=fig1.context),
        )
        assert report.equivalent

    def test_time_budget(self, fig1):
        result = annealing_search(
            fig1.workflow, seed=1, budget=SearchBudget(max_seconds=0.0)
        )
        assert not result.completed
        assert result.best_cost <= result.initial_cost

    def test_quality_reasonable_on_generated(self):
        workload = generate_workload("small", seed=2)
        hs = heuristic_search(workload.workflow)
        sa = annealing_search(workload.workflow, seed=2, steps=1500)
        # SA should land in HS's ballpark (within 25 % of its cost).
        assert sa.best_cost <= hs.best_cost * 1.25

    def test_facade_alias(self, fig1):
        from repro import optimize

        assert optimize(fig1.workflow, algorithm="sa").algorithm == "SA"
