"""Property-based tests for the search algorithms."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.equivalence import symbolically_equivalent
from repro.core.search import (
    SearchBudget,
    exhaustive_search,
    greedy_search,
    heuristic_search,
)
from repro.engine import Executor, empirically_equivalent
from repro.workloads import generate_workload

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(st.integers(0, 100))
@_SETTINGS
def test_optimizers_never_worsen(seed):
    workload = generate_workload("tiny", seed=seed)
    for search in (heuristic_search, greedy_search):
        result = search(workload.workflow)
        assert result.best_cost <= result.initial_cost + 1e-9


@given(st.integers(0, 100))
@_SETTINGS
def test_optimized_state_is_equivalent(seed):
    workload = generate_workload("tiny", seed=seed)
    result = heuristic_search(workload.workflow)
    assert symbolically_equivalent(workload.workflow, result.best.workflow)
    report = empirically_equivalent(
        workload.workflow,
        result.best.workflow,
        workload.make_data(2, n=40),
        Executor(context=workload.context),
    )
    assert report.equivalent, report.differences


@given(st.integers(0, 60))
@_SETTINGS
def test_greedy_state_is_equivalent(seed):
    workload = generate_workload("tiny", seed=seed)
    result = greedy_search(workload.workflow)
    report = empirically_equivalent(
        workload.workflow,
        result.best.workflow,
        workload.make_data(3, n=40),
        Executor(context=workload.context),
    )
    assert report.equivalent, report.differences


@given(st.integers(0, 50))
@_SETTINGS
def test_hs_at_least_matches_greedy(seed):
    workload = generate_workload("tiny", seed=seed)
    hs = heuristic_search(workload.workflow)
    greedy = greedy_search(workload.workflow)
    assert hs.best_cost <= greedy.best_cost + 1e-9


@given(st.integers(0, 40))
@_SETTINGS
def test_budgeted_es_never_beats_full_es(seed):
    workload = generate_workload("tiny", seed=seed)
    full = exhaustive_search(
        workload.workflow, budget=SearchBudget(max_states=4000)
    )
    budgeted = exhaustive_search(
        workload.workflow, budget=SearchBudget(max_states=10)
    )
    assert full.best_cost <= budgeted.best_cost + 1e-9


@given(st.integers(0, 80))
@_SETTINGS
def test_search_is_deterministic(seed):
    workload = generate_workload("tiny", seed=seed)
    first = heuristic_search(workload.workflow)
    second = heuristic_search(workload.workflow)
    assert first.best.signature == second.best.signature
    assert first.visited_states == second.visited_states
