"""Composing HS group winners through the group kernel.

Phases I and IV compose each group's best path on the running composed
state: a kernel built there walks the path, every intermediate is
recorded from its exact cost and signature, and only the group's final
ordering is built as a state.  The running best is lazy — an
intermediate that holds it is built once, when the search returns.  The
per-swap loop (``REPRO_FULL_RECOST``) is the twin every result here is
compared against with ``==``.
"""

from __future__ import annotations

import pytest

from repro import SearchBudget, heuristic_search
from repro.core import flags
from repro.core.search import heuristic
from repro.core.search.group_kernel import GroupKernel
from repro.core.search.transposition import TranspositionCache
from repro.core.transitions import Swap
from repro.exceptions import ReproError, TransitionError, WorkflowError
from repro.workloads import generate_workload


@pytest.fixture
def fast_paths():
    """Kernel composition without the oracle's per-swap cross-check."""
    full_recost = flags.set_full_recost(False)
    oracle = flags.set_cost_oracle(False)
    try:
        yield
    finally:
        flags.set_full_recost(full_recost)
        flags.set_cost_oracle(oracle)


def _outcome(workflow, greedy=False, **budget):
    result = heuristic_search(
        workflow.copy(), greedy=greedy, budget=SearchBudget(**budget)
    )
    return (
        result.best.signature,
        result.best.cost,
        result.visited_states,
        result.completed,
        [step.to_dict() for step in result.lineage],
    )


def _twin_outcome(workflow, greedy=False, **budget):
    previous = flags.set_full_recost(True)
    try:
        return _outcome(workflow, greedy, **budget)
    finally:
        flags.set_full_recost(previous)


def test_composition_builds_no_state_per_swap(monkeypatch, fast_paths):
    """HS on the plan-cold pool (small seeds 0-2, 2,000 rows per source)
    calls ``Swap.apply_fast`` only outside ``_optimize_all_groups``."""
    inside, calls = [], []
    compose, apply_fast = heuristic._optimize_all_groups, Swap.apply_fast

    def composing(*args):
        inside.append(True)
        try:
            return compose(*args)
        finally:
            inside.pop()

    def applying(self, workflow):
        calls.append(bool(inside))
        return apply_fast(self, workflow)

    monkeypatch.setattr(heuristic, "_optimize_all_groups", composing)
    monkeypatch.setattr(Swap, "apply_fast", applying)
    for seed in range(3):
        workflow = generate_workload(
            "small", seed=seed, rows_per_source=2000
        ).workflow
        heuristic_search(workflow)
    assert calls, "the shifts of Phases II and III build states"
    assert not any(calls)


def test_cost_oracle_catches_a_divergent_composition(monkeypatch):
    walk = GroupKernel.walk

    def skewed(self, path):
        return [ordering._replace(cost=ordering.cost + 1.0)
                for ordering in walk(self, path)]

    monkeypatch.setattr(GroupKernel, "walk", skewed)
    full_recost = flags.set_full_recost(False)
    oracle = flags.set_cost_oracle(True)
    try:
        with pytest.raises(AssertionError, match="diverges from the per-swap"):
            heuristic_search(generate_workload("small", seed=0).workflow)
    finally:
        flags.set_full_recost(full_recost)
        flags.set_cost_oracle(oracle)


def _replays(monkeypatch):
    """The paths the per-swap loop builds: with the kernel composing and
    no oracle, only a pending best's."""
    paths = []
    materialize = heuristic._materialize_path

    def counted(state, path, *args):
        paths.append(path)
        return materialize(state, path, *args)

    monkeypatch.setattr(heuristic, "_materialize_path", counted)
    return paths


#: ``max_states`` points that trip between two steps of a composed path
#: while one of its intermediates holds the best: (seed, greedy, states).
_REPLAYING = [(0, False, 188), (1, False, 389), (1, False, 874), (0, True, 31)]


class TestStateBudgetInsideComposedPaths:
    @pytest.mark.parametrize("seed,greedy,max_states", _REPLAYING)
    def test_pending_best_is_built_once(
        self, seed, greedy, max_states, monkeypatch, fast_paths
    ):
        workflow = generate_workload("small", seed=seed).workflow
        replays = _replays(monkeypatch)
        outcome = _outcome(workflow, greedy, max_states=max_states)
        assert len(replays) == 1
        assert not outcome[3]
        assert outcome == _twin_outcome(workflow, greedy, max_states=max_states)

    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_unbounded_runs_build_no_pending_best(
        self, seed, greedy, monkeypatch, fast_paths
    ):
        replays = _replays(monkeypatch)
        _outcome(generate_workload("small", seed=seed).workflow, greedy)
        assert replays == []

    @pytest.mark.parametrize(
        "seed,greedy,points",
        [
            (0, False, range(100, 1100, 300)),
            (0, True, range(5, 120, 25)),
            (1, False, range(150, 1000, 300)),
            (1, True, range(100, 820, 240)),
        ],
    )
    def test_coarse_stride(self, seed, greedy, points, fast_paths):
        workflow = generate_workload("small", seed=seed).workflow
        for max_states in points:
            assert _outcome(workflow, greedy, max_states=max_states) == (
                _twin_outcome(workflow, greedy, max_states=max_states)
            ), max_states


@pytest.mark.slow
@pytest.mark.parametrize("greedy", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
def test_state_budget_sweep(seed, greedy, fast_paths):
    workflow = generate_workload("small", seed=seed).workflow
    full = _outcome(workflow, greedy)[2]
    for max_states in range(1, full + 2, max(1, full // 40)):
        assert _outcome(workflow, greedy, max_states=max_states) == (
            _twin_outcome(workflow, greedy, max_states=max_states)
        ), max_states


# -- group entries from the cache are outside input ---------------------------------


def _tampered_cache(workflow, tamper):
    """A cache filled by one HS run, its group entries with a non-empty
    path then rewritten by ``tamper(entries)``."""
    cache = TranspositionCache()
    heuristic_search(workflow.copy(), budget=SearchBudget(cache=cache))
    entries = [
        entry
        for namespace in cache._namespaces.values()
        for entry in namespace.groups.values()
        if entry["path"]
    ]
    assert len(entries) > 1
    tamper(entries)
    return cache


def _run_on_tampered(workflow, tamper):
    """HS's outcome on a tampered cache, or the error it raises."""
    cache = _tampered_cache(workflow, tamper)
    try:
        return _outcome(workflow, cache=cache)
    except ReproError as exc:
        return type(exc), str(exc)


def _reverse_first_step(entries):
    for entry in entries:
        (first, second), *rest = entry["path"]
        entry["path"] = [[second, first], *rest]


def _unknown_first_step(entries):
    for entry in entries:
        (_, second), *rest = entry["path"]
        entry["path"] = [["no-such-activity", second], *rest]


def _borrow_a_step(entries):
    """Prepend the next entry's first step: a pair of another group."""
    for entry, other in zip(entries, entries[1:]):
        entry["path"] = [other["path"][0], *entry["path"]]


class TestTamperedGroupEntry:
    """A group entry of the cache's disk layer is outside input: a path
    the kernel walk cannot finish gets what the per-swap loop gives it —
    the same exception type and message, or the same plan."""

    @pytest.mark.parametrize(
        "tamper,error,message",
        [
            (_reverse_first_step, TransitionError, "not adjacent (condition 1)"),
            (_unknown_first_step, WorkflowError, "no node with id 'no-such-"),
        ],
    )
    def test_same_error_as_the_per_swap_loop(
        self, tamper, error, message, fast_paths
    ):
        workflow = generate_workload("small", seed=0).workflow
        raised = _run_on_tampered(workflow, tamper)
        assert raised[0] is error
        assert message in raised[1]
        previous = flags.set_full_recost(True)
        try:
            assert _run_on_tampered(workflow, tamper) == raised
        finally:
            flags.set_full_recost(previous)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_a_step_outside_the_group(self, seed, fast_paths):
        workflow = generate_workload("small", seed=seed).workflow
        outcome = _run_on_tampered(workflow, _borrow_a_step)
        previous = flags.set_full_recost(True)
        try:
            assert _run_on_tampered(workflow, _borrow_a_step) == outcome
        finally:
            flags.set_full_recost(previous)
