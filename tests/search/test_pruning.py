"""Soundness and determinism of the ES-only ``prune_dominated`` knob.

Two claims, each tested where it is actually provable:

* **Invariance** — on state spaces ES *completes*, dominance pruning
  must return the exact optimum the unpruned run finds (bitwise-equal
  cost).  Completed spaces are essential: under a truncated budget the
  traversal order legitimately changes best-so-far, so comparing
  truncated runs tests nothing.
* **Reproduction** — HS ignores the knob, so its runs reproduce the
  classic algorithm byte for byte.

Plus the observability contract: pruning work shows up on the
``search.pruned_dominated`` counter.
"""

from __future__ import annotations

import pytest

from repro.core.search import SearchBudget
from repro.core.search.exhaustive import exhaustive_search
from repro.core.search.parallel import run_search
from repro.obs import Recorder, use_recorder
from repro.workloads import generate_workload

#: Tiny-category seeds whose full state space ES exhausts in well under a
#: second each (seeds 0/8/9 do not complete within reasonable budgets).
_COMPLETED_TINY_SEEDS = (1, 2, 5, 6, 7)
_TINY_BUDGET = 60_000

_PRUNING_MODES = [
    pytest.param({"prune_dominated": True}, id="dominance"),
]


def _workflow(category, seed):
    return generate_workload(category, seed=seed).workflow


def _counters(recorder):
    totals: dict[str, float] = {}
    for event in recorder.events():
        if event["type"] == "counter":
            totals[event["name"]] = totals.get(event["name"], 0) + event["value"]
    return totals


class TestExhaustiveInvariance:
    """Pruned ES finds the same optimum as unpruned ES — exactly."""

    @pytest.fixture(scope="class")
    def references(self):
        out = {}
        for seed in _COMPLETED_TINY_SEEDS:
            result = exhaustive_search(
                _workflow("tiny", seed),
                budget=SearchBudget(max_states=_TINY_BUDGET),
            )
            assert result.completed, f"tiny/{seed} must exhaust its space"
            out[seed] = result
        return out

    @pytest.mark.parametrize("seed", _COMPLETED_TINY_SEEDS)
    @pytest.mark.parametrize("knobs", _PRUNING_MODES)
    def test_pruned_best_cost_is_bitwise_identical(
        self, references, seed, knobs
    ):
        base = references[seed]
        pruned = exhaustive_search(
            _workflow("tiny", seed),
            budget=SearchBudget(max_states=_TINY_BUDGET, **knobs),
        )
        assert pruned.completed
        assert pruned.best_cost == base.best_cost  # exact, no approx
        assert pruned.best.signature == base.best.signature
        assert pruned.visited_states <= base.visited_states

    @pytest.mark.parametrize("seed", _COMPLETED_TINY_SEEDS)
    def test_dominance_actually_shrinks_the_space(self, references, seed):
        pruned = exhaustive_search(
            _workflow("tiny", seed),
            budget=SearchBudget(max_states=_TINY_BUDGET, prune_dominated=True),
        )
        # Swap-permuted orderings collapse into dominance classes; on
        # every completed tiny space that is a large constant factor.
        assert pruned.visited_states < references[seed].visited_states

    def test_parallel_pruned_es_matches_serial(self):
        serial = exhaustive_search(
            _workflow("tiny", 2),
            budget=SearchBudget(max_states=_TINY_BUDGET, prune_dominated=True),
        )
        parallel = exhaustive_search(
            _workflow("tiny", 2),
            budget=SearchBudget(
                max_states=_TINY_BUDGET, prune_dominated=True, jobs=2
            ),
        )
        assert parallel.completed and serial.completed
        assert parallel.best_cost == serial.best_cost
        assert parallel.best.signature == serial.best.signature


class TestHeuristicPruning:
    """``prune_dominated`` is ES-only: HS ignores it entirely."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("knobs", _PRUNING_MODES)
    def test_hs_best_cost_preserved(self, seed, knobs):
        base = run_search("hs", _workflow("small", seed))
        pruned = run_search(
            "hs", _workflow("small", seed), budget=SearchBudget(**knobs)
        )
        assert pruned.best_cost == base.best_cost
        assert pruned.best.signature == base.best.signature
        assert pruned.visited_states == base.visited_states
        assert pruned.lineage == base.lineage


class TestCounters:
    def test_dominance_pruning_is_counted(self):
        recorder = Recorder()
        with use_recorder(recorder):
            exhaustive_search(
                _workflow("tiny", 1),
                budget=SearchBudget(
                    max_states=_TINY_BUDGET, prune_dominated=True
                ),
            )
        counters = _counters(recorder)
        assert counters.get("search.pruned_dominated", 0) > 0
        # The delta-costing counter rides along on every search.
        assert counters.get("search.delta_recost_nodes", 0) > 0

    def test_no_pruning_counters_when_knobs_off(self):
        recorder = Recorder()
        with use_recorder(recorder):
            run_search("hs", _workflow("small", 0))
        counters = _counters(recorder)
        assert "search.pruned_dominated" not in counters
