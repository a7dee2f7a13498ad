"""Soundness and determinism of the two search-pruning knobs.

``prune_dominated`` is ES-only and ``beam_width`` HS-only.  Three
claims, each tested where it is actually provable:

* **Invariance** — on state spaces ES *completes*, dominance pruning
  must return the exact optimum the unpruned run finds (bitwise-equal
  cost).  Completed spaces are essential: under a truncated budget the
  traversal order legitimately changes best-so-far, so comparing
  truncated runs tests nothing.
* **Reproduction** — with every knob off (or trivially large), the
  pruned code paths must reproduce the classic algorithms byte for byte.
* **Determinism** — a beam run is a pure function of its inputs: two
  runs agree, and a parallel run agrees with its serial twin.

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


class TestBeam:
    def test_no_beam_and_huge_beam_are_byte_identical(self):
        """``beam_width=None`` is the classic HS; a beam wider than any

        frontier must reproduce it exactly (the truncation never fires)."""
        base = run_search("hs", _workflow("small", 0))
        explicit_none = run_search(
            "hs", _workflow("small", 0), budget=SearchBudget(beam_width=None)
        )
        huge = run_search(
            "hs", _workflow("small", 0), budget=SearchBudget(beam_width=10**9)
        )
        for twin in (explicit_none, huge):
            assert twin.visited_states == base.visited_states
            assert twin.best_cost == base.best_cost
            assert twin.lineage == base.lineage

    def test_beam_is_deterministic_across_runs(self):
        first = run_search(
            "hs", _workflow("small", 0), budget=SearchBudget(beam_width=4)
        )
        second = run_search(
            "hs", _workflow("small", 0), budget=SearchBudget(beam_width=4)
        )
        assert first.visited_states == second.visited_states
        assert first.best_cost == second.best_cost
        assert first.lineage == second.lineage

    def test_beam_parallel_matches_serial(self):
        serial = run_search(
            "hs",
            _workflow("small", 0),
            budget=SearchBudget(beam_width=4, jobs=1),
        )
        parallel = run_search(
            "hs",
            _workflow("small", 0),
            budget=SearchBudget(beam_width=4, jobs=2),
        )
        assert parallel.visited_states == serial.visited_states
        assert parallel.best_cost == serial.best_cost
        assert parallel.lineage == serial.lineage

    def test_beam_still_finds_an_improvement(self):
        result = run_search(
            "hs", _workflow("small", 0), budget=SearchBudget(beam_width=4)
        )
        assert result.best_cost < result.initial_cost

    def test_beam_width_validation(self):
        with pytest.raises(Exception):
            SearchBudget(beam_width=0)


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
