"""Provenance lineage: the winning chain replays to the reported best.

The acceptance contract of the observability layer: for every algorithm,
``OptimizationResult.lineage`` replayed through the transition system
from the initial state reproduces the reported best state and cost, and
parallel runs ship lineages byte-identical to their serial twins.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.search import SearchBudget
from repro.core.search.parallel import run_search
from repro.obs import (
    LineageMismatch,
    lineage_mix,
    replay_lineage,
    verify_lineage,
)
from repro.workloads import fig1_workflow


def _workflow():
    return fig1_workflow().workflow


ALGORITHMS = [
    pytest.param("es", {"budget": SearchBudget(max_states=300)}, id="es"),
    pytest.param("hs", {}, id="hs"),
    pytest.param("hs-greedy", {}, id="hs-greedy"),
    pytest.param("sa", {"budget": SearchBudget()}, id="sa"),
    # The pruning knob must not break provenance: a dominance-pruned
    # winner still replays from S0.
    pytest.param(
        "es",
        {"budget": SearchBudget(max_states=300, prune_dominated=True)},
        id="es-pruned",
    ),
]


class TestReplay:
    @pytest.mark.parametrize("algorithm, kwargs", ALGORITHMS)
    def test_lineage_replays_to_best(self, algorithm, kwargs):
        result = run_search(algorithm, _workflow(), **kwargs)
        replay = verify_lineage(result)
        assert replay.signature == result.best.signature
        assert replay.cost == pytest.approx(result.best_cost)
        assert len(replay.steps) == len(result.lineage)

    @pytest.mark.parametrize("algorithm, kwargs", ALGORITHMS)
    def test_mix_accounts_for_every_step(self, algorithm, kwargs):
        result = run_search(algorithm, _workflow(), **kwargs)
        mix = result.transition_mix()
        assert sum(mix.values()) == len(result.lineage)
        assert mix == lineage_mix(result.lineage)
        # The serialized dict form carries the same mix.
        assert lineage_mix(result.lineage_dicts()) == mix

    def test_replay_accepts_serialized_lineage(self):
        result = run_search("hs", _workflow())
        replay = replay_lineage(
            result.initial.workflow, result.lineage_dicts()
        )
        assert replay.signature == result.best.signature

    def test_tampered_lineage_raises(self):
        result = run_search("hs", _workflow())
        assert result.lineage, "fig1 must admit improving transitions"
        truncated = dataclasses.replace(
            result, lineage=result.lineage[:-1]
        )
        with pytest.raises(LineageMismatch):
            verify_lineage(truncated)


class TestDeterminism:
    def test_parallel_hs_lineage_identical_to_serial(self):
        serial = run_search("hs", _workflow(), budget=SearchBudget(jobs=1))
        parallel = run_search("hs", _workflow(), budget=SearchBudget(jobs=2))
        assert parallel.lineage == serial.lineage
        assert parallel.lineage_dicts() == serial.lineage_dicts()

    @pytest.mark.parametrize("algorithm", ["es", "sa"])
    def test_parallel_lineage_replays(self, algorithm):
        result = run_search(
            algorithm,
            _workflow(),
            budget=SearchBudget(max_states=300, jobs=2),
        )
        verify_lineage(result)


class TestMergeConstraints:
    def test_constraint_steps_appear_in_lineage(self):
        result = run_search(
            "hs", _workflow(), merge_constraints=(("4", "5"),)
        )
        mix = result.transition_mix()
        assert mix.get("MER") == 1  # pre-processing merge
        assert mix.get("SPL") == 1  # post-processing split
        verify_lineage(result)


class TestSummary:
    def test_summary_reports_transition_mix(self):
        result = run_search("hs", _workflow())
        summary = result.summary()
        assert "transition mix:" in summary
        assert f"lineage: {len(result.lineage)} step(s)" in summary
        # Every mnemonic in the mix shows with its count, e.g. "SWA:3".
        for mnemonic, count in result.transition_mix().items():
            assert f"{mnemonic}:{count}" in summary
