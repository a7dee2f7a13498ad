"""The unified SearchBudget surface: the only way to pass a budget."""

from __future__ import annotations

import os
import warnings

import pytest

from repro import HSConfig, ReproError, SearchBudget, optimize
from repro.workloads import fig1_workflow


class TestSearchBudget:
    def test_defaults(self):
        budget = SearchBudget()
        assert budget.max_states is None
        assert budget.max_seconds is None
        assert budget.jobs == 1
        assert budget.cache is None

    def test_validation(self):
        with pytest.raises(ReproError):
            SearchBudget(max_states=0)
        with pytest.raises(ReproError):
            SearchBudget(max_seconds=-1.0)

    def test_resolved_jobs(self):
        assert SearchBudget(jobs=3).resolved_jobs() == 3
        assert SearchBudget(jobs=0).resolved_jobs() == (os.cpu_count() or 1)
        assert SearchBudget(jobs=-1).resolved_jobs() == (os.cpu_count() or 1)


class TestHSConfig:
    def test_group_cap_must_not_be_negative(self):
        with pytest.raises(ReproError, match="group_cap"):
            HSConfig(group_cap=-1)

    def test_phase_state_cap_must_not_be_negative(self):
        with pytest.raises(ReproError, match="phase_state_cap"):
            HSConfig(phase_state_cap=-1)

    def test_phase_iv_cap_must_not_be_negative(self):
        # ranked[:-1] would silently skip the costliest recorded state.
        with pytest.raises(ReproError, match="phase_iv_cap"):
            HSConfig(phase_iv_cap=-1)

    def test_zero_stays_valid(self):
        # bench_ablation_phases runs "HS without Phase I" as group_cap=0.
        config = HSConfig(group_cap=0, phase_state_cap=0, phase_iv_cap=0)
        result = optimize(fig1_workflow().workflow, "hs", config=config)
        assert result.completed


class TestBudgetAcceptedEverywhere:
    @pytest.mark.parametrize("algorithm", ["es", "hs", "greedy", "sa"])
    def test_all_four_algorithms_take_budget(self, algorithm):
        result = optimize(
            fig1_workflow().workflow,
            algorithm=algorithm,
            budget=SearchBudget(max_states=40),
        )
        assert result.visited_states <= 40
        assert result.jobs == 1
        assert result.cache_hits >= 0
        assert result.best.cost <= result.initial.cost

    def test_budget_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            optimize(
                fig1_workflow().workflow,
                algorithm="es",
                budget=SearchBudget(max_states=10),
            )

    def test_budget_plus_legacy_kwarg_is_an_error(self):
        # The per-algorithm budget keywords are gone: they reach the
        # algorithm as unknown keyword arguments.
        for legacy in ({"max_states": 10}, {"max_seconds": 1.0}):
            with pytest.raises(TypeError):
                optimize(
                    fig1_workflow().workflow,
                    algorithm="es",
                    budget=SearchBudget(max_states=10),
                    **legacy,
                )

    def test_bound_knob_is_gone(self):
        with pytest.raises(TypeError):
            SearchBudget(bound=True)

    def test_beam_knob_is_gone(self):
        with pytest.raises(TypeError):
            SearchBudget(beam_width=8)


class TestDeprecationShims:
    def test_direct_algorithm_calls_stay_silent(self):
        # No facade nags any more: every entry point takes budget= and
        # HSConfig tuning knobs without a warning.
        from repro import exhaustive_search, heuristic_search

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            exhaustive_search(
                fig1_workflow().workflow, budget=SearchBudget(max_states=50)
            )
            heuristic_search(
                fig1_workflow().workflow, config=HSConfig(group_cap=8)
            )
            optimize(
                fig1_workflow().workflow,
                algorithm="hs",
                config=HSConfig(group_cap=8),
            )


class TestUniformResultFields:
    @pytest.mark.parametrize("algorithm", ["es", "hs", "greedy", "sa"])
    def test_every_algorithm_populates_the_same_fields(self, algorithm):
        result = optimize(fig1_workflow().workflow, algorithm=algorithm)
        assert result.visited == result.visited_states > 0
        assert result.elapsed == result.elapsed_seconds >= 0.0
        assert result.completed is True
        assert result.jobs == 1
        assert result.cache_hits == 0
        summary = result.summary()
        assert "jobs=1" in summary
        assert "cache hits=0" in summary
        assert "%" in summary
