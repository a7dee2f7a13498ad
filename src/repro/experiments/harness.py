"""Shared experiment runner for the paper's evaluation (section 4.2).

The paper's setup: 40 ETL workflows in three categories (small ≈ 20,
medium ≈ 40, large ≈ 70 activities), each optimized by ES, HS and
HS-Greedy; ES gets a hard budget (the authors let it run up to 40 hours
and report "did not terminate" for medium/large).  This module runs the
same experiment at configurable scale and collects one
:class:`RunRecord` per (workflow, algorithm).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.search import (
    HSConfig,
    OptimizationResult,
    SearchBudget,
    exhaustive_search,
    greedy_search,
    heuristic_search,
)
from repro.exceptions import ReproError
from repro.workloads import generate_suite
from repro.workloads.generator import GeneratedWorkload

__all__ = ["ExperimentConfig", "RunRecord", "run_category", "run_experiment", "best_known_costs"]

#: The paper's three workload categories.
PAPER_CATEGORIES = ("small", "medium", "large")


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and budgets of one experiment run.

    Defaults are laptop-sized: a handful of workflows per category and a
    state budget for ES instead of the paper's 40-hour wall.  Shapes — who
    wins, by how much, visited-state ratios — are what must reproduce.
    """

    categories: tuple[str, ...] = PAPER_CATEGORIES
    workflows_per_category: int = 3
    base_seed: int = 1
    #: ES state budgets per category (None = unbudgeted).
    es_max_states: dict[str, int] = field(
        default_factory=lambda: {
            "tiny": 50_000,
            "small": 8_000,
            "medium": 3_000,
            "large": 1_500,
        }
    )
    es_max_seconds: float | None = 120.0
    hs_config: HSConfig | None = None


@dataclass(frozen=True)
class RunRecord:
    """One algorithm run on one workflow."""

    category: str
    seed: int
    activity_count: int
    algorithm: str
    initial_cost: float
    best_cost: float
    improvement_percent: float
    visited_states: int
    elapsed_seconds: float
    completed: bool

    @classmethod
    def from_result(
        cls, workload: GeneratedWorkload, result: OptimizationResult
    ) -> "RunRecord":
        return cls(
            category=workload.category,
            seed=workload.seed,
            activity_count=workload.activity_count,
            algorithm=result.algorithm,
            initial_cost=result.initial_cost,
            best_cost=result.best_cost,
            improvement_percent=result.improvement_percent,
            visited_states=result.visited_states,
            elapsed_seconds=result.elapsed_seconds,
            completed=result.completed,
        )


def run_algorithm(
    workload: GeneratedWorkload, algorithm: str, config: ExperimentConfig
) -> RunRecord:
    """Run one algorithm on one workload under the experiment budgets."""
    if algorithm == "ES":
        result = exhaustive_search(
            workload.workflow,
            budget=SearchBudget(
                max_states=config.es_max_states.get(workload.category),
                max_seconds=config.es_max_seconds,
            ),
        )
    elif algorithm == "HS":
        result = heuristic_search(workload.workflow, config=config.hs_config)
    elif algorithm == "HS-Greedy":
        result = greedy_search(workload.workflow, config=config.hs_config)
    else:
        raise ReproError(f"unknown algorithm {algorithm!r}")
    return RunRecord.from_result(workload, result)


def run_category(
    category: str,
    config: ExperimentConfig,
    algorithms: Iterable[str] = ("ES", "HS", "HS-Greedy"),
) -> list[RunRecord]:
    """All (workflow, algorithm) runs of one category."""
    workloads = generate_suite(
        category, config.workflows_per_category, base_seed=config.base_seed
    )
    records: list[RunRecord] = []
    for workload in workloads:
        for algorithm in algorithms:
            records.append(run_algorithm(workload, algorithm, config))
    return records


def run_experiment(config: ExperimentConfig | None = None) -> list[RunRecord]:
    """The full Tables 1+2 experiment."""
    config = config if config is not None else ExperimentConfig()
    records: list[RunRecord] = []
    for category in config.categories:
        records.extend(run_category(category, config))
    return records


def best_known_costs(records: list[RunRecord]) -> dict[tuple[str, int], float]:
    """Best cost any algorithm reached per workflow — Table 1's reference.

    For small workflows this is the (budgeted-)ES optimum; for medium and
    large the paper likewise compares against "the best solution that ES
    has produced when it stopped", generalized here to the best seen.
    """
    reference: dict[tuple[str, int], float] = {}
    for record in records:
        key = (record.category, record.seed)
        if key not in reference or record.best_cost < reference[key]:
            reference[key] = record.best_cost
    return reference
