"""Table 2 — visited states, improvement over S0, and execution time.

Regenerates the paper's Table 2 from the shared experiment records and
asserts its shape:

* visited states: ES(budget-bound) and HS both visit far more states than
  HS-Greedy; HS visits an order of magnitude more than Greedy;
* improvement: both heuristics improve the initial state substantially
  (the paper reports 45-78 %);
* time: HS-Greedy is several times faster than HS (paper: 8-42x).

The timed portion is one representative run per (category, algorithm).
"""

from __future__ import annotations

import pytest

from repro.core.search import (
    SearchBudget,
    exhaustive_search,
    greedy_search,
    heuristic_search,
)
from repro.experiments import format_table2, table2_rows

from _config import bench_categories, bench_config


def _rows_by_category(records):
    return {row["category"]: row for row in table2_rows(records)}


def test_table2_report(benchmark, experiment_records, capsys):
    """Regenerate and print Table 2 (timed: formatting only — the heavy
    optimization runs live in the session fixture)."""
    report = benchmark.pedantic(
        lambda: format_table2(experiment_records), rounds=1, iterations=1
    )
    with capsys.disabled():
        print("\n" + report)
    assert set(_rows_by_category(experiment_records)) == set(bench_categories())


def test_table2_shape_greedy_visits_fewest(experiment_records):
    for row in table2_rows(experiment_records):
        greedy = row["HS-Greedy"]["visited_states"]
        assert greedy <= row["HS"]["visited_states"], row
        assert greedy <= row["ES"]["visited_states"], row


def test_table2_shape_hs_visits_many_more_than_greedy(experiment_records):
    for row in table2_rows(experiment_records):
        ratio = row["HS"]["visited_states"] / max(1, row["HS-Greedy"]["visited_states"])
        # Paper ratios: 13.6x (small), 9.2x (medium), 11.6x (large).
        assert ratio >= 3.0, row


def test_table2_shape_heuristics_improve_substantially(experiment_records):
    for row in table2_rows(experiment_records):
        assert row["HS"]["improvement_percent"] >= 20.0, row
        assert row["HS-Greedy"]["improvement_percent"] >= 15.0, row


def test_table2_shape_greedy_is_faster(experiment_records):
    for row in table2_rows(experiment_records):
        assert (
            row["HS-Greedy"]["time_seconds"] <= row["HS"]["time_seconds"]
        ), row


def test_table2_shape_es_exhausts_budget_on_large(experiment_records):
    """Paper: ES 'did not terminate' for medium and large workflows."""
    rows = _rows_by_category(experiment_records)
    for category in rows:
        if category in ("medium", "large"):
            assert not rows[category]["ES"]["completed"]


def _run(algorithm, workload):
    config = bench_config()
    if algorithm == "ES":
        return exhaustive_search(
            workload.workflow,
            budget=SearchBudget(
                max_states=config.es_max_states.get(workload.category),
                max_seconds=config.es_max_seconds,
            ),
        )
    if algorithm == "HS":
        return heuristic_search(workload.workflow)
    return greedy_search(workload.workflow)


@pytest.mark.parametrize("algorithm", ["ES", "HS", "HS-Greedy"])
@pytest.mark.parametrize("category", bench_categories())
def test_table2_timed_run(
    benchmark, representative_workloads, category, algorithm
):
    workload = representative_workloads[category]
    result = benchmark.pedantic(
        lambda: _run(algorithm, workload), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        category=category,
        algorithm=algorithm,
        visited_states=result.visited_states,
        improvement_percent=round(result.improvement_percent, 1),
        completed=result.completed,
    )
    assert result.best_cost <= result.initial_cost
