#!/usr/bin/env python3
"""Compare ES, HS and HS-Greedy across workload sizes (paper section 4.2).

Generates one workflow per category, runs the three algorithms with the
paper's methodology (ES budgeted; the paper let it run 40 h and it still
"did not terminate" on medium/large), and prints the quality /
visited-states / time trade-off the evaluation section discusses.

Run:  python examples/algorithm_comparison.py [seed]
"""

import sys

from repro import (
    SearchBudget,
    exhaustive_search,
    greedy_search,
    heuristic_search,
)
from repro.workloads import generate_workload

ES_BUDGETS = {"small": 4000, "medium": 2000, "large": 1000}


def main(seed: int = 1):
    print(f"{'category':<9}{'acts':>5}{'alg':>11}{'cost':>12}{'improv%':>9}"
          f"{'visited':>9}{'time(s)':>9}")
    for category in ("small", "medium", "large"):
        workload = generate_workload(category, seed=seed)
        runs = [
            exhaustive_search(
                workload.workflow,
                budget=SearchBudget(
                    max_states=ES_BUDGETS[category], max_seconds=30.0
                ),
            ),
            heuristic_search(workload.workflow),
            greedy_search(workload.workflow),
        ]
        for result in runs:
            mark = "" if result.completed else "*"
            print(
                f"{category:<9}{workload.activity_count:>5}"
                f"{result.algorithm:>11}{result.best_cost:>12,.0f}"
                f"{result.improvement_percent:>9.1f}"
                f"{result.visited_states:>8}{mark:<1}"
                f"{result.elapsed_seconds:>9.2f}"
            )
    print("* stopped on budget (paper: 'ES did not terminate')")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1)
