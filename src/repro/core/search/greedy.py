"""HS-Greedy — the greedy variant of the heuristic search (section 4.2).

"If, instead of swapping all pairs of activities for each local group, HS
swaps only those that lead to a state with less cost than the existing
minimum, then HS becomes a greedy algorithm: HS-Greedy."

Implementation-wise this is :func:`repro.core.search.heuristic
.heuristic_search` with ``greedy=True``: Phases I and IV hill-climb with
first-improvement swaps instead of exploring each group's reachable
orderings.  The paper's profile — almost as good on small workflows, much
faster everywhere, increasingly unstable on large ones — emerges from that
single change.
"""

from __future__ import annotations

from repro.core.cost.model import CostModel
from repro.core.search.budget import SearchBudget
from repro.core.search.heuristic import HSConfig, heuristic_search
from repro.core.search.result import OptimizationResult
from repro.core.workflow import ETLWorkflow

__all__ = ["greedy_search"]


def greedy_search(
    workflow: ETLWorkflow,
    model: CostModel | None = None,
    merge_constraints: tuple[tuple[str, str], ...] = (),
    config: HSConfig | None = None,
    budget: SearchBudget | None = None,
    pool=None,
) -> OptimizationResult:
    """Run HS-Greedy on the initial state; see :func:`heuristic_search`.

    The :class:`SearchBudget` pruning knob ``prune_dominated`` is ES-only
    and a no-op here.
    """
    return heuristic_search(
        workflow,
        model=model,
        merge_constraints=merge_constraints,
        config=config,
        greedy=True,
        budget=budget,
        pool=pool,
    )
