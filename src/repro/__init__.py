"""repro — a reproduction of *Optimizing ETL Processes in Data Warehouses*
(Alkis Simitsis, Panos Vassiliadis, Timos Sellis; ICDE 2005).

The library models an ETL workflow as a DAG of activities and recordsets,
generates equivalent rewritings through the paper's five transitions
(swap, factorize, distribute, merge, split), and searches the resulting
state space for a minimum-cost design with four algorithms: exhaustive
(ES), heuristic (HS), greedy (HS-Greedy), and simulated annealing (SA —
an extension beyond the paper).

Quick start::

    from repro import SearchBudget, optimize
    from repro.workloads import fig1_workflow

    result = optimize(fig1_workflow().workflow, algorithm="heuristic")
    print(result.summary())

    # Parallel + cached: four workers, on-disk transposition cache.
    result = optimize(
        fig1_workflow().workflow,
        algorithm="hs",
        budget=SearchBudget(jobs=4, cache=True),
    )

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the full
system inventory.
"""

from __future__ import annotations

from repro.core import (
    Activity,
    CompositeActivity,
    ETLWorkflow,
    NamingRegistry,
    RecordSet,
    RecordSetKind,
    Schema,
    WorkflowBuilder,
    state_signature,
    symbolically_equivalent,
)
from repro.core.cost import (
    CostModel,
    LinearCostModel,
    ProcessedRowsCostModel,
    estimate,
)
from repro.core.search import (
    HSConfig,
    annealing_search,
    OptimizationResult,
    SearchBudget,
    TranspositionCache,
    exhaustive_search,
    greedy_search,
    heuristic_search,
    optimize_many,
    run_search as _run_search,
)
from repro.exceptions import ReproError

__version__ = "2.0.0"

__all__ = [
    "Activity",
    "CompositeActivity",
    "ETLWorkflow",
    "NamingRegistry",
    "RecordSet",
    "RecordSetKind",
    "Schema",
    "WorkflowBuilder",
    "state_signature",
    "symbolically_equivalent",
    "CostModel",
    "ProcessedRowsCostModel",
    "LinearCostModel",
    "estimate",
    "HSConfig",
    "OptimizationResult",
    "SearchBudget",
    "TranspositionCache",
    "exhaustive_search",
    "heuristic_search",
    "greedy_search",
    "annealing_search",
    "optimize",
    "optimize_many",
    "ReproError",
    "__version__",
]

def optimize(
    workflow: ETLWorkflow,
    algorithm: str = "heuristic",
    model: CostModel | None = None,
    budget: SearchBudget | None = None,
    **kwargs,
) -> OptimizationResult:
    """Optimize an ETL workflow with one of the four algorithms.

    Args:
        workflow: the initial state ``S0``.
        algorithm: ``"exhaustive"``/``"es"``, ``"heuristic"``/``"hs"``,
            ``"greedy"``/``"hs-greedy"`` or ``"annealing"``/``"sa"``
            (case-insensitive).
        model: cost model; defaults to the paper's processed-rows model.
        budget: uniform :class:`SearchBudget` — ``max_states`` /
            ``max_seconds`` stopping criteria plus the ``jobs`` (worker
            processes; ES and SA ignore it) and ``cache`` (transposition
            cache) execution knobs.
        **kwargs: algorithm-specific options (``merge_constraints`` and
            ``config=HSConfig(...)`` for HS/greedy, ``seed``/``steps`` for
            annealing).

    Returns:
        The :class:`OptimizationResult` with the best state found and the
        search statistics the paper's tables report.
    """
    return _run_search(algorithm, workflow, model=model, budget=budget, **kwargs)
