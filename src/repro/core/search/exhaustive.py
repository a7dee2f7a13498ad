"""ES — the Exhaustive Search algorithm (section 4.2).

ES formalizes the state space as a graph whose nodes are states and whose
edges are transitions, and explores it breadth-first: while unvisited
states remain, pick one, generate its children, and finally return the
cheapest visited state.  The space is finite (signature-identified states,
finitely many transitions), so ES terminates — eventually.  The paper let
it run for up to 40 hours and still reports "did not terminate" for medium
and large workflows; our implementation accepts explicit ``max_states`` /
``max_seconds`` budgets and reports ``completed=False`` with the best
state found when a budget trips, mirroring that methodology.

ES is one serial loop: it expands one state at a time, so a budgeted run
returns the same best-so-far for any ``SearchBudget.jobs`` (which it
ignores, reporting ``jobs=1``).

``SearchBudget.prune_dominated`` shrinks the frontier with
:func:`dominance_class`: two states whose local groups contain the same
activities in different *orders* are mutually reachable by in-group
swaps, so the cheaper one dominates — exploring the dearer one cannot
reach orderings the cheaper one cannot.
"""

from __future__ import annotations

import heapq
import time

from repro.core.cost.model import CostModel, ProcessedRowsCostModel
from repro.core.search.budget import SearchBudget
from repro.core.search.result import OptimizationResult
from repro.core.search.state import SearchState
from repro.core.search.transposition import TranspositionCache
from repro.core.signature import _is_commutative, state_signature
from repro.core.transitions.enumerate import candidate_transitions
from repro.core.workflow import ETLWorkflow, Node
from repro.exceptions import ReproError
from repro.obs import get_recorder, record_transition

__all__ = ["dominance_class", "exhaustive_search"]


def dominance_class(workflow: ETLWorkflow) -> str:
    """A signature-like string with each local group's member ids sorted.

    States whose workflows differ only in the *order* of activities
    inside local groups share a class: ``((1.3)//(2.6.4.5)).7.8`` and
    ``((1.3)//(2.4.5.6)).7.8`` both render ``((1.3)//(2.4.5.6)).7.8``.
    Group borders (binaries, recordsets, fan-out points) are never
    sorted across, so states separated by a factorization or a
    distribution — which move activities *between* groups — always land
    in different classes.  Same class therefore means mutually
    reachable by in-group swaps (on the shipped templates), and the
    cheapest representative dominates.
    """
    # Each group renders as one sorted token at its *last* member;
    # earlier members pass their upstream prefix through unchanged.
    group_token: dict[Node, str | None] = {}
    for group in workflow.local_groups():
        if len(group) < 2:
            continue
        group_token[group[-1]] = ".".join(sorted(a.id for a in group))
        for member in group[:-1]:
            group_token[member] = None
    memo: dict[Node, str] = {}
    graph_pred = workflow.pred
    for node in workflow.topological_order():
        pred = graph_pred[node]
        if node in group_token:
            (provider,) = pred
            token = group_token[node]
            if token is None:
                memo[node] = memo[provider]  # swallowed mid-group member
            else:
                memo[node] = f"{memo[provider]}.{token}"
        elif not pred:
            memo[node] = str(node.id)
        elif len(pred) == 1:
            (provider,) = pred
            memo[node] = f"{memo[provider]}.{node.id}"
        else:
            if _is_commutative(node):
                branches = sorted(f"({memo[p]})" for p in pred)
            else:
                ordered = sorted(pred, key=pred.__getitem__)
                branches = [f"({memo[p]})" for p in ordered]
            memo[node] = f"({'//'.join(branches)}).{node.id}"
    targets = workflow.targets()
    if len(targets) == 1:
        return memo[targets[0]]
    return "//".join(sorted(memo[target] for target in targets))


def exhaustive_search(
    workflow: ETLWorkflow,
    model: CostModel | None = None,
    budget: SearchBudget | None = None,
    pool=None,
) -> OptimizationResult:
    """Explore the full state space (subject to budgets) and return the best.

    The paper's ES keeps a set of unvisited states and "picks an unvisited
    state" without fixing an order; run to completion any order explores
    the same (finite) space.  Under a budget the order matters, so ES
    expands best-first — the cheapest known state next — which makes
    budget-truncated runs report a meaningful best-so-far, the paper's
    medium/large methodology.

    Args:
        workflow: the initial state ``S0``.
        model: cost model; defaults to the paper's processed-rows model.
        budget: uniform :class:`SearchBudget`; ``budget.cache`` memoizes
            state costs so warm re-runs skip re-costing.  ``jobs`` is
            ignored.
        pool: ignored; accepted because
            :func:`~repro.core.search.parallel.run_search` calls every
            algorithm with the same keywords.

    Returns:
        An :class:`OptimizationResult` whose ``completed`` flag records
        whether the space was exhausted within budget.
    """
    model = model if model is not None else ProcessedRowsCostModel()
    budget = budget if budget is not None else SearchBudget()
    cache, owned_cache = TranspositionCache.resolve(budget.cache)
    hits_before = cache.hits
    started = time.perf_counter()
    try:
        initial = SearchState.initial(workflow, model)
        ns = cache.namespace(initial.workflow, model)
        ns.put_cost(initial.signature, initial.cost)

        seen: set[str] = {initial.signature}
        # Dominance pruning (default off, leaving the classic traversal
        # untouched) keeps per-class incumbents.  Pruned states still
        # count as visited.
        class_best: dict[str, float] | None = None
        if budget.prune_dominated:
            class_best = {dominance_class(initial.workflow): initial.cost}
        pruned_dominated = 0
        heap: list[tuple[float, str, SearchState]] = [
            (initial.cost, initial.signature, initial)
        ]
        best = initial
        completed = True

        while heap:
            if budget.max_states is not None and len(seen) >= budget.max_states:
                completed = False
                break
            if (
                budget.max_seconds is not None
                and time.perf_counter() - started > budget.max_seconds
            ):
                completed = False
                break
            _, _, state = heapq.heappop(heap)
            for transition in candidate_transitions(state.workflow):
                try:
                    successor_workflow = transition.apply_fast(state.workflow)
                except ReproError as exc:
                    record_transition(
                        algorithm="ES",
                        transition=transition,
                        cost_before=state.cost,
                        accepted=False,
                        reason=str(exc),
                    )
                    continue
                # Signature-first dedup: re-derived states are skipped
                # before any costing work happens.
                signature = state_signature(successor_workflow)
                if signature in seen:
                    record_transition(
                        algorithm="ES",
                        transition=transition,
                        cost_before=state.cost,
                        accepted=False,
                        reason="duplicate state (signature already visited)",
                        counter_outcome="duplicate",
                    )
                    continue
                seen.add(signature)
                successor = ns.successor(
                    state, transition, successor_workflow, model, signature
                )
                record_transition(
                    algorithm="ES",
                    transition=transition,
                    cost_before=state.cost,
                    cost_after=successor.cost,
                    accepted=True,
                )
                if successor.cost < best.cost:
                    best = successor
                if class_best is not None:
                    cls = dominance_class(successor.workflow)
                    prior = class_best.get(cls)
                    if prior is not None and prior <= successor.cost:
                        # Counted as visited, compared against best, but
                        # never expanded — a cheaper same-class state is
                        # already on (or through) the frontier.
                        pruned_dominated += 1
                        continue
                    class_best[cls] = successor.cost
                heapq.heappush(
                    heap, (successor.cost, successor.signature, successor)
                )
                if (
                    budget.max_states is not None
                    and len(seen) >= budget.max_states
                ):
                    completed = False
                    break

        recorder = get_recorder()
        if recorder.active and pruned_dominated:
            recorder.counter("search.pruned_dominated").add(pruned_dominated)
        return OptimizationResult(
            algorithm="ES",
            initial=initial,
            best=best,
            visited_states=len(seen),
            elapsed_seconds=time.perf_counter() - started,
            completed=completed,
            cache_hits=cache.hits - hits_before,
            jobs=1,
            lineage=best.lineage,
        )
    finally:
        if owned_cache:
            cache.flush()
