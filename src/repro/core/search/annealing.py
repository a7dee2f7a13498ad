"""Simulated annealing over the transition space (an extension).

The paper ships ES / HS / HS-Greedy; randomized local search is the
natural next point on the quality/effort curve and slots straight into
the same state space: states are workflows, neighbours are the applicable
transitions, and the objective is ``C(S)``.  This implementation is a
textbook Metropolis scheme with geometric cooling and a seeded RNG, so
runs are reproducible.

It exists to *compare against* the paper's algorithms (see
``benchmarks/bench_ablation_annealing.py``); it is not part of the
reproduction claims.
"""

from __future__ import annotations

import math
import random
import time

from repro.core.cost.model import CostModel, ProcessedRowsCostModel
from repro.core.search.budget import SearchBudget
from repro.core.search.result import OptimizationResult
from repro.core.search.state import SearchState
from repro.core.search.transposition import TranspositionCache
from repro.core.transitions.enumerate import candidate_transitions
from repro.core.workflow import ETLWorkflow
from repro.exceptions import ReproError
from repro.obs import get_recorder, record_transition

__all__ = ["annealing_search"]


def annealing_search(
    workflow: ETLWorkflow,
    model: CostModel | None = None,
    seed: int = 0,
    steps: int = 2000,
    initial_temperature: float | None = None,
    cooling: float = 0.995,
    budget: SearchBudget | None = None,
    pool=None,
) -> OptimizationResult:
    """Optimize with simulated annealing.

    Args:
        workflow: the initial state ``S0``.
        model: cost model (default: processed-rows).
        seed: RNG seed; equal seeds give equal runs.
        steps: number of proposed moves.
        initial_temperature: Metropolis temperature at step 0; defaults to
            5 % of the initial state's cost (accepting small regressions
            early on).
        cooling: geometric cooling factor per step.
        budget: uniform :class:`SearchBudget`.  SA runs one chain, so it
            ignores ``jobs`` and reports ``jobs=1``.
        pool: ignored; accepted because
            :func:`~repro.core.search.parallel.run_search` calls every
            algorithm with the same keywords.
    """
    model = model if model is not None else ProcessedRowsCostModel()
    budget = budget if budget is not None else SearchBudget()
    cache, owned_cache = TranspositionCache.resolve(budget.cache)
    hits_before = cache.hits
    recorder = get_recorder()
    rng = random.Random(seed)
    started = time.perf_counter()

    try:
        initial = SearchState.initial(workflow, model)
        # The walk records every proposed state's cost (it never *reads*
        # the cache mid-walk, so equal seeds give equal runs regardless of
        # cache warmth); other algorithms get the totals for free.
        ns = cache.namespace(initial.workflow, model)
        ns.put_cost(initial.signature, initial.cost)
        current = initial
        best = initial
        seen: set[str] = {initial.signature}
        temperature = (
            initial_temperature
            if initial_temperature is not None
            else max(1.0, 0.05 * initial.cost)
        )
        completed = True

        for _ in range(steps):
            if (
                budget.max_seconds is not None
                and time.perf_counter() - started > budget.max_seconds
            ):
                completed = False
                break
            if budget.max_states is not None and len(seen) >= budget.max_states:
                completed = False
                break
            candidates = list(candidate_transitions(current.workflow))
            if not candidates:
                break
            rng.shuffle(candidates)
            moved = False
            for transition in candidates:
                try:
                    successor_workflow = transition.apply_fast(
                        current.workflow
                    )
                except ReproError as exc:
                    record_transition(
                        algorithm="SA",
                        transition=transition,
                        cost_before=current.cost,
                        accepted=False,
                        reason=str(exc),
                    )
                    continue
                successor = current.successor(transition, successor_workflow, model)
                seen.add(successor.signature)
                ns.put_cost(successor.signature, successor.cost)
                delta = successor.cost - current.cost
                accepted = delta <= 0 or rng.random() < math.exp(
                    -delta / max(temperature, 1e-9)
                )
                # counter_outcome stays "applied" either way: the move was
                # applicable; acceptance is the separate Metropolis verdict
                # tracked by search.sa.moves.
                record_transition(
                    algorithm="SA",
                    transition=transition,
                    cost_before=current.cost,
                    cost_after=successor.cost,
                    accepted=accepted,
                    reason=(
                        None
                        if accepted
                        else f"Metropolis rejection (delta={delta:.6g}, "
                        f"temperature={temperature:.6g})"
                    ),
                    counter_outcome="applied",
                )
                if accepted:
                    recorder.counter(
                        "search.sa.moves", outcome="accepted"
                    ).add()
                    current = successor
                    if successor.cost < best.cost:
                        best = successor
                    moved = True
                    break
                recorder.counter("search.sa.moves", outcome="rejected").add()
            if not moved:
                break  # local minimum with no acceptable uphill move proposed
            temperature *= cooling

        elapsed = time.perf_counter() - started
        recorder.record_span(
            "search.sa.chain", elapsed, chain=seed, algorithm="SA"
        )
        return OptimizationResult(
            algorithm="SA",
            initial=initial,
            best=best,
            visited_states=len(seen),
            elapsed_seconds=elapsed,
            completed=completed,
            cache_hits=cache.hits - hits_before,
            jobs=1,
            lineage=best.lineage,
        )
    finally:
        if owned_cache:
            cache.flush()
