"""HS — the Heuristic Search algorithm of Fig. 7, and its greedy variant.

HS prunes the exhaustive space with four heuristics (section 4.2):

1. factorize only *homologous* activities against their common binary;
2. distribute only activities that can actually be transferred in front of
   a binary activity;
3. merge constraint-bound activities up front (and split at the end);
4. divide and conquer — optimize *local groups* instead of the whole graph.

The four phases:

* **Phase I** — swap-optimize the ordering of every local group of S0.
* **Phase II** — for each homologous pair, push both members next to their
  common binary activity (``ShiftFrw`` = a chain of swaps) and factorize;
  every resulting state is recorded in ``visited``.
* **Phase III** — for each recorded state, pull each distributable
  activity of the *initial* state back in front of its upstream binary
  (``ShiftBkw``) and distribute it into the branches.
* **Phase IV** — re-run the Phase-I swap optimization on every recorded
  state, since factorization/distribution changed the local groups.

Where the 8-page pseudocode leaves latitude, this implementation chooses
(and documents) the following: Phase I explores each local group's
reachable orderings best-first under a per-group budget
(``HSConfig.group_cap``); **HS-Greedy** replaces that exploration with
first-improvement hill climbing — "swaps only those that lead to a state
with less cost" — which is exactly the paper's description of the greedy
variant, and reproduces its profile (nearly as good on small workflows,
much faster, increasingly unstable on large ones).

Group optimization is *hermetic*: each local group is explored
independently from the phase's base state (its reachable orderings and
their costs depend only on the group's internal ordering — the input
cardinality and the rest of the graph are invariant under in-group
swaps), and the per-group winners are composed in group order.  That
invariance also lets the exploration step through the group kernel
(:mod:`repro.core.search.group_kernel`), which prices each swap from the
parent ordering instead of building a state.  Composition walks each
winning path through a kernel built on the composed state, which prices
every intermediate exactly, and builds a state only for each group's
final ordering.  ``REPRO_FULL_RECOST`` steps through
:meth:`SearchState.try_successor` instead and composes by building a
state per swap (the slow twins); ``REPRO_COST_ORACLE`` runs both ways,
exploration and composition, and asserts they agree.  Because every
group task is a pure function of (base workflow, member ids), the tasks
can run on a process pool (``SearchBudget.jobs``; workers rebuild the
base state by replaying its lineage on the fast path) or be replayed
from the transposition cache, and serial, parallel and warm-cache runs
all return byte-identical best states and visited counts.

Visited-state accounting matches section 4.1: every *unique* generated
state (signature-deduplicated), including the intermediate states of
shifts, counts as visited.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

from repro.core import flags
from repro.core.activity import Activity, CompositeActivity, base_clone_id
from repro.core.cost.estimator import estimate, estimate_incremental
from repro.core.cost.model import CostModel, ProcessedRowsCostModel
from repro.core.search.budget import SearchBudget
from repro.core.search.group_kernel import GroupKernel, Ordering, PricingTable
from repro.core.search.result import OptimizationResult
from repro.core.search.state import LineageStep, SearchState
from repro.core.search.transposition import (
    CacheNamespace,
    TranspositionCache,
    _model_key,
)
from repro.obs import (
    NULL_RECORDER,
    Recorder,
    get_recorder,
    record_transition,
    use_recorder,
)
from repro.obs.provenance import build_transition, transition_targets
from repro.core.signature import state_signature, workflow_fingerprint
from repro.core.transitions.factorize import Distribute, Factorize
from repro.core.transitions.merge import Merge, Split
from repro.core.transitions.swap import Swap
from repro.core.workflow import ETLWorkflow, Node
from repro.exceptions import ReproError, SearchBudgetExceeded, WorkflowError

__all__ = ["HSConfig", "heuristic_search"]


@dataclass
class HSConfig:
    """Tuning knobs for HS / HS-Greedy.

    Attributes:
        group_cap: per-local-group budget (number of ordering states to
            expand) for the Phase I/IV best-first exploration; ignored in
            greedy mode.
        phase_state_cap: maximum number of states kept on the Phase II/III
            ``visited`` worklist (guards pathological fan-out).
        phase_iv_cap: number of recorded states (cheapest first) whose
            local groups Phase IV re-optimizes.

    Stopping criteria live on :class:`SearchBudget`, not here.
    """

    group_cap: int = 64
    phase_state_cap: int = 48
    phase_iv_cap: int = 8

    def __post_init__(self) -> None:
        # 0 is valid (``group_cap=0`` is "HS without Phase I"); a negative
        # cap would silently act as 0 or, as a slice end, drop states.
        for name in ("group_cap", "phase_state_cap", "phase_iv_cap"):
            if getattr(self, name) < 0:
                raise ReproError(f"HSConfig.{name} must be >= 0")


class _Session:
    """Shared bookkeeping: cost model, dedup, clocks, and the running SMIN.

    Budget checks live only here — in the main process — so a wall-clock
    or state budget trips at the same replay position regardless of how
    many workers computed the group outcomes.

    The running SMIN is lazy: ``best_cost``, and either the best state or,
    while a composed path's intermediate holds it, the composed state and
    path prefix that reach it; :meth:`best_state` builds that state once,
    when the search returns.
    """

    def __init__(
        self,
        model: CostModel,
        config: HSConfig,
        budget: SearchBudget,
        ns: CacheNamespace | None = None,
        pool=None,
        algorithm: str = "HS",
        initial: SearchState | None = None,
    ):
        self.model = model
        self.config = config
        self.budget = budget
        self.algorithm = algorithm
        self.ns = ns
        self.pool = pool
        #: Fork-server token of the preloaded (S0 workflow, model) pair;
        #: set when a pool is attached, so group tasks ship compact
        #: lineage scripts instead of pickled workflows.
        self.preload_token: str | None = None
        self.seen: set[str] = set()
        self.started = time.perf_counter()
        self.best_cost: float | None = None
        #: The best state, or ``(composed state, path prefix)``.
        self._best: SearchState | tuple | None = None
        #: The pair guards and member steps every in-process group
        #: kernel of this search shares.
        self.table = PricingTable()
        if initial is not None:
            # Registered directly: the budget clock must not trip before
            # the search proper starts.
            self.seen.add(initial.signature)
            self.best_cost, self._best = initial.cost, initial

    def check_budget(self) -> None:
        if self.budget.max_seconds is not None:
            if time.perf_counter() - self.started > self.budget.max_seconds:
                raise SearchBudgetExceeded("HS wall-clock budget exhausted")
        if self.budget.max_states is not None:
            if len(self.seen) >= self.budget.max_states:
                raise SearchBudgetExceeded("HS state budget exhausted")

    def record(self, state: SearchState) -> bool:
        """Register a generated (materialized) state; False when already seen."""
        self.check_budget()
        if state.signature in self.seen:
            return False
        self.seen.add(state.signature)
        if self.ns is not None:
            self.ns.put_cost(state.signature, state.cost)
        if self.best_cost is None or state.cost < self.best_cost:
            self.best_cost, self._best = state.cost, state
        return True

    def record_stream(
        self,
        states: list[tuple[str, float]],
        composed: tuple[SearchState, list, SearchState] | None = None,
    ) -> None:
        """Register states that carry no workflow, as ``(signature,
        cost)`` in order: each passes the budget check first, as in
        :meth:`record`, and the new ones' costs reach the cache in one put.

        An exploration stream never lowers the best: its states are
        dominated by the composed group-best state.  A composed path's
        intermediates do: ``composed`` is ``(base, path, final)``, state
        ``i`` is the one ``path[: i + 1]`` reaches from ``base``, the last
        is ``final``, and a state that lowers the best cost becomes the
        best, pending unless it is ``final``.
        """
        seen = self.seen
        # check_budget() can raise only on a timed budget or at the limit.
        timed = self.budget.max_seconds is not None
        limit = self.budget.max_states or math.inf
        new: list[tuple[str, float]] = []
        try:
            for index, (signature, cost) in enumerate(states):
                if timed or len(seen) >= limit:
                    self.check_budget()
                if signature in seen:
                    continue
                seen.add(signature)
                new.append((signature, cost))
                if composed is not None and (
                    self.best_cost is None or cost < self.best_cost
                ):
                    base, path, final = composed
                    self.best_cost = cost
                    self._best = (
                        final
                        if index + 1 == len(path)
                        else (base, path[: index + 1])
                    )
        finally:
            if new and self.ns is not None:
                self.ns.put_costs(new)

    def best_state(self) -> SearchState | None:
        """The best state, built on first call when it is pending."""
        if isinstance(self._best, tuple):
            base, prefix = self._best
            self._best = _materialize_path(base, prefix, self.model)
        return self._best

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def heuristic_search(
    workflow: ETLWorkflow,
    model: CostModel | None = None,
    merge_constraints: tuple[tuple[str, str], ...] = (),
    config: HSConfig | None = None,
    greedy: bool = False,
    budget: SearchBudget | None = None,
    pool=None,
) -> OptimizationResult:
    """Run HS (or HS-Greedy with ``greedy=True``) on the initial state.

    Args:
        workflow: the initial workflow ``S0``.
        model: cost model; defaults to the processed-rows model.
        merge_constraints: pairs of activity ids to MERGE during
            pre-processing (design constraints / user constraints); the
            resulting packages are SPLIT again before returning.
        config: see :class:`HSConfig` (tuning knobs of the four phases).
        greedy: switch to the HS-Greedy swap strategy.
        budget: uniform :class:`SearchBudget` — stopping criteria plus the
            ``jobs`` / ``cache`` execution knobs; the ES-only
            ``prune_dominated`` is ignored.
        pool: a :class:`~repro.core.search.parallel.WorkerPool` to reuse
            (:func:`~repro.core.search.parallel.optimize_many` amortizes
            one pool across runs); by default a pool is created on demand
            when ``budget.jobs != 1`` and torn down before returning.
    """
    model = model if model is not None else ProcessedRowsCostModel()
    config = config if config is not None else HSConfig()
    budget = budget if budget is not None else SearchBudget()

    cache, owned_cache = TranspositionCache.resolve(budget.cache)
    hits_before = cache.hits
    jobs = budget.resolved_jobs()

    owned_pool = False
    if pool is None and jobs > 1:
        from repro.core.search.parallel import WorkerPool

        pool = WorkerPool(jobs)
        owned_pool = True

    algorithm = "HS-Greedy" if greedy else "HS"
    try:
        # Results are reported against the *unmerged* S0 for comparability;
        # merging never changes the state cost (components are priced as-is).
        reported_initial = SearchState.initial(workflow.copy(), model)
        # Pre-processing (Fig. 7 lines 4-8): apply MER per constraints —
        # as successor steps from S0, so the constraint merges are part of
        # the winning lineage and the whole chain replays from S0.
        initial = _apply_merge_constraints(
            reported_initial, merge_constraints, model, algorithm
        )
        session = _Session(
            model,
            config,
            budget,
            ns=cache.namespace(initial.workflow, model),
            pool=pool,
            algorithm=algorithm,
            initial=initial,
        )
        if pool is not None:
            # Fork-server preload: install (S0, model) in the parent
            # before the pool's first fan-out, so forked workers inherit
            # the workflow for free and group tasks reference it by
            # token + lineage script instead of pickling whole states.
            session.preload_token = (
                f"hs:{workflow_fingerprint(reported_initial.workflow)}"
                f":{_model_key(model)}"
            )
            pool.preload(
                session.preload_token, (reported_initial.workflow, model)
            )
        homologous_pairs = _find_homologous(initial.workflow)
        distributable = _find_distributable(initial.workflow)

        recorder = get_recorder()
        completed = True
        visited_list: list[SearchState] = []
        try:
            # Phase I (lines 9-13): swap-optimize every local group.
            with recorder.span("search.phase", algorithm=algorithm, phase="I"):
                smin = _optimize_all_groups(initial, session, greedy)
            visited_list = [smin]

            # Phase II (lines 14-20): factorize homologous pairs.
            with recorder.span("search.phase", algorithm=algorithm, phase="II"):
                visited_list = _phase_factorize(
                    visited_list, homologous_pairs, session
                )

            # Phase III (lines 21-28): distribute the initial state's
            # distributable activities over each recorded state.
            with recorder.span(
                "search.phase", algorithm=algorithm, phase="III"
            ):
                visited_list = _phase_distribute(
                    visited_list, distributable, session
                )

            # Phase IV (lines 29-35): re-optimize the groups of the most
            # promising recorded states (the factorized/distributed designs
            # changed their local groups, so new orderings may now win).
            with recorder.span("search.phase", algorithm=algorithm, phase="IV"):
                ranked = sorted(
                    visited_list, key=lambda s: (s.cost, s.signature)
                )
                for state in ranked[: config.phase_iv_cap]:
                    _optimize_all_groups(state, session, greedy)
        except SearchBudgetExceeded:
            completed = False

        best = session.best_state()
        # Post-processing (line 36): split every merged activity.
        best = _split_all(best, session)

        return OptimizationResult(
            algorithm=algorithm,
            initial=reported_initial,
            best=best,
            visited_states=len(session.seen),
            elapsed_seconds=session.elapsed,
            completed=completed,
            cache_hits=cache.hits - hits_before,
            jobs=jobs,
            lineage=best.lineage,
        )
    finally:
        if owned_pool:
            pool.close()
        if owned_cache:
            cache.flush()


# -- pre/post-processing -------------------------------------------------------------


def _apply_merge_constraints(
    state: SearchState,
    merge_constraints: tuple[tuple[str, str], ...],
    model: CostModel,
    algorithm: str,
) -> SearchState:
    """Apply constraint merges as MER successor steps from S0.

    Building the merged initial through :meth:`SearchState.successor`
    (with a full re-estimate, matching the old direct estimate of the
    merged workflow) keeps the constraint merges in the lineage, so the
    winning chain replays from the *unmerged* reported initial.
    """
    current = state
    for first_id, second_id in merge_constraints:
        first = current.workflow.node_by_id(first_id)
        second = current.workflow.node_by_id(second_id)
        if not isinstance(first, Activity) or not isinstance(second, Activity):
            raise WorkflowError(
                f"merge constraint ({first_id},{second_id}) names a recordset"
            )
        merge = Merge(first, second)
        merged = current.successor(
            merge, merge.apply(current.workflow), model, incremental=False
        )
        record_transition(
            algorithm=algorithm,
            transition=merge,
            cost_before=current.cost,
            cost_after=merged.cost,
            accepted=True,
            reason="merge constraint (pre-processing)",
        )
        current = merged
    return current


def _split_all(state: SearchState, session: _Session) -> SearchState:
    """Post-processing (Fig. 7 line 36): SPL until no composites remain.

    Each split is a successor step (full re-estimate, as the old direct
    re-wrap did), so the post-processing splits extend the lineage and the
    returned state's chain replays end-to-end.
    """
    current = state
    while True:
        merged = next(
            (
                node
                for node in current.workflow.activities()
                if isinstance(node, CompositeActivity)
            ),
            None,
        )
        if merged is None:
            return current
        split = Split(merged)
        after = current.successor(
            split, split.apply(current.workflow), session.model,
            incremental=False,
        )
        record_transition(
            algorithm=session.algorithm,
            transition=split,
            cost_before=current.cost,
            cost_after=after.cost,
            accepted=True,
            reason="post-processing split",
        )
        current = after


# -- homologous / distributable discovery (Fig. 7 lines 6-7) ---------------------------


def _next_binary_downstream(
    workflow: ETLWorkflow, activity: Activity
) -> Activity | None:
    """The first binary activity the flow of ``activity`` reaches."""
    current: Node = activity
    for _ in range(len(workflow)):
        consumers = workflow.consumers(current)
        if len(consumers) != 1:
            return None
        nxt = consumers[0]
        if isinstance(nxt, Activity):
            if nxt.is_binary:
                return nxt
            current = nxt
            continue
        return None
    return None


def _nearest_binary_upstream(
    workflow: ETLWorkflow, activity: Activity
) -> Activity | None:
    """The binary activity feeding the local group of ``activity``, if any."""
    current: Node = activity
    for _ in range(len(workflow)):
        providers = workflow.providers(current)
        if len(providers) != 1:
            return None
        prev = providers[0]
        if isinstance(prev, Activity):
            if prev.is_binary:
                return prev
            current = prev
            continue
        return None
    return None


def _find_homologous(
    workflow: ETLWorkflow,
) -> list[tuple[Activity, Activity, Activity]]:
    """All (a1, a2, ab): homologous pair converging on binary ab."""
    unary = [
        a
        for a in workflow.activities()
        if a.is_unary and not isinstance(a, CompositeActivity)
    ]
    unary.sort(key=lambda a: a.id)
    keys = {activity: activity.semantics_key() for activity in unary}
    found: list[tuple[Activity, Activity, Activity]] = []
    for first, second in itertools.combinations(unary, 2):
        if keys[first] != keys[second]:
            continue
        binary_first = _next_binary_downstream(workflow, first)
        binary_second = _next_binary_downstream(workflow, second)
        if binary_first is None or binary_first is not binary_second:
            continue
        if binary_first.template.name not in first.distributes_over:
            continue
        found.append((first, second, binary_first))
    return found


def _find_distributable(workflow: ETLWorkflow) -> list[Activity]:
    """Activities that could be transferred in front of an upstream binary."""
    found: list[Activity] = []
    for activity in sorted(workflow.activities(), key=lambda a: a.id):
        if not activity.is_unary or isinstance(activity, CompositeActivity):
            continue
        binary = _nearest_binary_upstream(workflow, activity)
        if binary is None:
            continue
        if binary.template.name in activity.distributes_over:
            found.append(activity)
    return found


def _root_id(activity_id: str) -> str:
    """Strip DIS clone suffixes recursively: ``8_1_2`` -> ``8``."""
    current = activity_id
    while True:
        stripped = base_clone_id(current)
        if stripped == current:
            return current
        current = stripped


def _distributable_in_state(
    state: SearchState, distributable_roots: set[str]
) -> list[Activity]:
    """Activities of ``state`` that descend from an initial distributable.

    Phase III must not re-distribute activities factorized in Phase II
    (Fig. 7 uses the *initial* state's D), but a clone produced by an
    earlier DIS is still "an activity of the initial state" — just pushed
    into a branch — and distributing it again cascades a selection down a
    union *tree*.  Membership is therefore tested on the clone-root id.
    """
    found: list[Activity] = []
    for activity in sorted(state.workflow.activities(), key=lambda a: a.id):
        if not activity.is_unary or isinstance(activity, CompositeActivity):
            continue
        if _root_id(activity.id) in distributable_roots:
            found.append(activity)
    return found


# -- shifting (chains of swaps; every intermediate is a counted state) ------------------


def _shift_state(
    state: SearchState,
    activity: Activity,
    binary: Activity,
    session: _Session,
    *,
    forward: bool,
) -> SearchState | None:
    """ShiftFrw (``forward=True``) or ShiftBkw as a chain of SWA steps.

    ShiftFrw pushes ``activity`` forward until it directly feeds
    ``binary``; ShiftBkw pulls it back until ``binary`` directly feeds
    it.  Every intermediate state is recorded as visited.  Returns the
    shifted state, or ``None`` when a swap along the way is inapplicable
    or ``binary`` is not reachable through unary activities.
    """
    current = state
    for _ in range(len(state.workflow)):
        if forward:
            neighbours = current.workflow.consumers(activity)
        else:
            neighbours = current.workflow.providers(activity)
        if len(neighbours) != 1:
            return None
        neighbour = neighbours[0]
        if neighbour is binary:
            return current
        if not isinstance(neighbour, Activity) or not neighbour.is_unary:
            return None
        swap = (
            Swap(activity, neighbour) if forward else Swap(neighbour, activity)
        )
        current = current.try_successor(
            swap, session.model, algorithm=session.algorithm
        )
        if current is None:
            return None
        session.record(current)
    return None


# -- Phase I / IV: local-group ordering optimization -------------------------------------
#
# Each group is explored *hermetically*: a pure function of the base
# workflow and the group's member ids.  A worker process re-estimates the
# base cost report; an in-process task takes the caller's delta-maintained
# one, which equals it bit for bit, so both compute the same floats.  A
# pricing-table hit returns what its miss computed, so sharing the
# search's table in-process and building one per pool task agree too.  The
# main process then composes the outcomes in group order —
# replaying each stream into the visited set and walking each best path
# on the composed state — so serial, parallel and warm-cache runs agree
# byte-for-byte.


def _group_memo_key(
    signature: str, member_ids: list[str], greedy: bool, group_cap: int
) -> str:
    """Cache key for one group outcome."""
    mode = "greedy" if greedy else f"bf{group_cap}"
    return f"{signature}|{'.'.join(member_ids)}|{mode}"


#: Batch local groups into one pool task only past this count — small
#: fan-outs keep one group per task (maximum worker overlap), large ones
#: amortize dispatch + result shipping.  Both the in-process and pooled
#: paths use the same batching (a pure function of the pending count),
#: so jobs=N telemetry stays byte-identical to serial.
_GROUP_BATCH_THRESHOLD = 8
_GROUP_BATCH = 4

#: Worker-side memo of replayed base workflows, keyed by
#: ``(preload token, lineage script)`` — a forked worker serves many
#: group tasks against the same few base states, so each state's script
#: replays at most once per worker process.
_REPLAY_CACHE: dict[tuple, ETLWorkflow] = {}
_REPLAY_CACHE_CAP = 32

#: Base reference forms inside a group task.
_BASE_STATE = "state"
_BASE_INLINE = "inline"
_BASE_REPLAY = "replay"


def _replay_script(
    base_workflow: ETLWorkflow,
    script: tuple[tuple[str, tuple[str, ...]], ...],
    signature: str,
) -> ETLWorkflow:
    """Reconstruct a search state's workflow from its lineage script.

    The script is the state's lineage as structured ``(mnemonic,
    target ids)`` payloads — replayed through the real transition system
    (:func:`~repro.obs.provenance.build_transition`) on a copy of the
    preloaded S0, on the incremental fast path (``apply_fast``: same
    contract as ``apply``, cross-checked under ``REPRO_COST_ORACLE``).
    The signature check turns any divergence into a loud error instead
    of a silently different search.
    """
    workflow = base_workflow.copy()
    workflow.validate()
    workflow.propagate_schemas()
    for mnemonic, targets in script:
        workflow = build_transition(workflow, mnemonic, targets).apply_fast(
            workflow
        )
    if state_signature(workflow) != signature:
        raise WorkflowError(
            "lineage-script replay diverged from the shipped state "
            f"signature ({signature[:16]}...)"
        )
    return workflow


def _resolve_base(
    base_ref: tuple, model: CostModel | None
) -> tuple[SearchState, CostModel, PricingTable]:
    """Materialize a group task's base state and pricing table from its
    reference.

    ``("state", state, table)`` is the caller's own :class:`SearchState`
    and the search's :class:`PricingTable` (in-process dispatch), taken
    as they are: the state's report was maintained by
    ``estimate_incremental``, which equals ``estimate`` bit for bit.
    Shipped references are re-signed and re-estimated here, and priced
    through a table the task builds for the groups it carries:
    ``("inline", workflow)`` carries the workflow (a pool without a
    preload); ``("replay", token, script, signature)`` rebuilds it from
    the fork-inherited preload — memoized per worker process, so one
    state's script replays once no matter how many of its groups land on
    the same worker.
    """
    if base_ref[0] == _BASE_STATE:
        return base_ref[1], model, base_ref[2]
    if base_ref[0] == _BASE_INLINE:
        workflow = base_ref[1]
    else:
        _, token, script, signature = base_ref
        from repro.core.search.parallel import preloaded

        base_workflow, preloaded_model = preloaded(token)
        key = (token, script)
        workflow = _REPLAY_CACHE.get(key)
        if workflow is None:
            workflow = _replay_script(base_workflow, script, signature)
            while len(_REPLAY_CACHE) >= _REPLAY_CACHE_CAP:
                _REPLAY_CACHE.pop(next(iter(_REPLAY_CACHE)))
            _REPLAY_CACHE[key] = workflow
        model = model if model is not None else preloaded_model
    base = SearchState(
        workflow=workflow,
        signature=state_signature(workflow),
        report=estimate(workflow, model),
    )
    return base, model, PricingTable()


def _group_task(
    args: tuple[
        tuple, list[list[str]], bool, int, CostModel | None, bool | None
    ],
) -> tuple[
    list[tuple[list[tuple[str, str]], list[tuple[str, float]]]], list[dict]
]:
    """Explore a batch of local groups from one base state (pure).

    In-process, the base is the dispatching search's own state and the
    groups share the search's pricing table; a worker rebuilds the base
    from the shipped reference and prices the batch through a table of
    its own (see :func:`_resolve_base`).
    Returns ``(outcomes, events)``: one ``(path, explored)`` outcome per
    requested group — ``path`` is the swap sequence (pairs of activity
    ids) leading from the base ordering to the best one found,
    ``explored`` is every locally-new state as ``(signature, cost)`` in
    generation order — and ``events`` is the task's telemetry buffer,
    shipped back through the result-merge path so worker-side spans land
    in the parent's recorder.  ``decisions`` is ``None`` when telemetry
    is off (the buffer is empty), else whether the task's recorder keeps
    decision events, as the dispatching recorder does.  Runs unchanged
    in-process or on a worker — a worker records into a private local
    recorder either way, so serial and parallel runs produce the same
    telemetry shape and byte-identical search outcomes.
    """
    base_ref, group_lists, greedy, group_cap, model, decisions = args
    base, model, table = _resolve_base(base_ref, model)
    algorithm = "HS-Greedy" if greedy else "HS"
    local = (
        NULL_RECORDER if decisions is None else Recorder(decisions=decisions)
    )
    outcomes: list[
        tuple[list[tuple[str, str]], list[tuple[str, float]]]
    ] = []
    with use_recorder(local):
        for member_ids in group_lists:
            members = [
                base.workflow.node_by_id(member_id) for member_id in member_ids
            ]
            with local.span(
                "search.group",
                members=len(member_ids),
                mode="greedy" if greedy else "best_first",
            ):
                path, explored = _explore_group(
                    base, members, model, algorithm, greedy, group_cap, table
                )
                local.counter("search.group.states_explored").add(
                    len(explored)
                )
            outcomes.append((path, explored))
    return outcomes, local.events()


def _explore_group(
    base: SearchState,
    members: list[Activity],
    model: CostModel,
    algorithm: str,
    greedy: bool,
    group_cap: int,
    table: PricingTable | None = None,
) -> tuple[list[tuple[str, str]], list[tuple[str, float]]]:
    """One group's ``(path, explored)``: best-first for HS, hill climbing
    for HS-Greedy, stepping through the group kernel (priced through
    ``table``, the search's, when given).

    ``REPRO_FULL_RECOST`` steps through :meth:`SearchState.try_successor`
    instead — the slow twin; ``REPRO_COST_ORACLE`` runs the twin too
    (unrecorded) and asserts both return the same outcome.
    """

    def explore(root, successors):
        if greedy:
            return _hill_climb(root, successors)
        return _best_first(root, successors, group_cap)

    def twin():
        return explore(base, _state_successors(set(members), model, algorithm))

    if flags.full_recost_enabled():
        return twin()
    kernel = GroupKernel(base, members, model, algorithm, table)
    outcome = explore(kernel.root, kernel.successors)
    kernel.record_counts()
    if flags.cost_oracle_enabled():
        with use_recorder(NULL_RECORDER):
            expected = twin()
        if outcome != expected:
            raise AssertionError(
                "cost oracle: the group kernel diverges from the "
                f"state-building twin on group {[m.id for m in members]}"
            )
    return outcome


def _state_successors(members: set[Activity], model: CostModel, algorithm: str):
    """The slow twin's step: each swap builds a recorded ``SearchState``."""

    def successors(state: SearchState):
        for swap in _group_swaps(state.workflow, members):
            yield (swap.first.id, swap.second.id), state.try_successor(
                swap, model, algorithm=algorithm
            )

    return successors


def _best_first(
    root, successors, group_cap: int
) -> tuple[list[tuple[str, str]], list[tuple[str, float]]]:
    """Best-first exploration of a group's reachable orderings (HS).

    ``root`` is the base ordering and ``successors(node)`` its step (see
    :func:`_explore_group`); nodes carry ``cost`` and ``signature``.
    Each pushed node keeps a link to its parent (its push number doubles
    as the heap's tie-break), and only the best node's path is rebuilt.
    """
    best_cost = root.cost
    best = 0
    local_seen = {root.signature}
    explored: list[tuple[str, float]] = []
    #: Push number → (parent's push number, swap pair); the root is 0.
    links: list[tuple[int, tuple[str, str]] | None] = [None]
    heap = [(root.cost, 0, root)]
    expansions = 0
    while heap and expansions < group_cap:
        _, parent, expanding = heapq.heappop(heap)
        expansions += 1
        for pair, successor in successors(expanding):
            if successor is None or successor.signature in local_seen:
                continue
            local_seen.add(successor.signature)
            explored.append((successor.signature, successor.cost))
            pushed = len(links)
            links.append((parent, pair))
            if successor.cost < best_cost:
                best_cost = successor.cost
                best = pushed
            heapq.heappush(heap, (successor.cost, pushed, successor))
    path: list[tuple[str, str]] = []
    while best:
        best, pair = links[best]
        path.append(pair)
    path.reverse()
    return path, explored


def _hill_climb(
    root, successors
) -> tuple[list[tuple[str, str]], list[tuple[str, float]]]:
    """First-improvement hill climbing over a group's ordering (HS-Greedy).

    Stops consuming ``successors`` at the first improvement, so later
    swaps are neither priced nor recorded.
    """
    current = root
    path: list[tuple[str, str]] = []
    explored: list[tuple[str, float]] = []
    improved = True
    while improved:
        improved = False
        for pair, successor in successors(current):
            if successor is None:
                continue
            explored.append((successor.signature, successor.cost))
            if successor.cost < current.cost:
                current = successor
                path.append(pair)
                improved = True
                break
    return path, explored


def _optimize_all_groups(
    state: SearchState, session: _Session, greedy: bool
) -> SearchState:
    """Optimize every local group of ``state`` and compose the winners.

    In-group swaps leave the group's input cardinality and the rest of
    the graph untouched, so each group's best ordering is independent of
    the others' and the composed state dominates every state any single
    exploration stream visited.  Outcomes come from the transposition
    cache when warm, from the worker pool when ``jobs > 1``, and are
    computed in-process otherwise — all three produce identical streams.
    """
    session.check_budget()
    groups = [
        [activity.id for activity in group]
        for group in state.workflow.local_groups()
        if len(group) >= 2
    ]
    if not groups:
        session.record(state)
        return state
    group_cap = session.config.group_cap
    recorder = get_recorder()

    keys = [
        _group_memo_key(state.signature, ids, greedy, group_cap)
        for ids in groups
    ]
    outcomes: list[
        tuple[list[tuple[str, str]], list[tuple[str, float]]] | None
    ] = [None] * len(groups)
    pending: list[int] = []
    for index, key in enumerate(keys):
        if session.ns is not None:
            entry = session.ns.get_group(key)
            if entry is not None:
                outcomes[index] = (
                    [tuple(pair) for pair in entry["path"]],
                    [tuple(item) for item in entry["explored"]],
                )
                continue
        pending.append(index)

    if pending:
        # Batch pending groups into contiguous chunks — one pool task per
        # chunk — to amortize dispatch and result shipping.  Chunking is
        # a pure function of the pending count (never of jobs), so the
        # task list, absorb order, and telemetry namespacing are
        # identical for every jobs value.
        chunk = (
            _GROUP_BATCH if len(pending) > _GROUP_BATCH_THRESHOLD else 1
        )
        batches = [
            pending[start : start + chunk]
            for start in range(0, len(pending), chunk)
        ]
        token = session.preload_token
        if token is not None and all(
            step.targets for step in state.lineage
        ):
            # Compact shipping: the workers hold S0 (fork-inherited
            # preload); reference this state by its lineage script
            # instead of pickling the whole workflow per task.
            script = tuple(
                (step.mnemonic, step.targets) for step in state.lineage
            )
            base_ref = (_BASE_REPLAY, token, script, state.signature)
            task_model = None
        else:
            base_ref = (_BASE_INLINE, state.workflow)
            task_model = session.model
        tasks = [
            (
                base_ref,
                [groups[index] for index in batch],
                greedy,
                group_cap,
                task_model,
                recorder.decisions if recorder.active else None,
            )
            for batch in batches
        ]
        if session.pool is not None and len(tasks) > 1:
            results = session.pool.map(_group_task, tasks)
        else:
            inline_tasks = [
                ((_BASE_STATE, state, session.table), task[1], task[2],
                 task[3], session.model) + task[5:]
                for task in tasks
            ]
            results = [_group_task(task) for task in inline_tasks]
        for batch, (batch_outcomes, events) in zip(batches, results):
            # Worker span buffers merge here, in deterministic dispatch
            # order, alongside the search outcomes themselves.
            recorder.absorb(events)
            for index, (path, explored) in zip(batch, batch_outcomes):
                outcomes[index] = (path, explored)
                if session.ns is not None:
                    session.ns.put_group(
                        keys[index],
                        {
                            "path": [list(pair) for pair in path],
                            "explored": [list(item) for item in explored],
                        },
                    )

    # Compose in group order: replay each stream into the visited set,
    # then walk the group's best path through a kernel on the composed
    # state and build its final ordering.  Identical for any jobs value.
    per_swap = flags.full_recost_enabled()
    current = state
    for member_ids, (path, explored) in zip(groups, outcomes):
        session.record_stream(explored)
        if not path:
            continue
        if not per_swap:
            members = [current.workflow.node_by_id(i) for i in member_ids]
            walked = GroupKernel(
                current, members, session.model, session.algorithm,
                session.table,
            ).walk(path)
            # A path the walk cannot finish is outside input (a cache
            # entry): the per-swap loop raises its error or applies its
            # swaps outside the group, and composes every later group.
            per_swap = len(walked) < len(path)
        if per_swap:
            current = _materialize_path(
                current, path, session.model, session.record
            )
            continue
        final = _composed_state(current, path, walked, session.model)
        if flags.cost_oracle_enabled():
            _check_composition(current, path, final, session.model)
        session.record_stream(
            [(ordering.signature, ordering.cost) for ordering in walked],
            (current, path, final),
        )
        current = final
    return current


def _materialize_path(
    state: SearchState,
    path: list[tuple[str, str]],
    model: CostModel,
    record=None,
) -> SearchState:
    """The per-swap loop: build the state each swap of ``path`` makes
    from ``state``, passing each to ``record`` when given.

    It composes groups under ``REPRO_FULL_RECOST`` (the slow twin) and
    builds a pending best (see :meth:`_Session.best_state`).
    """
    current = state
    for first_id, second_id in path:
        swap = Swap(
            current.workflow.node_by_id(first_id),
            current.workflow.node_by_id(second_id),
        )
        current = current.successor(
            swap, swap.apply_fast(current.workflow), model
        )
        if record is not None:
            record(current)
    return current


def _composed_state(
    base: SearchState,
    path: list[tuple[str, str]],
    walked: list[Ordering],
    model: CostModel,
) -> SearchState:
    """The state ``path`` reaches from ``base``, built once from the
    path's orderings (:meth:`GroupKernel.walk` on ``base``).

    One copy takes the per-swap loop's edge operations in path order;
    the members refill their slots of the parent's topological order
    (chain order follows slot order, as after each swap's patched
    order); validation, schemas and cost are re-derived once over the
    members, and the signature is the final ordering's.
    """
    workflow = base.workflow.copy()
    swaps = [Swap(*map(workflow.node_by_id, pair)) for pair in path]
    for swap in swaps:
        swap.rewire(workflow)
    members = walked[-1].members
    moved = set(members)
    order = list(base.workflow.topological_order())
    slots = [slot for slot, node in enumerate(order) if node in moved]
    for slot, member in zip(slots, members):
        order[slot] = member
    workflow.adopt_topology(order)
    workflow.validate_incremental(base.workflow, members)
    workflow.propagate_schemas_incremental(base.workflow, members)
    report = estimate_incremental(workflow, model, base.report, members)
    recorder = get_recorder()
    if recorder.active:
        recorder.counter("search.delta_recost_nodes").add(
            report.recosted_nodes
        )
    steps = tuple(
        LineageStep(
            mnemonic=swap.mnemonic,
            transition=swap.describe(),
            cost_after=ordering.cost,
            targets=transition_targets(swap),
        )
        for swap, ordering in zip(swaps, walked)
    )
    return SearchState(
        workflow=workflow,
        signature=walked[-1].signature,
        report=report,
        produced_by=swaps[-1],
        depth=base.depth + len(swaps),
        lineage=base.lineage + steps,
    )


def _check_composition(
    base: SearchState,
    path: list[tuple[str, str]],
    composed: SearchState,
    model: CostModel,
) -> None:
    """The cost oracle: the per-swap loop must build the same state."""
    with use_recorder(NULL_RECORDER):
        expected = _materialize_path(base, path, model)
    shapes = [
        (
            state.signature,
            state.report,
            state.lineage,
            list(state.workflow.edges()),
            state.workflow.pred,
            state.workflow.topological_order(),
            state.workflow.propagate_schemas(),
        )
        for state in (composed, expected)
    ]
    if shapes[0] != shapes[1]:
        raise AssertionError(
            f"cost oracle: composing the group path {path} through the "
            "group kernel diverges from the per-swap loop"
        )


def _group_swaps(workflow: ETLWorkflow, members: set[Activity]) -> list[Swap]:
    """Adjacent swap candidates confined to one local group."""
    swaps: list[Swap] = []
    for activity in sorted(members, key=lambda a: a.id):
        consumers = workflow.consumers(activity)
        if len(consumers) != 1:
            continue
        consumer = consumers[0]
        if isinstance(consumer, Activity) and consumer in members:
            swaps.append(Swap(activity, consumer))
    return swaps


# -- Phase II: factorization -------------------------------------------------------------


def _phase_factorize(
    visited: list[SearchState],
    homologous_pairs: list[tuple[Activity, Activity, Activity]],
    session: _Session,
) -> list[SearchState]:
    worklist = list(visited)
    produced = list(visited)
    for state in worklist:
        for first, second, binary in homologous_pairs:
            if first not in state.workflow or second not in state.workflow:
                continue
            if binary not in state.workflow:
                continue
            shifted_first = _shift_state(
                state, first, binary, session, forward=True
            )
            if shifted_first is None:
                continue
            shifted_both = _shift_state(
                shifted_first, second, binary, session, forward=True
            )
            if shifted_both is None:
                continue
            new_state = shifted_both.try_successor(
                Factorize(binary, first, second),
                session.model,
                algorithm=session.algorithm,
            )
            if (
                new_state is not None
                and session.record(new_state)
                and len(produced) < session.config.phase_state_cap
            ):
                produced.append(new_state)
                worklist.append(new_state)
    return produced


# -- Phase III: distribution ---------------------------------------------------------------


def _phase_distribute(
    visited: list[SearchState],
    distributable: list[Activity],
    session: _Session,
) -> list[SearchState]:
    distributable_roots = {_root_id(a.id) for a in distributable}
    worklist = list(visited)
    produced = list(visited)
    for state in worklist:
        for activity in _distributable_in_state(state, distributable_roots):
            binary = _nearest_binary_upstream(state.workflow, activity)
            if binary is None:
                continue
            if binary.template.name not in activity.distributes_over:
                continue
            shifted = _shift_state(
                state, activity, binary, session, forward=False
            )
            if shifted is None:
                continue
            new_state = shifted.try_successor(
                Distribute(binary, activity),
                session.model,
                algorithm=session.algorithm,
            )
            if (
                new_state is not None
                and session.record(new_state)
                and len(produced) < session.config.phase_state_cap
            ):
                produced.append(new_state)
                worklist.append(new_state)
    return produced
