"""Data-parallel partitioned streaming execution (engine shards).

The streaming engine (:mod:`repro.engine.streaming`) bounds *memory*;
this module bounds *wall-clock* by splitting a run across worker
processes.  The workflows it accepts are the warehouse-refresh shape the
paper optimizes toward: trees of row-wise activities (FILTER / FUNCTION,
including MERGE packages of them) joined by UNION nodes into one or more
targets.  For those, every source can be range-partitioned into ``N``
contiguous slices and each slice pushed through its own copy of the
pipeline, because row-wise chains commute with ordered concatenation:

    chain(slice_0 ++ slice_1 ++ ...) == chain(slice_0) ++ chain(slice_1) ++ ...

**Byte-identity contract.**  A partitioned run returns the same
``targets``, ``stats`` and ``rejects`` as the serial streaming run (and
therefore as the materializing run), for every shard count:

* *targets* — the serial union drains its inputs in port order, i.e. one
  source-to-target *leaf* at a time; the merge below concatenates
  leaf-major then shard-major, which reproduces exactly that order;
* *stats* — row counters are sums, so per-shard counts add up to the
  serial totals; union counters are synthesized from each leaf's flow
  size at the union, which is what the serial union records batch by
  batch;
* *rejects* — filters drop rows in flow order; the same leaf-major /
  shard-major merge applies.

Each shard batches its source slices with the serial run's source
batcher and runs its row-wise chains through the same
:class:`~repro.engine.columnar.FusedChainRunner`, grouped the same way:
consecutive stages share a runner while they compile alike.

``StreamingMetrics`` is *not* part of the contract: a sharded run
genuinely processes more (smaller) batches and its peak is per-process,
so ``batches_by_activity`` and ``peak_resident_rows`` describe the
sharded run itself (deterministically, but not serial-identically).

Workflows outside the partitionable shape (fan-out, blocking operators,
joins) **degrade** to the serial streaming path — with a
``RuntimeWarning`` and a bump of the ``engine.shards_degraded`` counter,
never silently.  Shard fan-out reuses the search plane's
:class:`~repro.core.search.parallel.WorkerPool` (fork-server preloads,
accounted degradation under ``engine.pool_degraded``), so a broken pool
also falls back to in-process shard execution without losing results.
"""

from __future__ import annotations

import itertools
import time
import warnings
from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.activity import Activity, CompositeActivity
from repro.core.recordset import RecordSet
from repro.core.search.parallel import WorkerPool, preloaded, unload
from repro.core.workflow import ETLWorkflow
from repro.engine.batches import (
    ExecutionBudget,
    ResidentLedger,
    StreamingMetrics,
)
from repro.engine.columnar import FusedChainRunner
from repro.engine.executor import (
    ExecutionResult,
    ExecutionStats,
    Executor,
    iter_components,
)
from repro.engine.rows import Row
from repro.engine.streaming import (
    ComponentMetrics,
    _checked_batches,
    execute_streaming,
    is_row_wise,
    record_operator_spans,
)
from repro.exceptions import ExecutionError
from repro.obs import get_recorder

__all__ = [
    "LeafPath",
    "PartitionPlan",
    "partition_plan",
    "execute_partitioned",
    "shard_bounds",
]


@dataclass(frozen=True)
class LeafPath:
    """One source-to-target path through row-wise nodes and unions.

    ``steps`` runs from the source toward the target; each entry is
    ``("activity", node)`` for a row-wise (possibly composite) activity
    or ``("union", node)`` marking where this leaf's flow merges with
    its siblings.  Unions are pass-through per leaf — the marker exists
    so the executed plan can reconstruct the union's row counters.
    """

    source: RecordSet
    steps: tuple[tuple[str, Activity], ...]
    target: str


@dataclass(frozen=True)
class PartitionPlan:
    """A workflow decomposed into independently executable leaves.

    ``targets`` and ``activities`` are in topological order; ``leaves``
    are ordered by (target topological position, union port order) —
    exactly the order the serial streaming run materializes rows in.
    """

    workflow: ETLWorkflow
    targets: tuple[str, ...]
    leaves: tuple[LeafPath, ...]
    activities: tuple[Activity, ...]


def shard_bounds(num_rows: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, end)`` slices splitting ``num_rows`` into
    ``shards`` near-equal parts (order-preserving range partitioning)."""
    return [
        (num_rows * shard // shards, num_rows * (shard + 1) // shards)
        for shard in range(shards)
    ]


def _is_union(node: Activity) -> bool:
    # Template-name dispatch, exactly like the serial streaming path:
    # rebinding a custom operator under "union" does not change how the
    # engine drains it.
    return (
        not isinstance(node, CompositeActivity)
        and node.template.name == "union"
    )


def _leaves_for(
    workflow: ETLWorkflow, node, target: str
) -> list[LeafPath]:
    """All leaves under ``node``, in the serial drain order (DFS over
    providers in port order)."""
    if isinstance(node, RecordSet):
        if node.is_source:
            return [LeafPath(source=node, steps=(), target=target)]
        return _leaves_for(workflow, workflow.providers(node)[0], target)
    if _is_union(node):
        leaves: list[LeafPath] = []
        for provider in workflow.providers(node):
            for leaf in _leaves_for(workflow, provider, target):
                leaves.append(
                    LeafPath(
                        source=leaf.source,
                        steps=leaf.steps + (("union", node),),
                        target=target,
                    )
                )
        return leaves
    return [
        LeafPath(
            source=leaf.source,
            steps=leaf.steps + (("activity", node),),
            target=target,
        )
        for leaf in _leaves_for(
            workflow, workflow.providers(node)[0], target
        )
    ]


def _plan_or_reason(
    workflow: ETLWorkflow,
) -> tuple[PartitionPlan | None, str | None]:
    """Build a :class:`PartitionPlan`, or explain why there isn't one."""
    workflow.validate()
    workflow.propagate_schemas()
    order = workflow.topological_order()
    for node in order:
        if len(workflow.consumers(node)) > 1:
            return None, f"fan-out at {node.id!r} (multiple consumers)"
    activities = tuple(n for n in order if isinstance(n, Activity))
    for node in activities:
        if _is_union(node):
            continue
        if not node.is_unary:
            return None, (
                f"activity {node.id!r} ({node.template.name}) is not "
                f"unary"
            )
        if not all(is_row_wise(c) for c in iter_components(node)):
            return None, (
                f"activity {node.id!r} ({node.template.name}) is not "
                f"row-wise"
            )
    target_nodes = [
        n for n in order if isinstance(n, RecordSet) and n.is_target
    ]
    if not target_nodes:
        return None, "workflow has no target recordsets"
    leaves: list[LeafPath] = []
    for target in target_nodes:
        leaves.extend(_leaves_for(workflow, target, target.name))
    return (
        PartitionPlan(
            workflow=workflow,
            targets=tuple(t.name for t in target_nodes),
            leaves=tuple(leaves),
            activities=activities,
        ),
        None,
    )


def partition_plan(workflow: ETLWorkflow) -> PartitionPlan:
    """The shard-execution plan for ``workflow``.

    Raises :class:`~repro.exceptions.ExecutionError` when the workflow
    is not partitionable (fan-out, blocking/binary activities);
    :func:`execute_partitioned` degrades to serial streaming instead of
    raising.
    """
    plan, reason = _plan_or_reason(workflow)
    if plan is None:
        raise ExecutionError(f"workflow is not partitionable: {reason}")
    return plan


# -- per-shard execution (runs inside workers) -------------------------------


def _leaf_program(leaf, registry, context, collect_rejects):
    """Compile one leaf into executable ops.

    Consecutive stages share one :class:`FusedChainRunner` while they
    compile alike (see :meth:`FusedChainRunner.fits`); a reject-tracked
    filter activity joins as one group; union markers only record
    counters.  Ops are ``("chain", runner, stage_ids)`` or
    ``("union", node_id)``.
    """
    ops: list[tuple] = []
    chain: tuple | None = None
    for kind, node in leaf.steps:
        if kind == "union":
            ops.append(("union", node.id))
            chain = None
            continue
        components = tuple(iter_components(node))
        if collect_rejects and Executor.is_filter_like(node):
            groups = [(components, node.id)]
        else:
            groups = [((component,), None) for component in components]
        for group, reject_id in groups:
            if chain is None or not chain[1].fits(group):
                chain = ("chain", FusedChainRunner(context, registry), [])
                ops.append(chain)
            chain[1].add(group, reject_id)
            chain[2].extend(component.id for component in group)
    return ops


def _run_shard(
    plan: PartitionPlan,
    source_data: Mapping[str, list[Row]],
    shard: int,
    shards: int,
    budget: ExecutionBudget,
    check_schemas: bool,
    collect_rejects: bool,
    context,
    registry,
) -> dict:
    """Execute every leaf on this shard's source slices (pure).

    Returns a picklable summary: per-leaf target rows and rejects, plus
    per-component row/batch counters, the shard's resident peak, and its
    wall-clock seconds (the parent records one ``engine.shard`` span per
    shard from these, so a trace shows shard skew).
    """
    shard_started = time.perf_counter()
    ledger = ResidentLedger(budget.max_resident_rows)
    processed: dict[str, int] = {}
    produced: dict[str, int] = {}
    batches: dict[str, int] = {}
    leaf_targets: list[list[Row]] = []
    leaf_rejects: list[dict[str, list[Row]]] = []
    batch_size = budget.batch_size

    def record(component_id: str, rows_in: int, rows_out: int) -> None:
        processed[component_id] = processed.get(component_id, 0) + rows_in
        produced[component_id] = produced.get(component_id, 0) + rows_out
        batches[component_id] = batches.get(component_id, 0) + 1

    for leaf in plan.leaves:
        try:
            rows = source_data[leaf.source.name]
        except KeyError:
            raise ExecutionError(
                f"no data supplied for source {leaf.source.name!r}"
            ) from None
        start, end = shard_bounds(len(rows), shards)[shard]
        program = _leaf_program(leaf, registry, context, collect_rejects)
        rejects: dict[str, list[Row]] = {}
        out_rows: list[Row] = []
        for batch in _checked_batches(
            leaf.source, rows[start:end], batch_size, check_schemas
        ):
            ledger.acquire(leaf.source.id, len(batch))
            try:
                flow = batch
                for op in program:
                    if op[0] == "union":
                        record(op[1], len(flow), len(flow))
                        continue
                    _, runner, stage_ids = op
                    out, counts, dropped = runner.run_batch(flow)
                    for index, (rows_in, rows_out) in enumerate(counts):
                        if rows_in > 0 or runner.stage_in_reject_bound(index):
                            record(stage_ids[index], rows_in, rows_out)
                    for activity_id, dropped_rows in dropped.items():
                        if dropped_rows:
                            rejects.setdefault(activity_id, []).extend(
                                dropped_rows
                            )
                    flow = out
                    if not flow:
                        break
                if flow:
                    out_rows.extend(flow.rows())
            finally:
                ledger.release(leaf.source.id, len(batch))
        leaf_targets.append(out_rows)
        leaf_rejects.append(rejects)
    return {
        "targets": leaf_targets,
        "rejects": leaf_rejects,
        "processed": processed,
        "produced": produced,
        "batches": batches,
        "peak": ledger.peak,
        "seconds": time.perf_counter() - shard_started,
    }


#: Unique preload tokens per partitioned run (parent-process only).
_TOKEN_IDS = itertools.count()


def _shard_task(args: tuple) -> dict:
    """Pool task: run one shard against the preloaded run payload."""
    token, shard, shards = args
    payload = preloaded(token)
    return _run_shard(
        payload["plan"],
        payload["source_data"],
        shard,
        shards,
        payload["budget"],
        payload["check_schemas"],
        payload["collect_rejects"],
        payload["context"],
        payload["registry"],
    )


# -- entry point --------------------------------------------------------------


def execute_partitioned(
    executor,
    workflow: ETLWorkflow,
    source_data: Mapping[str, list[Row]],
    budget: ExecutionBudget,
    shards: int,
    check_schemas: bool = True,
    collect_rejects: bool = False,
    jobs: int | None = None,
) -> ExecutionResult:
    """Run ``workflow`` as ``shards`` data-parallel streaming pipelines.

    ``jobs`` bounds the worker processes (default: one per shard;
    ``jobs=1`` executes the shards in-process — useful for tests, and
    byte-identical to the pooled run by construction).  Non-partitionable
    workflows degrade to :func:`execute_streaming` with a
    ``RuntimeWarning`` and an ``engine.shards_degraded`` counter bump.
    """
    shards = int(shards)
    if shards <= 1:
        return execute_streaming(
            executor,
            workflow,
            source_data,
            budget,
            check_schemas=check_schemas,
            collect_rejects=collect_rejects,
        )
    plan, reason = _plan_or_reason(workflow)
    if plan is None:
        recorder = get_recorder()
        if recorder.active:
            recorder.counter("engine.shards_degraded").add()
        warnings.warn(
            f"partitioned execution degraded to serial streaming: {reason}",
            RuntimeWarning,
            stacklevel=3,
        )
        return execute_streaming(
            executor,
            workflow,
            source_data,
            budget,
            check_schemas=check_schemas,
            collect_rejects=collect_rejects,
        )

    jobs = shards if jobs is None else max(1, int(jobs))
    if jobs > 1:
        token = f"engine.shard:{next(_TOKEN_IDS)}"
        pool = WorkerPool(jobs, degraded_counter="engine.pool_degraded")
        pool.preload(
            token,
            {
                "plan": plan,
                "source_data": dict(source_data),
                "budget": budget,
                "check_schemas": check_schemas,
                "collect_rejects": collect_rejects,
                "context": executor.context,
                "registry": executor.registry,
            },
        )
        try:
            shard_results = pool.map(
                _shard_task,
                [(token, shard, shards) for shard in range(shards)],
            )
        finally:
            pool.close()
            unload(token)
    else:
        shard_results = [
            _run_shard(
                plan,
                source_data,
                shard,
                shards,
                budget,
                check_schemas,
                collect_rejects,
                executor.context,
                executor.registry,
            )
            for shard in range(shards)
        ]

    recorder = get_recorder()
    if recorder.active:
        for shard, result in enumerate(shard_results):
            recorder.record_span(
                "engine.shard",
                result.get("seconds", 0.0),
                shard=shard,
                shards=shards,
            )

    # Merge.  Registration order mirrors the serial pipeline build (topo
    # order, components in chain order) so the stats/metrics key order is
    # identical to a serial run's.
    stats = ExecutionStats()
    ordered_components: list[Activity] = []
    for node in plan.activities:
        for component in iter_components(node):
            stats.record(component.id, 0, 0)
            ordered_components.append(component)
    for result in shard_results:
        for component_id, rows_in in result["processed"].items():
            stats.record(
                component_id, rows_in, result["produced"][component_id]
            )

    targets: dict[str, list[Row]] = {name: [] for name in plan.targets}
    for leaf_index, leaf in enumerate(plan.leaves):
        bucket = targets[leaf.target]
        for result in shard_results:
            bucket.extend(result["targets"][leaf_index])

    rejects: dict[str, list[Row]] = {}
    if collect_rejects:
        for node in plan.activities:
            if Executor.is_filter_like(node):
                rejects[node.id] = []
        for leaf_index in range(len(plan.leaves)):
            for result in shard_results:
                for activity_id, rows in result["rejects"][
                    leaf_index
                ].items():
                    rejects[activity_id].extend(rows)

    batches_by_activity = {c.id: 0 for c in ordered_components}
    for result in shard_results:
        for component_id, count in result["batches"].items():
            batches_by_activity[component_id] += count
    peak = max((result["peak"] for result in shard_results), default=0)

    if recorder.active:
        # Shards keep no per-component timings or resident peaks, so the
        # operator spans carry zero seconds and a zero per-activity peak.
        ledger = ResidentLedger(budget.max_resident_rows)
        ledger.peak = peak
        record_operator_spans(
            recorder,
            {
                component.id: ComponentMetrics(
                    activity=component,
                    rows_in=stats.rows_processed[component.id],
                    rows_out=stats.rows_output[component.id],
                    batches=batches_by_activity[component.id],
                )
                for component in ordered_components
            },
            ledger,
        )
    return ExecutionResult(
        targets=targets,
        stats=stats,
        rejects=rejects,
        streaming=StreamingMetrics(
            batch_size=budget.batch_size,
            max_resident_rows=budget.max_resident_rows,
            peak_resident_rows=peak,
            spilled_rows=0,
            batches_by_activity=batches_by_activity,
        ),
    )
