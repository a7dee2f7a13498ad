"""The workflow interpreter: runs an ETL workflow on concrete data.

This is the substrate the paper assumes but does not describe: something
that actually executes an ETL workflow.  The executor walks the graph in
topological order, feeds each activity the flows of its providers, applies
the operator registered for its template, and collects the rows arriving
at each target recordset.  It also counts the rows every activity
processes — the empirical counterpart of the paper's processed-rows cost
model, used by the ablation benchmarks to validate the model.

Two execution paths share that contract:

* **materializing** (the default): every intermediate flow is a full
  Python list — simple, and fine for test-sized data;
* **streaming** (pass an :class:`~repro.engine.batches.ExecutionBudget`):
  rows move through the graph in fixed-size batches via generator
  pipelines, blocking operators accumulate-then-emit with optional
  spill-to-disk, and memory is bounded by the budget instead of the data.
  Results and :class:`ExecutionStats` are identical between the paths.

Composite (MER'd) activities are unfolded through one shared helper,
:func:`iter_components`, so both paths report member-level row counts
identically.

Tracing and checkpointing are options of the one :meth:`Executor.run`:
while a :class:`~repro.obs.Recorder` is active every run records an
``engine.run`` span with one ``engine.operator`` span per component
(:class:`~repro.engine.tracing.TraceReport` reads them back as a
profile), and ``checkpoint=`` persists each node's output into a
:class:`~repro.engine.checkpoint.CheckpointStore` so a re-run resumes.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Mapping
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.activity import Activity, CompositeActivity
from repro.core.recordset import RecordSet
from repro.core.workflow import ETLWorkflow
from repro.engine.batches import ExecutionBudget, StreamingMetrics
from repro.engine.operators import (
    EngineContext,
    OperatorRegistry,
    default_registry,
    default_scalar_functions,
)
from repro.engine.rows import Row, check_rows_match_schema
from repro.exceptions import ExecutionError
from repro.obs import Recorder, get_recorder, use_recorder

if TYPE_CHECKING:
    from repro.engine.checkpoint import CheckpointStore

__all__ = [
    "ExecutionStats",
    "ExecutionResult",
    "Executor",
    "iter_components",
]


def iter_components(activity: Activity) -> Iterator[Activity]:
    """The executable parts of an activity, in chain order.

    A plain activity yields itself; a :class:`CompositeActivity` yields
    its (recursively flattened) members.  Both execution paths and the
    fuzz oracles walk composites through this single helper, so packaged
    groups report member-level stats consistently everywhere.
    """
    if isinstance(activity, CompositeActivity):
        for component in activity.components:
            yield from iter_components(component)
    else:
        yield activity


@dataclass
class ExecutionStats:
    """Row counters per activity (keyed by activity id)."""

    rows_processed: dict[str, int] = field(default_factory=dict)
    rows_output: dict[str, int] = field(default_factory=dict)

    @property
    def total_rows_processed(self) -> int:
        """Total processed rows — the empirical 'cost' of the run."""
        return sum(self.rows_processed.values())

    def record(self, activity_id: str, processed: int, produced: int) -> None:
        self.rows_processed[activity_id] = (
            self.rows_processed.get(activity_id, 0) + processed
        )
        self.rows_output[activity_id] = (
            self.rows_output.get(activity_id, 0) + produced
        )


@dataclass
class ExecutionResult:
    """Output of one workflow run.

    ``rejects`` is populated when the run was started with
    ``collect_rejects=True``: for every *filter* activity, the rows it
    dropped — the reject streams real ETL deployments route to error
    tables for inspection and replay.

    ``streaming`` is populated by streaming runs only: the batch size the
    run used, its peak resident rows, and how many rows were spilled.
    """

    targets: dict[str, list[Row]]
    stats: ExecutionStats
    rejects: dict[str, list[Row]] = field(default_factory=dict)
    streaming: StreamingMetrics | None = None


class Executor:
    """Runs workflows against in-memory source data.

    Args:
        context: scalar functions / lookups / reference key sets; defaults
            to a context holding the builtin scalar function library.
        registry: template-name -> operator mapping; defaults to the
            builtin operators.
    """

    def __init__(
        self,
        context: EngineContext | None = None,
        registry: OperatorRegistry | None = None,
    ):
        if context is None:
            context = EngineContext(scalar_functions=default_scalar_functions())
        self.context = context
        self.registry = registry if registry is not None else default_registry()

    def run(
        self,
        workflow: ETLWorkflow,
        source_data: Mapping[str, list[Row]],
        *,
        check_schemas: bool = True,
        collect_rejects: bool = False,
        budget: ExecutionBudget | None = None,
        recorder: Recorder | None = None,
        shards: int | None = None,
        checkpoint: CheckpointStore | None = None,
    ) -> ExecutionResult:
        """Execute ``workflow`` on ``source_data`` (keyed by source name).

        With ``check_schemas`` (the default), every source flow is checked
        against its recordset's declared schema before the run — catching
        mismatches at the boundary instead of deep inside an operator.
        With ``collect_rejects``, every filter activity's dropped rows are
        gathered into ``ExecutionResult.rejects`` (keyed by activity id).
        With a ``budget``, rows are streamed through the graph in batches
        instead of materialized.
        With a ``recorder``, that :class:`~repro.obs.Recorder` is active
        for the duration of the run; whichever recorder is active receives
        the run's ``engine.run`` / ``engine.operator`` spans (see
        :meth:`~repro.engine.tracing.TraceReport.from_recorder`).
        With ``shards`` > 1, the run is split into that many data-parallel
        streaming pipelines over range-partitioned sources (implies
        streaming; targets/stats/rejects stay byte-identical to serial —
        see :mod:`repro.engine.partition`), degrading to serial streaming
        with a warning when the workflow shape does not allow it;
        ``shards=1`` is the unsharded run and ``shards`` < 1 raises
        :class:`~repro.exceptions.ExecutionError`.
        With a ``checkpoint`` store, every node's output is saved as it
        completes and nodes already in the store are restored instead of
        recomputed, so a run that failed resumes where it stopped; with a
        ``budget`` as well, outputs are saved batch by batch (see
        :mod:`repro.engine.checkpoint`).  Checkpointing runs the
        materializing loop, so it combines with neither ``shards`` > 1
        nor ``collect_rejects``.
        """
        if shards is not None and shards < 1:
            raise ExecutionError(f"shards must be at least 1, got {shards}")
        sharded = shards is not None and shards > 1
        if checkpoint is not None:
            if sharded:
                raise ExecutionError(
                    "checkpoint= cannot be combined with shards > 1"
                )
            if collect_rejects:
                raise ExecutionError(
                    "checkpoint= cannot be combined with collect_rejects=True"
                )
            if checkpoint.fail_after is not None and budget is None:
                raise ExecutionError(
                    "fail_after requires a budget (batch-granular mode)"
                )
        with ExitStack() as scope:
            if recorder is not None:
                scope.enter_context(use_recorder(recorder))
            # The run's one recorder check: an untraced run takes exactly
            # the code path it would without telemetry.
            active: Recorder | None = get_recorder()
            if active.active:
                mode = (
                    "checkpoint" if checkpoint is not None
                    else "sharded" if sharded
                    else "streaming" if budget is not None
                    else "batch"
                )
                scope.enter_context(active.span("engine.run", mode=mode))
            else:
                active = None
            if checkpoint is None and sharded:
                from repro.engine.partition import execute_partitioned

                return execute_partitioned(
                    self,
                    workflow,
                    source_data,
                    # Sharding is a streaming mode: without an explicit
                    # budget, shards run under the default batch size.
                    budget if budget is not None else ExecutionBudget(),
                    shards,
                    check_schemas=check_schemas,
                    collect_rejects=collect_rejects,
                )
            if checkpoint is None and budget is not None:
                from repro.engine.streaming import execute_streaming

                return execute_streaming(
                    self,
                    workflow,
                    source_data,
                    budget,
                    check_schemas=check_schemas,
                    collect_rejects=collect_rejects,
                )
            return self._materialize(
                workflow, source_data, check_schemas, collect_rejects,
                budget, checkpoint, active,
            )

    def _materialize(
        self,
        workflow: ETLWorkflow,
        source_data: Mapping[str, list[Row]],
        check_schemas: bool,
        collect_rejects: bool,
        budget: ExecutionBudget | None,
        checkpoint: CheckpointStore | None,
        recorder: Recorder | None,
    ) -> ExecutionResult:
        """The topological loop: every flow a full list.

        With a ``checkpoint`` store, each node is restored when present
        and saved when done; with a ``budget`` as well, activities run
        batch-granular (:func:`~repro.engine.checkpoint.
        run_activity_batched`).  A ``recorder`` receives one
        ``engine.operator`` span per component.
        """
        workflow.validate()
        workflow.propagate_schemas()
        if checkpoint is not None and budget is not None:
            from repro.engine.checkpoint import run_activity_batched

        flows: dict[object, list[Row]] = {}
        stats = ExecutionStats()
        targets: dict[str, list[Row]] = {}
        rejects: dict[str, list[Row]] = {}

        for node in workflow.topological_order():
            if checkpoint is not None:
                checkpoint.check_fail_before(node.id)
                if node.id in checkpoint:
                    flows[node] = checkpoint.restore(node.id)
                    if isinstance(node, RecordSet) and node.is_target:
                        targets[node.name] = flows[node]
                    continue
            if isinstance(node, RecordSet):
                if node.is_source:
                    try:
                        rows = source_data[node.name]
                    except KeyError:
                        raise ExecutionError(
                            f"no data supplied for source {node.name!r}"
                        ) from None
                    if check_schemas:
                        check_rows_match_schema(
                            rows, node.schema, f"source {node.name}"
                        )
                    flows[node] = list(rows)
                else:
                    provider = workflow.providers(node)[0]
                    flows[node] = flows[provider]
                    if node.is_target:
                        targets[node.name] = flows[node]
            else:
                inputs = tuple(flows[p] for p in workflow.providers(node))
                if checkpoint is not None and budget is not None:
                    flows[node] = run_activity_batched(
                        self, node, inputs, stats, checkpoint, budget
                    )
                else:
                    flows[node] = self._run_activity(
                        node, inputs, stats, recorder
                    )
                if collect_rejects:
                    self._collect_rejects(node, inputs, flows[node], rejects)
            if checkpoint is not None:
                checkpoint.save(node.id, flows[node])
        return ExecutionResult(targets=targets, stats=stats, rejects=rejects)

    @staticmethod
    def is_filter_like(activity: Activity) -> bool:
        """True for plain filters and all-filter composites — the
        activities whose dropped rows :meth:`run` can report as rejects."""
        from repro.templates.base import ActivityKind

        return all(
            component.kind is ActivityKind.FILTER
            for component in iter_components(activity)
        )

    @staticmethod
    def _collect_rejects(
        activity: Activity,
        inputs: tuple[list[Row], ...],
        produced: list[Row],
        rejects: dict[str, list[Row]],
    ) -> None:
        """Record the rows a filter dropped (bag difference in − out).

        Composite activities report per component would require threading
        intermediate flows; the package is reported as one filter when
        *all* its components are filters.
        """
        from collections import Counter

        from repro.engine.rows import freeze_row

        if not Executor.is_filter_like(activity):
            return
        kept = Counter(freeze_row(row) for row in produced)
        dropped: list[Row] = []
        for row in inputs[0]:
            frozen = freeze_row(row)
            if kept[frozen] > 0:
                kept[frozen] -= 1
            else:
                dropped.append(row)
        rejects[activity.id] = dropped

    def _run_activity(
        self,
        activity: Activity,
        inputs: tuple[list[Row], ...],
        stats: ExecutionStats,
        recorder: Recorder | None = None,
    ) -> list[Row]:
        """Run one (possibly composite) node by chaining its components."""
        if not isinstance(activity, CompositeActivity):
            return self._run_component(activity, inputs, stats, recorder)
        flow = inputs[0]
        for component in iter_components(activity):
            flow = self._run_component(component, (flow,), stats, recorder)
        return flow

    def _run_component(
        self,
        component: Activity,
        inputs: tuple[list[Row], ...],
        stats: ExecutionStats,
        recorder: Recorder | None = None,
    ) -> list[Row]:
        """Run one non-composite activity (the unit both paths account in),
        timed into an ``engine.operator`` span when a recorder is given."""
        operator = self.registry.get(component.template.name)
        started = time.perf_counter()
        produced = operator(component, inputs, self.context)
        rows_in = sum(len(flow) for flow in inputs)
        if recorder is not None:
            recorder.record_span(
                "engine.operator",
                time.perf_counter() - started,
                activity=component.id,
                activity_name=component.name,
                operator=component.template.name,
                rows_in=rows_in,
                rows_out=len(produced),
            )
        stats.record(component.id, processed=rows_in, produced=len(produced))
        return produced
