"""Resumable execution: checkpoints and recovery from mid-run failures.

ETL workflows run in tight night-time windows; when a load dies at 3 a.m.
the operator wants to resume, not restart (the paper cites Labio et al.,
"Efficient Resumption of Interrupted Warehouse Loads" [12], as related
work).  ``Executor.run(..., checkpoint=store)`` persists each node's
output flow into a :class:`CheckpointStore` as it completes; a re-run
against the same store skips every checkpointed node and recomputes only
the rest.

With an :class:`~repro.engine.batches.ExecutionBudget`, checkpointing is
**batch-granular**: each node's output is appended to a
:class:`PartialCheckpoint` one batch at a time, so a failure mid-node
leaves a durable prefix.  On resume, a row-wise node (every component of
kind FILTER/FUNCTION) keeps its prefix and recomputes only the suffix of
input rows it had not consumed; blocking and binary nodes discard the
partial and recompute whole (their accumulator state is not captured by
output batches alone).

For tests, a store can inject one failure: by node id (``fail_before``)
or by batch position (``fail_after=(node_id, n)`` — die after the node's
*n*-th output batch is appended).  An injected failure fires once and
disarms itself, so the next run against the store is the resume.  That
makes the recovery property mechanically testable: for *any* failure
point, failing + resuming must produce exactly the full run's targets
while recomputing only the work that had not completed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.activity import Activity
from repro.engine.batches import ExecutionBudget, iter_batches
from repro.engine.columnar import Batch, FusedChainRunner
from repro.engine.executor import ExecutionStats, Executor, iter_components
from repro.engine.rows import Row
from repro.exceptions import ExecutionError

__all__ = [
    "SimulatedFailure",
    "PartialCheckpoint",
    "CheckpointStore",
    "run_activity_batched",
]


class SimulatedFailure(ExecutionError):
    """Raised when execution reaches an injected failure point."""

    def __init__(self, node_id: str, after_batches: int | None = None):
        if after_batches is None:
            super().__init__(f"simulated failure before node {node_id}")
        else:
            super().__init__(
                f"simulated failure after batch {after_batches} "
                f"of node {node_id}"
            )
        self.node_id = node_id
        self.after_batches = after_batches


@dataclass
class PartialCheckpoint:
    """The durable prefix of one node's output, written batch by batch.

    ``consumed_rows`` is how many *input* rows produced those batches —
    the resume offset for row-wise nodes.  ``None`` marks the partial as
    non-resumable (blocking/binary node): its batches are only a crash
    artifact and the node recomputes whole.
    """

    batches: list[list[Row]] = field(default_factory=list)
    consumed_rows: int | None = 0

    @property
    def rows(self) -> list[Row]:
        return [row for batch in self.batches for row in batch]


@dataclass
class CheckpointStore:
    """Per-node output flows of (partially) completed runs.

    ``fail_before`` / ``fail_after`` are test-only failure injection: the
    run aborts with :class:`SimulatedFailure` just before node
    ``fail_before`` executes, or after node ``fail_after[0]``'s
    ``fail_after[1]``-th output batch was durably appended (needs a
    ``budget``).  Each fires once and then disarms.
    """

    flows: dict[str, list[Row]] = field(default_factory=dict)
    partials: dict[str, PartialCheckpoint] = field(default_factory=dict)
    fail_before: str | None = None
    fail_after: tuple[str, int] | None = None

    def __contains__(self, node_id: object) -> bool:
        return node_id in self.flows

    def save(self, node_id: str, rows: list[Row]) -> None:
        self.flows[node_id] = list(rows)
        # A completed node's partial is subsumed by the full flow.
        self.partials.pop(node_id, None)

    def restore(self, node_id: str) -> list[Row]:
        return list(self.flows[node_id])

    def begin_partial(self, node_id: str, resumable: bool) -> PartialCheckpoint:
        partial = PartialCheckpoint(consumed_rows=0 if resumable else None)
        self.partials[node_id] = partial
        return partial

    def append_partial(
        self,
        partial: PartialCheckpoint,
        batch: Batch | list[Row],
        consumed_rows: int | None,
    ) -> None:
        # ``list(batch)`` builds row dicts from a columnar Batch and
        # copies a plain row list — partials always store rows, which
        # keeps restore paths and crash artifacts layout-independent.
        partial.batches.append(list(batch))
        if partial.consumed_rows is not None:
            partial.consumed_rows = consumed_rows

    def check_fail_before(self, node_id: str) -> None:
        if self.fail_before is not None and node_id == self.fail_before:
            self.fail_before = None
            raise SimulatedFailure(node_id)

    def check_fail_after(self, node_id: str, appended: int) -> None:
        if self.fail_after is not None and self.fail_after == (
            node_id, appended
        ):
            self.fail_after = None
            raise SimulatedFailure(node_id, after_batches=appended)

    def clear(self) -> None:
        self.flows.clear()
        self.partials.clear()

    @property
    def completed_nodes(self) -> frozenset[str]:
        return frozenset(self.flows)


def run_activity_batched(
    executor: Executor,
    activity: Activity,
    inputs: tuple[list[Row], ...],
    stats: ExecutionStats,
    store: CheckpointStore,
    budget: ExecutionBudget,
) -> list[Row]:
    """Run one node for ``Executor.run(..., checkpoint=store,
    budget=...)``, appending its output to a partial checkpoint one batch
    at a time (and resuming a row-wise prefix if present)."""
    from repro.engine.streaming import is_row_wise

    components = tuple(iter_components(activity))
    row_wise = activity.is_unary and all(
        is_row_wise(component) for component in components
    )

    partial = store.partials.get(activity.id)
    if (
        partial is not None
        and row_wise
        and partial.consumed_rows is not None
    ):
        # Durable prefix from the failed attempt: keep it, recompute
        # only the input suffix it had not consumed.
        start = partial.consumed_rows
    else:
        partial = store.begin_partial(activity.id, resumable=row_wise)
        start = 0

    appended = 0
    if row_wise:
        flow = inputs[0]
        runner = FusedChainRunner(executor.context, executor.registry)
        runner.add(components)
        for offset in range(start, len(flow), budget.batch_size):
            batch = flow[offset : offset + budget.batch_size]
            out, counts, _ = runner.run_batch(Batch.from_rows(batch))
            for component, (rows_in, rows_out) in zip(components, counts):
                stats.record(component.id, rows_in, rows_out)
            store.append_partial(partial, out, offset + len(batch))
            appended += 1
            store.check_fail_after(activity.id, appended)
        return partial.rows

    # Blocking/binary node: compute whole (accumulator state is not
    # reconstructible from output batches), then persist the output
    # batch-by-batch so the failure injection point still exists.  A
    # blocking node with empty output never hits a fail_after point —
    # there is no batch boundary to fail on.
    produced = executor._run_activity(activity, inputs, stats)
    for batch in iter_batches(produced, budget.batch_size):
        store.append_partial(partial, batch, None)
        appended += 1
        store.check_fail_after(activity.id, appended)
    return produced
