"""Streaming batch-pipelined workflow execution.

The materializing executor holds every intermediate flow as a full list,
so memory — not processed rows — becomes the binding constraint long
before night-window-sized loads.  This module executes the same workflows
as generator pipelines over fixed-size :class:`~repro.engine.columnar.
Batch` chunks:

* **row-wise activities** (kind FILTER / FUNCTION) run through the one
  chain runner, :class:`~repro.engine.columnar.FusedChainRunner`, and
  adjacent row-wise nodes join the same :class:`_ChainPipe`.  Builtin
  templates compile into a *fused* columnar kernel — one generated
  function per chain per column layout — so a linear chain costs one
  pass over the touched columns per batch instead of one dict rebuild
  per operator per row.  Custom row-wise templates (and builtin
  templates re-bound to custom operators) get a pipe of their own that
  runs the row operators, so they never pull their builtin neighbours
  off the kernels;
* **blocking activities** run an explicit *accumulate-then-emit* phase:
  aggregation and distinct fold batches into O(groups) accumulators
  (column-wise when the batch has a usable column view), join buffers
  its build side (spilling to disk past the resident-row budget, then
  degrading to a block nested-loop probe), and difference/intersection
  fold the right input into a multiset counter;
* **fan-out nodes** (several consumers) are drained into a
  :class:`~repro.engine.batches.SpillableRowBuffer` each consumer replays;
* custom blocking/binary templates fall back to accumulate-everything +
  one call of their registered operator (correct, but unbounded — the
  price of an opaque operator).

The streaming path is row- and stats-identical to the materializing path:
same target lists, same per-activity (member-level, for composites)
``ExecutionStats`` counters.  That property is enforced by the
equivalence test suite, the fuzz oracles, and the Hypothesis columnar
conformance suite; setting ``REPRO_NO_COLUMNAR=1`` (see
:mod:`repro.core.flags`) makes the chain runner use the row operators
and sources skip the column build, for differential debugging.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from repro.core.activity import Activity, CompositeActivity
from repro.core.flags import columnar_enabled
from repro.obs import get_recorder
from repro.core.recordset import RecordSet
from repro.core.workflow import ETLWorkflow, Node
from repro.engine.batches import (
    ExecutionBudget,
    ResidentLedger,
    SpillableRowBuffer,
    StreamingMetrics,
    rebatch,
)
from repro.engine.columnar import Batch, FusedChainRunner, frozen_rows
from repro.engine.executor import (
    ExecutionResult,
    ExecutionStats,
    iter_components,
)
from repro.engine.operators import (
    _AGGREGATE_KINDS,
    _aggregate_value,
    _fold_measures,
)
from repro.engine.rows import Row, check_rows_match_schema, freeze_row
from repro.exceptions import ExecutionError
from repro.templates.base import ActivityKind

__all__ = [
    "ComponentMetrics",
    "execute_streaming",
    "is_row_wise",
    "record_operator_spans",
]

BatchIterator = Iterator[Batch]

_ROW_WISE_KINDS = (ActivityKind.FILTER, ActivityKind.FUNCTION)


def is_row_wise(component: Activity) -> bool:
    """True when the component may be applied batch-by-batch.

    FILTER and FUNCTION are row-wise *by the kind contract* (each output
    row depends on exactly one input row), so this extends to custom
    templates that declare those kinds.
    """
    return component.is_unary and component.kind in _ROW_WISE_KINDS


@dataclass
class ComponentMetrics:
    """Per-component measurements of one streaming run."""

    activity: Activity
    rows_in: int = 0
    rows_out: int = 0
    batches: int = 0
    seconds: float = 0.0


def record_operator_spans(
    recorder, metrics: dict[str, ComponentMetrics], ledger: ResidentLedger
) -> None:
    """One ``engine.operator`` span per component of a finished batched
    run, plus the resident-row gauges and the spilled-rows counter."""
    for component_id, entry in metrics.items():
        peak = ledger.peak_for(component_id)
        recorder.record_span(
            "engine.operator",
            entry.seconds,
            activity=component_id,
            activity_name=entry.activity.name,
            operator=entry.activity.template.name,
            rows_in=entry.rows_in,
            rows_out=entry.rows_out,
            batches=entry.batches,
            resident_peak=peak,
        )
        recorder.gauge("engine.resident_rows", activity=component_id).set(peak)
    recorder.gauge("engine.resident_rows.peak").set(ledger.peak)
    if ledger.spilled_rows:
        recorder.counter("engine.spilled_rows").add(ledger.spilled_rows)


def _checked_batches(
    node: RecordSet, rows: list[Row], batch_size: int, check_schemas: bool
) -> BatchIterator:
    """A source's rows as schema-checked batches (error row indices are
    relative to ``rows``).

    When schema checking is on and the columnar path is enabled, the
    conformance check *is* the column build: every row must yield a
    value for every schema attribute (KeyError otherwise) and carry
    exactly ``len(schema)`` attributes — together that is set equality,
    at one column-build pass instead of a per-row set comparison, and
    downstream fused chains get a column view for free.  Any violation
    re-runs the row checker for its exact per-row error message.
    """
    where = f"source {node.name}"
    fast = check_schemas and columnar_enabled()
    attrs = node.schema.attrs
    width = len(attrs)
    for start in range(0, len(rows), batch_size):
        chunk = rows[start : start + batch_size]
        if fast:
            try:
                if sum(map(len, chunk)) == width * len(chunk):
                    columns = {
                        name: [row[name] for row in chunk] for name in attrs
                    }
                    yield Batch.from_columns(columns, len(chunk))
                    continue
            except KeyError:
                pass
            # Some row diverges from the schema: the row checker raises
            # with the offending row's index.
            check_rows_match_schema(
                chunk, node.schema, where, start_index=start
            )
        elif check_schemas:
            check_rows_match_schema(
                chunk, node.schema, where, start_index=start
            )
        yield Batch.from_rows(chunk)


class _ChainPipe:
    """A chain of row-wise stages, possibly spanning node bounds.

    Construction happens during the topological pipeline build; adjacent
    row-wise nodes whose stages compile alike call :meth:`add` to join
    an existing (not yet iterated) pipe instead of stacking another
    generator on top, so a whole source-to-blocking stretch of builtin
    stages runs as one compiled loop per batch.

    A stage records a batch only when rows actually reached it — except
    stages inside a reject-collecting activity, which record even empty
    intermediates.  Stages share each batch's time evenly.
    """

    def __init__(
        self,
        run: "_StreamRun",
        upstream: BatchIterator,
        components: tuple[Activity, ...],
        reject_activity: str | None = None,
    ):
        self.run = run
        self.upstream = upstream
        self.runner = FusedChainRunner(run.context, run.registry)
        self.components: list[Activity] = []
        self.started = False
        self.add(components, reject_activity)

    def add(
        self,
        components: tuple[Activity, ...],
        reject_activity: str | None = None,
    ) -> None:
        self.components.extend(components)
        self.runner.add(components, reject_activity)

    def __iter__(self) -> Iterator[Batch]:
        self.started = True
        metrics = [self.run.metric(c) for c in self.components]
        always = [
            self.runner.stage_in_reject_bound(i)
            for i in range(len(self.components))
        ]
        rejects = self.run.rejects
        for batch in self.upstream:
            begun = time.perf_counter()
            out, counts, dropped = self.runner.run_batch(batch)
            elapsed = time.perf_counter() - begun
            recorded = [
                i
                for i, (rows_in, _) in enumerate(counts)
                if rows_in > 0 or always[i]
            ]
            share = elapsed / len(recorded) if recorded else 0.0
            for i in recorded:
                rows_in, rows_out = counts[i]
                self.run._record(metrics[i], rows_in, rows_out, share)
            for activity_id, rows in dropped.items():
                if rows:
                    rejects[activity_id].extend(rows)
            if out:
                yield out


class _StreamRun:
    """One streaming execution: builds the pipeline, drains the targets."""

    def __init__(
        self,
        executor,
        workflow: ETLWorkflow,
        source_data: Mapping[str, list[Row]],
        budget: ExecutionBudget,
        check_schemas: bool,
        collect_rejects: bool,
    ):
        self.workflow = workflow
        self.source_data = source_data
        self.budget = budget
        self.check_schemas = check_schemas
        self.collect_rejects = collect_rejects
        self.context = executor.context
        self.registry = executor.registry
        self.ledger = ResidentLedger(budget.max_resident_rows)
        self.stats = ExecutionStats()
        self.metrics: dict[str, ComponentMetrics] = {}
        self.rejects: dict[str, list[Row]] = {}
        self._buffers: list[SpillableRowBuffer] = []

    # -- bookkeeping ------------------------------------------------------

    def metric(self, component: Activity) -> ComponentMetrics:
        entry = self.metrics.get(component.id)
        if entry is None:
            entry = ComponentMetrics(activity=component)
            self.metrics[component.id] = entry
            # Materializing runs record every walked activity, even on
            # empty flows; register eagerly so the key sets match.
            self.stats.record(component.id, 0, 0)
        return entry

    def _record(
        self,
        metric: ComponentMetrics,
        rows_in: int,
        rows_out: int,
        seconds: float,
    ) -> None:
        metric.rows_in += rows_in
        metric.rows_out += rows_out
        metric.batches += 1
        metric.seconds += seconds
        self.stats.record(metric.activity.id, rows_in, rows_out)

    def _emit(self, owner: str, rows: Iterator[Row]) -> BatchIterator:
        """Re-chunk emitted rows, charging each batch while in flight."""
        for batch in rebatch(rows, self.budget.batch_size):
            self.ledger.acquire(owner, len(batch))
            try:
                yield batch
            finally:
                self.ledger.release(owner, len(batch))

    def _make_buffer(self, owner: str) -> SpillableRowBuffer:
        buffer = SpillableRowBuffer(
            self.ledger, owner, self.budget.spill_dir
        )
        self._buffers.append(buffer)
        return buffer

    # -- pipeline construction -------------------------------------------

    def execute(self) -> ExecutionResult:
        self.workflow.validate()
        self.workflow.propagate_schemas()
        targets: dict[str, list[Row]] = {}
        supply: dict[Node, list[BatchIterator]] = {}
        try:
            for node in self.workflow.topological_order():
                iterator = self._build_node(node, supply)
                if isinstance(node, RecordSet) and node.is_target:
                    flow: list[Row] = []
                    for batch in iterator:
                        flow.extend(batch)
                    targets[node.name] = flow
                    continue
                consumers = self.workflow.consumers(node)
                if len(consumers) <= 1:
                    supply[node] = [iterator]
                else:
                    # Fan-out: several consumers each need the full flow,
                    # potentially at different times — drain into a
                    # replayable (spillable) buffer.
                    buffer = self._make_buffer(f"fanout:{node.id}")
                    for batch in iterator:
                        buffer.extend(batch)
                    supply[node] = [
                        buffer.batches(self.budget.batch_size)
                        for _ in consumers
                    ]
        finally:
            for buffer in self._buffers:
                # Shield each close: one buffer failing to clean up must
                # not leak the spill files of the buffers after it.
                try:
                    buffer.close()
                except Exception:
                    pass
        recorder = get_recorder()
        if recorder.active:
            record_operator_spans(recorder, self.metrics, self.ledger)
        metrics = StreamingMetrics(
            batch_size=self.budget.batch_size,
            max_resident_rows=self.budget.max_resident_rows,
            peak_resident_rows=self.ledger.peak,
            spilled_rows=self.ledger.spilled_rows,
            batches_by_activity={
                component_id: entry.batches
                for component_id, entry in self.metrics.items()
            },
        )
        return ExecutionResult(
            targets=targets,
            stats=self.stats,
            rejects=self.rejects,
            streaming=metrics,
        )

    def _claim(
        self, supply: dict[Node, list[BatchIterator]], provider: Node
    ) -> BatchIterator:
        return supply[provider].pop()

    def _build_node(
        self, node: Node, supply: dict[Node, list[BatchIterator]]
    ) -> BatchIterator:
        if isinstance(node, RecordSet):
            if node.is_source:
                try:
                    rows = self.source_data[node.name]
                except KeyError:
                    raise ExecutionError(
                        f"no data supplied for source {node.name!r}"
                    ) from None
                return self._source_iter(node, rows)
            return self._claim(supply, self.workflow.providers(node)[0])
        input_iters = tuple(
            self._claim(supply, provider)
            for provider in self.workflow.providers(node)
        )
        return self._activity_iter(node, input_iters)

    def _source_iter(self, node: RecordSet, rows: list[Row]) -> BatchIterator:
        for batch in _checked_batches(
            node, rows, self.budget.batch_size, self.check_schemas
        ):
            self.ledger.acquire(node.id, len(batch))
            try:
                yield batch
            finally:
                self.ledger.release(node.id, len(batch))

    def _activity_iter(
        self, activity: Activity, input_iters: tuple[BatchIterator, ...]
    ) -> BatchIterator:
        from repro.engine.executor import Executor

        components = tuple(iter_components(activity))
        if (
            self.collect_rejects
            and Executor.is_filter_like(activity)
            and all(is_row_wise(component) for component in components)
        ):
            return self._chain_iter(
                components, input_iters[0], reject_activity=activity.id
            )
        if not isinstance(activity, CompositeActivity):
            return self._component_iter(activity, input_iters)
        iterator = input_iters[0]
        for component in components:
            iterator = self._component_iter(component, (iterator,))
        return iterator

    def _component_iter(
        self, component: Activity, input_iters: tuple[BatchIterator, ...]
    ) -> BatchIterator:
        self.metric(component)  # register before any batch flows
        if is_row_wise(component):
            return self._chain_iter((component,), input_iters[0])
        name = component.template.name
        if name == "aggregation":
            return self._aggregate(component, input_iters[0])
        if name == "distinct":
            return self._distinct(component, input_iters[0])
        if name == "union":
            return self._union(component, input_iters)
        if name == "join":
            return self._join(component, input_iters)
        if name in ("difference", "intersection"):
            return self._semi_anti(
                component, input_iters, keep=(name == "intersection")
            )
        return self._fallback(component, input_iters)

    # -- streaming operators ---------------------------------------------

    def _chain_iter(
        self,
        components: tuple[Activity, ...],
        upstream: BatchIterator,
        reject_activity: str | None = None,
    ) -> BatchIterator:
        """Chain ``components`` onto ``upstream`` (extending an existing
        pipe when the upstream is one that has not started flowing and
        whose stages compile alike)."""
        for component in components:
            self.metric(component)
        if reject_activity is not None:
            self.rejects.setdefault(reject_activity, [])
        if (
            isinstance(upstream, _ChainPipe)
            and not upstream.started
            and upstream.runner.fits(components)
        ):
            upstream.add(components, reject_activity)
            return upstream
        return _ChainPipe(self, upstream, components, reject_activity)

    def _aggregate(
        self, component: Activity, upstream: BatchIterator
    ) -> BatchIterator:
        metric = self.metric(component)
        group_by = tuple(component.params["group_by"])
        measure = component.params["measure"]
        out_attr = component.params["output"]
        kind = component.params["agg"]
        if kind not in _AGGREGATE_KINDS:
            raise ExecutionError(
                f"aggregation {component.id}: unknown aggregate {kind!r}"
            )
        # Per group, the materializing operator's fold state, updated in
        # arrival order: the emitted values are bit-identical to its.
        groups: dict[tuple, list] = {}
        try:
            for batch in upstream:
                begun = time.perf_counter()
                columns = batch.columns_or_none()
                if (
                    columns is not None
                    and measure in columns
                    and all(attr in columns for attr in group_by)
                ):
                    # Column-wise accumulate: zip the key columns and the
                    # measure column instead of building a dict per row.
                    measure_col = columns[measure]
                    if group_by:
                        key_iter = zip(*(columns[a] for a in group_by))
                    else:
                        key_iter = (() for _ in range(batch.num_rows))
                    pairs = zip(key_iter, measure_col)
                else:
                    pairs = (
                        (
                            tuple(row[attr] for attr in group_by),
                            row[measure],
                        )
                        for row in batch.rows()
                    )
                held = len(groups)
                try:
                    _fold_measures(kind, groups, pairs)
                finally:
                    self.ledger.acquire(component.id, len(groups) - held)
                self._record(
                    metric, len(batch), 0, time.perf_counter() - begun
                )

            def emit() -> Iterator[Row]:
                for key in sorted(groups, key=repr):
                    row = dict(zip(group_by, key))
                    row[out_attr] = _aggregate_value(kind, groups[key])
                    yield row

            for batch in self._emit(component.id, emit()):
                begun = time.perf_counter()
                self._record(metric, 0, len(batch), time.perf_counter() - begun)
                yield batch
        finally:
            self.ledger.release(component.id, len(groups))

    def _frozen_batch(self, batch: Batch) -> Iterator[tuple[int, tuple]]:
        """Per-row ``(index, frozen_row)`` with the row path's hashability
        error (:func:`freeze_row` raises ``ExecutionError`` on unhashable
        values), computed column-wise when the batch allows it."""
        columns = batch.columns_or_none()
        if columns is None:
            for index, row in enumerate(batch.rows()):
                yield index, freeze_row(row)
            return
        for index, frozen in enumerate(frozen_rows(columns, batch.num_rows)):
            try:
                hash(frozen)
            except TypeError as exc:
                raise ExecutionError(
                    f"row contains unhashable values: {batch.row_at(index)!r}"
                ) from exc
            yield index, frozen

    def _distinct(
        self, component: Activity, upstream: BatchIterator
    ) -> BatchIterator:
        metric = self.metric(component)
        keys = tuple(component.params["group_by"])
        best: dict[tuple, tuple] = {}
        survivors: dict[tuple, Row] = {}
        try:
            for batch in upstream:
                begun = time.perf_counter()
                columns = batch.columns_or_none()
                if columns is not None and all(k in columns for k in keys):
                    key_cols = [columns[k] for k in keys]
                    for index, frozen in self._frozen_batch(batch):
                        group = tuple(col[index] for col in key_cols)
                        current = best.get(group)
                        if current is None:
                            self.ledger.acquire(component.id, 1)
                        if current is None or frozen < current:
                            best[group] = frozen
                            survivors[group] = batch.row_at(index)
                else:
                    for row in batch.rows():
                        group = tuple(row[k] for k in keys)
                        frozen = freeze_row(row)
                        current = best.get(group)
                        if current is None:
                            self.ledger.acquire(component.id, 1)
                        if current is None or frozen < current:
                            best[group] = frozen
                            survivors[group] = row
                self._record(
                    metric, len(batch), 0, time.perf_counter() - begun
                )
            emitted = (
                survivors[group] for group in sorted(best, key=repr)
            )
            for batch in self._emit(component.id, emitted):
                self._record(metric, 0, len(batch), 0.0)
                yield batch
        finally:
            self.ledger.release(component.id, len(best))

    def _union(
        self, component: Activity, input_iters: tuple[BatchIterator, ...]
    ) -> BatchIterator:
        metric = self.metric(component)
        for upstream in input_iters:
            for batch in upstream:
                self._record(metric, len(batch), len(batch), 0.0)
                yield batch

    def _join(
        self, component: Activity, input_iters: tuple[BatchIterator, ...]
    ) -> BatchIterator:
        metric = self.metric(component)
        on = tuple(component.params["on"])
        left, right = input_iters
        buffer = self._make_buffer(component.id)
        try:
            for batch in right:
                begun = time.perf_counter()
                buffer.extend(batch)
                self._record(metric, len(batch), 0, time.perf_counter() - begun)
            if not buffer.spilled:
                # Build side fits the budget: classic hash join.
                index: dict[tuple, list[Row]] = {}
                for row in buffer.rows():
                    index.setdefault(
                        tuple(row[a] for a in on), []
                    ).append(row)
                for batch in left:
                    begun = time.perf_counter()
                    out: list[Row] = []
                    for row in batch.rows():
                        for match in index.get(
                            tuple(row[a] for a in on), ()
                        ):
                            merged = dict(match)
                            merged.update(row)
                            out.append(merged)
                    self._record(
                        metric, len(batch), len(out),
                        time.perf_counter() - begun,
                    )
                    if out:
                        yield Batch.from_rows(out)
            else:
                # Build side spilled: block nested-loop probe — one scan
                # of the spilled build side per probe batch, preserving
                # the hash join's (left-major, right-arrival) output
                # order exactly.
                for batch in left:
                    begun = time.perf_counter()
                    probe_rows = batch.to_rows()
                    probe_keys = [
                        tuple(row[a] for a in on) for row in probe_rows
                    ]
                    matches: list[list[Row]] = [[] for _ in probe_rows]
                    for build_row in buffer.rows():
                        build_key = tuple(build_row[a] for a in on)
                        for position, probe_key in enumerate(probe_keys):
                            if probe_key == build_key:
                                merged = dict(build_row)
                                merged.update(probe_rows[position])
                                matches[position].append(merged)
                    out = [row for rows in matches for row in rows]
                    self._record(
                        metric, len(batch), len(out),
                        time.perf_counter() - begun,
                    )
                    if out:
                        yield Batch.from_rows(out)
        finally:
            buffer.close()

    def _semi_anti(
        self,
        component: Activity,
        input_iters: tuple[BatchIterator, ...],
        keep: bool,
    ) -> BatchIterator:
        """difference (``keep=False``) / intersection (``keep=True``)."""
        metric = self.metric(component)
        left, right = input_iters
        counter: Counter = Counter()
        acquired = 0
        try:
            for batch in right:
                begun = time.perf_counter()
                for _, frozen in self._frozen_batch(batch):
                    if counter[frozen] == 0:
                        self.ledger.acquire(component.id, 1)
                        acquired += 1
                    counter[frozen] += 1
                self._record(metric, len(batch), 0, time.perf_counter() - begun)
            for batch in left:
                begun = time.perf_counter()
                kept_indices: list[int] = []
                for index, frozen in self._frozen_batch(batch):
                    if counter[frozen] > 0:
                        counter[frozen] -= 1
                        if keep:
                            kept_indices.append(index)
                    elif not keep:
                        kept_indices.append(index)
                self._record(
                    metric, len(batch), len(kept_indices),
                    time.perf_counter() - begun,
                )
                if kept_indices:
                    yield batch.select(kept_indices)
        finally:
            self.ledger.release(component.id, acquired)

    def _fallback(
        self, component: Activity, input_iters: tuple[BatchIterator, ...]
    ) -> BatchIterator:
        """Custom blocking/binary template: accumulate, apply, emit.

        Correct for any registered operator, but the accumulate phase is
        unbounded — an opaque operator gives the engine nothing to fold
        incrementally.
        """
        operator = self.registry.get(component.template.name)
        metric = self.metric(component)
        inputs: list[list[Row]] = []
        accumulated = 0
        try:
            for upstream in input_iters:
                flow: list[Row] = []
                for batch in upstream:
                    begun = time.perf_counter()
                    flow.extend(batch)
                    self.ledger.acquire(component.id, len(batch))
                    accumulated += len(batch)
                    self._record(
                        metric, len(batch), 0, time.perf_counter() - begun
                    )
                inputs.append(flow)
            begun = time.perf_counter()
            produced = operator(component, tuple(inputs), self.context)
            self._record(
                metric, 0, len(produced), time.perf_counter() - begun
            )
            yield from self._emit(component.id, iter(produced))
        finally:
            self.ledger.release(component.id, accumulated)


def execute_streaming(
    executor,
    workflow: ETLWorkflow,
    source_data: Mapping[str, list[Row]],
    budget: ExecutionBudget,
    check_schemas: bool = True,
    collect_rejects: bool = False,
) -> ExecutionResult:
    """Run ``workflow`` through the streaming pipeline under ``budget``."""
    run = _StreamRun(
        executor,
        workflow,
        source_data,
        budget,
        check_schemas=check_schemas,
        collect_rejects=collect_rejects,
    )
    with get_recorder().span(
        "engine.streaming", batch_size=budget.batch_size
    ):
        return run.execute()
