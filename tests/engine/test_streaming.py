"""Streaming engine: equivalence with materializing, budgets, and spill."""

import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    DEFAULT_BATCH_SIZE,
    ExecutionBudget,
    Executor,
    ResidentLedger,
    SpillableRowBuffer,
    StreamingMetrics,
    as_multiset,
    iter_components,
    streaming_matches_materializing,
)
from repro.engine.batches import iter_batches, rebatch
from repro.engine.tracing import TraceReport
from repro.obs import Recorder
from repro.exceptions import ExecutionError
from repro.workloads import generate_workload
from repro.workloads.scenarios import (
    dual_target_scenario,
    star_join_scenario,
    two_branch_scenario,
)


def assert_runs_identical(base, streamed):
    """The streaming contract: identical targets, stats, and rejects."""
    assert set(base.targets) == set(streamed.targets)
    for name in base.targets:
        assert base.targets[name] == streamed.targets[name]
    assert base.stats.rows_processed == streamed.stats.rows_processed
    assert base.stats.rows_output == streamed.stats.rows_output
    assert set(base.rejects) == set(streamed.rejects)
    for activity_id in base.rejects:
        assert as_multiset(base.rejects[activity_id]) == as_multiset(
            streamed.rejects[activity_id]
        )


class TestExecutionBudget:
    def test_defaults(self):
        budget = ExecutionBudget()
        assert budget.batch_size == DEFAULT_BATCH_SIZE
        assert budget.max_resident_rows is None
        assert budget.spill_dir is None

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_invalid_batch_size(self, batch_size):
        with pytest.raises(ExecutionError):
            ExecutionBudget(batch_size=batch_size)

    def test_invalid_resident_rows(self):
        with pytest.raises(ExecutionError):
            ExecutionBudget(max_resident_rows=0)


class TestEquivalenceOnGeneratedWorkloads:
    @pytest.mark.parametrize("category", ["tiny", "small", "medium"])
    @pytest.mark.parametrize("batch_size", [1, 7, 4096])
    def test_identical_targets_stats_rejects(self, category, batch_size):
        workload = generate_workload(category, seed=11)
        data = workload.make_data(11)
        executor = Executor(context=workload.context)
        base = executor.run(workload.workflow, data, collect_rejects=True)
        streamed = executor.run(
            workload.workflow,
            data,
            collect_rejects=True,
            budget=ExecutionBudget(batch_size=batch_size),
        )
        assert_runs_identical(base, streamed)
        assert streamed.streaming is not None
        assert base.streaming is None

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        batch_size=st.integers(min_value=1, max_value=200),
    )
    def test_property_streaming_matches(self, seed, batch_size):
        workload = generate_workload("small", seed=seed)
        data = workload.make_data(seed)
        report = streaming_matches_materializing(
            workload.workflow,
            data,
            ExecutionBudget(batch_size=batch_size),
            executor=Executor(context=workload.context),
        )
        assert report.conformant, report.problems


class TestEquivalenceOnBinaryScenarios:
    """The generator emits only union chains; these cover join and the
    multi-consumer fan-out path."""

    @pytest.mark.parametrize(
        "builder",
        [star_join_scenario, dual_target_scenario, two_branch_scenario],
    )
    @pytest.mark.parametrize("batch_size", [1, 3, 4096])
    def test_scenarios(self, builder, batch_size):
        scenario = builder()
        data = scenario.make_data(0)
        executor = Executor(context=scenario.context)
        base = executor.run(scenario.workflow, data)
        streamed = executor.run(
            scenario.workflow, data, budget=ExecutionBudget(batch_size=batch_size)
        )
        assert base.targets == streamed.targets
        assert base.stats.rows_processed == streamed.stats.rows_processed
        assert base.stats.rows_output == streamed.stats.rows_output


class TestFig1Streaming:
    def test_fig1_streams_identically(self, fig1, fig1_executor):
        data = fig1.make_data(seed=5)
        base = fig1_executor.run(fig1.workflow, data)
        streamed = fig1_executor.run(
            fig1.workflow, data, budget=ExecutionBudget(batch_size=13)
        )
        assert base.targets == streamed.targets
        assert base.stats.rows_processed == streamed.stats.rows_processed

    def test_composite_reports_member_level_stats(self, fig1, fig1_executor):
        """MER'd groups account per component on both paths (satellite)."""
        from repro.core.transitions import Merge

        workflow = fig1.workflow
        merged = None
        for first in workflow.activities():
            for second in workflow.consumers(first):
                candidate = Merge(first, second).try_apply(workflow)
                if candidate is not None:
                    merged = candidate
                    break
            if merged is not None:
                break
        assert merged is not None
        data = fig1.make_data(seed=5)
        base = fig1_executor.run(merged, data)
        streamed = fig1_executor.run(
            merged, data, budget=ExecutionBudget(batch_size=17)
        )
        composite = next(
            a for a in merged.activities()
            if len(list(iter_components(a))) > 1
        )
        for component in iter_components(composite):
            assert component.id in base.stats.rows_processed
            assert (
                base.stats.rows_processed[component.id]
                == streamed.stats.rows_processed[component.id]
            )


class TestDefaultBudget:
    def test_per_run_budget_overrides_default(self):
        # The executor holds no budget: a run streams exactly when it
        # passes one, and materializes otherwise.
        workload = generate_workload("tiny", seed=2)
        data = workload.make_data(2)
        executor = Executor(context=workload.context)
        assert executor.run(workload.workflow, data).streaming is None
        result = executor.run(
            workload.workflow, data, budget=ExecutionBudget(batch_size=3)
        )
        assert result.streaming.batch_size == 3


class TestSpill:
    def test_forced_spill_is_identical_and_cleaned_up(self, tmp_path):
        scenario = star_join_scenario()
        data = scenario.make_data(0)
        executor = Executor(context=scenario.context)
        base = executor.run(scenario.workflow, data)
        streamed = executor.run(
            scenario.workflow,
            data,
            budget=ExecutionBudget(
                batch_size=4, max_resident_rows=8, spill_dir=str(tmp_path)
            ),
        )
        assert base.targets == streamed.targets
        assert base.stats.rows_processed == streamed.stats.rows_processed
        assert streamed.streaming.spilled_rows > 0
        assert glob.glob(str(tmp_path / "*")) == []  # spill files removed

    def test_without_spill_dir_peak_is_tracked_not_enforced(self):
        scenario = star_join_scenario()
        data = scenario.make_data(0)
        executor = Executor(context=scenario.context)
        streamed = executor.run(
            scenario.workflow,
            data,
            budget=ExecutionBudget(batch_size=4, max_resident_rows=1),
        )
        assert streamed.streaming.spilled_rows == 0
        assert streamed.streaming.peak_resident_rows > 1
        assert not streamed.streaming.within_budget

    def test_generated_workload_under_tight_budget(self, tmp_path):
        workload = generate_workload("small", seed=7, rows_per_source=200)
        data = workload.make_data(7)
        executor = Executor(context=workload.context)
        base = executor.run(workload.workflow, data)
        streamed = executor.run(
            workload.workflow,
            data,
            budget=ExecutionBudget(
                batch_size=16,
                max_resident_rows=600,
                spill_dir=str(tmp_path),
            ),
        )
        assert base.targets == streamed.targets
        assert streamed.streaming.peak_resident_rows <= 600


class TestResidentLedger:
    def test_peak_and_per_owner_accounting(self):
        ledger = ResidentLedger(limit=10)
        ledger.acquire("a", 6)
        ledger.acquire("b", 5)
        assert ledger.current == 11
        assert ledger.peak == 11
        assert ledger.over_budget
        ledger.release("b", 5)
        assert ledger.current == 6
        assert not ledger.over_budget
        assert ledger.peak == 11
        assert ledger.peak_for("a") == 6
        assert ledger.peak_for("b") == 5
        assert ledger.peak_for("missing") == 0

    def test_no_limit_never_over_budget(self):
        ledger = ResidentLedger()
        ledger.acquire("a", 10**9)
        assert not ledger.over_budget


class TestSpillableRowBuffer:
    def test_replay_preserves_append_order_across_spills(self, tmp_path):
        ledger = ResidentLedger(limit=4)
        buffer = SpillableRowBuffer(ledger, "x", str(tmp_path))
        rows = [{"i": i} for i in range(20)]
        for start in range(0, 20, 3):
            buffer.extend(rows[start : start + 3])
        assert buffer.spilled
        assert len(buffer) == 20
        assert list(buffer.rows()) == rows
        buffer.close()
        assert glob.glob(str(tmp_path / "*")) == []

    def test_frozen_after_read(self, tmp_path):
        ledger = ResidentLedger()
        buffer = SpillableRowBuffer(ledger, "x", str(tmp_path))
        buffer.extend([{"i": 1}])
        list(buffer.rows())
        with pytest.raises(ExecutionError):
            buffer.extend([{"i": 2}])
        buffer.close()

    def test_close_is_idempotent_and_releases(self):
        ledger = ResidentLedger()
        buffer = SpillableRowBuffer(ledger, "x")
        buffer.extend([{"i": 1}, {"i": 2}])
        assert ledger.current == 2
        buffer.close()
        buffer.close()
        assert ledger.current == 0


class TestBatchingHelpers:
    def test_iter_batches_covers_all_rows(self):
        rows = [{"i": i} for i in range(10)]
        batches = list(iter_batches(rows, 3))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        assert [row for batch in batches for row in batch] == rows

    def test_rebatch_ragged_input(self):
        rows = ({"i": i} for i in range(7))
        batches = list(rebatch(rows, 4))
        assert [len(b) for b in batches] == [4, 3]

    def test_empty(self):
        assert list(iter_batches([], 5)) == []
        assert list(rebatch(iter([]), 5)) == []


class TestStreamingMetrics:
    def test_within_budget(self):
        metrics = StreamingMetrics(
            batch_size=10, max_resident_rows=100, peak_resident_rows=50
        )
        assert metrics.within_budget
        metrics.peak_resident_rows = 200
        assert not metrics.within_budget

    def test_no_limit_always_within(self):
        metrics = StreamingMetrics(
            batch_size=10, max_resident_rows=None, peak_resident_rows=10**9
        )
        assert metrics.within_budget


class TestCustomBlockingFallback:
    """A template the streaming engine has no incremental form for falls
    back to accumulate-then-apply — correct, just unbounded."""

    def test_custom_blocking_template(self):
        from repro.core.activity import Activity
        from repro.core.recordset import RecordSet, RecordSetKind
        from repro.core.schema import Schema
        from repro.core.workflow import ETLWorkflow
        from repro.engine import default_registry
        from repro.templates.base import (
            ActivityKind,
            ActivityTemplate,
            CostShape,
            SchemaPlan,
        )

        template = ActivityTemplate(
            name="tail2",
            kind=ActivityKind.AGGREGATION,
            arity=1,
            cost_shape=CostShape.SORT,
            param_names=(),
            planner=lambda params: SchemaPlan(
                functionality_per_input=(Schema(()),),
                generated=Schema(()),
                projected_out=Schema(()),
            ),
            doc="keep the last two rows",
        )
        registry = default_registry()
        registry.register(
            "tail2", lambda activity, inputs, ctx: list(inputs[0][-2:])
        )

        workflow = ETLWorkflow()
        source = RecordSet(
            "S", "S", Schema(("A",)), kind=RecordSetKind.SOURCE, cardinality=9
        )
        target = RecordSet("T", "T", Schema(("A",)), kind=RecordSetKind.TARGET)
        activity = Activity("a1", template, {}, selectivity=0.2)
        for node in (source, target, activity):
            workflow.add_node(node)
        workflow.add_edge(source, activity)
        workflow.add_edge(activity, target)

        data = {"S": [{"A": i} for i in range(9)]}
        executor = Executor(registry=registry)
        base = executor.run(workflow, data)
        streamed = executor.run(
            workflow, data, budget=ExecutionBudget(batch_size=2)
        )
        assert base.targets == streamed.targets == {"T": [{"A": 7}, {"A": 8}]}
        assert base.stats.rows_processed == streamed.stats.rows_processed


class TestTracingStreams:
    def test_trace_reports_batches_and_peaks(self):
        workload = generate_workload("small", seed=4)
        data = workload.make_data(4)
        recorder = Recorder()
        Executor(context=workload.context).run(
            workload.workflow, data, budget=ExecutionBudget(batch_size=16),
            recorder=recorder,
        )
        trace = TraceReport.from_recorder(recorder)
        assert trace is not None and trace.traces
        busy = [t for t in trace.traces if t.rows_in > 16]
        assert busy and all(t.batches > 1 for t in busy)
        assert all(t.peak_resident_rows is not None for t in trace.traces)
        rendered = trace.render(top=3)
        assert "batches" in rendered and "res.peak" in rendered

    def test_materializing_trace_unchanged(self):
        workload = generate_workload("tiny", seed=4)
        data = workload.make_data(4)
        recorder = Recorder()
        Executor(context=workload.context).run(
            workload.workflow, data, recorder=recorder
        )
        trace = TraceReport.from_recorder(recorder)
        assert all(t.batches == 1 for t in trace.traces)
        assert all(t.peak_resident_rows is None for t in trace.traces)


class TestSchemaErrorsReportAbsoluteRow:
    def test_bad_row_in_later_batch(self):
        from repro.core.recordset import RecordSet, RecordSetKind
        from repro.core.schema import Schema
        from repro.core.workflow import ETLWorkflow
        from repro.core.activity import Activity
        from repro.templates import default_library

        library = default_library()
        workflow = ETLWorkflow()
        source = RecordSet(
            "S", "S", Schema(("A",)), kind=RecordSetKind.SOURCE, cardinality=8
        )
        target = RecordSet("T", "T", Schema(("A",)), kind=RecordSetKind.TARGET)
        keep = Activity(
            "a1",
            library.get("selection"),
            {"attr": "A", "op": ">=", "value": 0},
            selectivity=1.0,
        )
        for node in (source, target, keep):
            workflow.add_node(node)
        workflow.add_edge(source, keep)
        workflow.add_edge(keep, target)

        rows = [{"A": i} for i in range(7)] + [{"B": 1}]
        with pytest.raises(ExecutionError, match="row 7"):
            Executor().run(
                workflow, {"S": rows}, budget=ExecutionBudget(batch_size=3)
            )
