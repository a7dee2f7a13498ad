"""Template catalogue rendering and execution tracing."""

import pytest

from repro.engine import ExecutionBudget, Executor
from repro.engine.tracing import TraceReport
from repro.exceptions import ExecutionError
from repro.obs import Recorder
from repro.templates import SELECTION, default_library
from repro.templates.catalog import render_catalog, template_summary
from repro.workloads import generate_workload
from repro.workloads.scenarios import two_branch_scenario


def _traced(executor, workflow, data, recorder=None, **options):
    recorder = recorder if recorder is not None else Recorder()
    executor.run(workflow, data, recorder=recorder, **options)
    return TraceReport.from_recorder(recorder)


class TestCatalog:
    def test_summary_fields(self):
        row = template_summary(SELECTION)
        assert row["name"] == "selection"
        assert row["kind"] == "filter"
        assert row["cost_shape"] == "linear"
        assert "union" in row["moves_across"]

    def test_render_lists_every_template(self):
        catalog = render_catalog()
        for template in default_library():
            assert f"`{template.name}`" in catalog

    def test_render_is_markdown_table(self):
        catalog = render_catalog()
        assert catalog.startswith("# Activity template catalogue")
        assert "| template | kind |" in catalog

    def test_render_with_custom_library(self):
        library = default_library()
        catalog = render_catalog(library)
        assert "`distinct`" in catalog


class TestTracingExecutor:
    """``Executor.run`` under a recorder, read back as a profile."""

    def test_trace_collected(self, fig1):
        trace = _traced(
            Executor(context=fig1.context), fig1.workflow, fig1.make_data(seed=1, n1=50, n2=80)
        )
        assert {t.activity_id for t in trace.traces} == {
            "3", "4", "5", "6", "7", "8",
        }

    def test_trace_rows_and_selectivity(self, fig1):
        trace = _traced(
            Executor(context=fig1.context), fig1.workflow, fig1.make_data(seed=1, n1=50, n2=80)
        )
        by_id = {t.activity_id: t for t in trace.traces}
        assert by_id["3"].rows_in == 50
        assert by_id["4"].selectivity == pytest.approx(1.0)
        assert 0.0 < by_id["6"].selectivity <= 1.0

    def test_render_profile(self, fig1):
        trace = _traced(Executor(context=fig1.context), fig1.workflow, fig1.make_data(seed=1))
        report = trace.render(top=3)
        assert "template" in report
        assert len(report.splitlines()) == 4  # header + top 3

    def test_composite_components_traced(self, fig1):
        from repro.core.transitions import Merge

        wf = fig1.workflow
        merged = Merge(wf.node_by_id("4"), wf.node_by_id("5")).apply(wf)
        trace = _traced(Executor(context=fig1.context), merged, fig1.make_data(seed=1))
        ids = {t.activity_id for t in trace.traces}
        assert {"4", "5"} <= ids
        assert "4+5" not in ids

    def test_trace_reset_between_runs(self, fig1):
        # One recorder, two runs: the report covers the last run only.
        recorder = Recorder()
        executor = Executor(context=fig1.context)
        first = _traced(
            executor, fig1.workflow, fig1.make_data(seed=1), recorder
        )
        second = _traced(
            executor, fig1.workflow, fig1.make_data(seed=2), recorder
        )
        assert second is not first
        assert len(second.traces) == len(first.traces)

    def test_results_match_plain_executor(self, fig1, fig1_executor):
        from repro.engine import as_multiset

        data = fig1.make_data(seed=3)
        plain = fig1_executor.run(fig1.workflow, data)
        traced = fig1_executor.run(fig1.workflow, data, recorder=Recorder())
        assert as_multiset(plain.targets["DW"]) == as_multiset(
            traced.targets["DW"]
        )

    def test_recorder_without_a_run_raises(self):
        with pytest.raises(ExecutionError, match="engine.run"):
            TraceReport.from_recorder(Recorder())


#: Per-activity ``(id, rows_in, rows_out, batches, peak_resident_rows)``
#: the former tracing executor subclass reported on the runs below; the
#: recorder-built report must match it field for field.
_SMALL4_MATERIALIZING = [
        ('11', 200, 200, 1, None),
        ('12', 200, 180, 1, None),
        ('13', 180, 180, 1, None),
        ('14', 180, 180, 1, None),
        ('15', 180, 120, 1, None),
        ('16', 120, 92, 1, None),
        ('17', 92, 14, 1, None),
        ('18', 14, 7, 1, None),
        ('19', 7, 7, 1, None),
        ('2', 200, 191, 1, None),
        ('3', 191, 191, 1, None),
        ('4', 191, 191, 1, None),
        ('5', 191, 38, 1, None),
        ('6', 38, 16, 1, None),
        ('7', 16, 0, 1, None),
        ('8', 0, 0, 1, None),
        ('9', 0, 0, 1, None),
        ('20', 7, 7, 1, None),
        ('21', 7, 2, 1, None),
        ('22', 2, 2, 1, None),
        ('23', 2, 2, 1, None),
        ('24', 2, 2, 1, None),
]
_SMALL4_STREAMING = [
        ('11', 200, 200, 13, 0),
        ('12', 200, 180, 13, 0),
        ('13', 180, 180, 13, 0),
        ('14', 180, 180, 13, 0),
        ('15', 180, 120, 13, 0),
        ('16', 120, 92, 13, 0),
        ('17', 92, 14, 13, 0),
        ('18', 14, 7, 10, 0),
        ('19', 7, 7, 6, 0),
        ('2', 200, 191, 13, 0),
        ('3', 191, 191, 13, 0),
        ('4', 191, 191, 13, 0),
        ('5', 191, 38, 13, 0),
        ('6', 38, 16, 12, 0),
        ('7', 16, 0, 9, 0),
        ('8', 0, 0, 0, 0),
        ('9', 0, 0, 0, 0),
        ('20', 7, 7, 6, 0),
        ('21', 7, 2, 6, 0),
        ('22', 2, 2, 2, 0),
        ('23', 2, 2, 3, 4),
        ('24', 2, 2, 1, 0),
]
_TWO_BRANCH_SHARDED = [
        ('3', 120, 120, 8, 0),
        ('5', 120, 75, 8, 0),
        ('6', 120, 114, 8, 0),
        ('4', 114, 114, 8, 0),
        ('7', 189, 189, 16, 0),
        ('8', 189, 74, 16, 0),
]


class TestTraceParity:
    def _rows(self, trace):
        return [
            (t.activity_id, t.rows_in, t.rows_out, t.batches,
             t.peak_resident_rows)
            for t in trace.traces
        ]

    def test_materializing_and_streaming_runs(self):
        workload = generate_workload("small", seed=4)
        data = workload.make_data(4, n=200)
        executor = Executor(context=workload.context)
        assert self._rows(
            _traced(executor, workload.workflow, data)
        ) == _SMALL4_MATERIALIZING
        assert self._rows(
            _traced(
                executor, workload.workflow, data,
                budget=ExecutionBudget(batch_size=16),
            )
        ) == _SMALL4_STREAMING

    def test_sharded_run(self):
        scenario = two_branch_scenario()
        data = scenario.make_data(0, n=120)
        trace = _traced(
            Executor(context=scenario.context), scenario.workflow, data,
            budget=ExecutionBudget(batch_size=16), shards=2,
        )
        assert self._rows(trace) == _TWO_BRANCH_SHARDED
