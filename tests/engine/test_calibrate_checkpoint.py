"""Selectivity calibration and checkpoint/resume execution."""

import pytest

from repro import optimize
from repro.core.signature import state_signature
from repro.core.transitions import Merge
from repro.engine import (
    CheckpointStore,
    Executor,
    SimulatedFailure,
    apply_selectivities,
    as_multiset,
    calibrate_workflow,
    empirically_equivalent,
    measure_selectivities,
)


class TestMeasureSelectivities:
    def test_filters_measured_between_zero_and_one(self, fig1, fig1_executor):
        measured = measure_selectivities(
            fig1.workflow, fig1.make_data(seed=1), fig1_executor
        )
        for activity_id in ("3", "8"):
            assert 0.0 <= measured[activity_id] <= 1.0

    def test_functions_measure_one(self, fig1, fig1_executor):
        measured = measure_selectivities(
            fig1.workflow, fig1.make_data(seed=1), fig1_executor
        )
        assert measured["4"] == pytest.approx(1.0)
        assert measured["5"] == pytest.approx(1.0)

    def test_aggregation_measures_grouping_ratio(self, fig1, fig1_executor):
        measured = measure_selectivities(
            fig1.workflow, fig1.make_data(seed=1, n2=600), fig1_executor
        )
        assert 0.0 < measured["6"] < 1.0

    def test_binary_activities_not_measured(self, fig1, fig1_executor):
        measured = measure_selectivities(
            fig1.workflow, fig1.make_data(seed=1), fig1_executor
        )
        assert "7" not in measured

    def test_composite_components_measured(self, fig1, fig1_executor):
        wf = fig1.workflow
        merged = Merge(wf.node_by_id("4"), wf.node_by_id("5")).apply(wf)
        measured = measure_selectivities(
            merged, fig1.make_data(seed=1), fig1_executor
        )
        assert "4" in measured and "5" in measured


class TestApplySelectivities:
    def test_structure_preserved(self, fig1):
        calibrated = apply_selectivities(fig1.workflow, {"3": 0.5})
        assert state_signature(calibrated) == state_signature(fig1.workflow)

    def test_selectivity_replaced(self, fig1):
        calibrated = apply_selectivities(fig1.workflow, {"3": 0.42})
        assert calibrated.node_by_id("3").selectivity == 0.42
        # Untouched activities keep their declared values (same objects).
        assert calibrated.node_by_id("8") is fig1.workflow.node_by_id("8")

    def test_original_untouched(self, fig1):
        before = fig1.workflow.node_by_id("3").selectivity
        apply_selectivities(fig1.workflow, {"3": 0.01})
        assert fig1.workflow.node_by_id("3").selectivity == before

    def test_calibrated_workflow_still_equivalent(self, fig1, fig1_executor):
        data = fig1.make_data(seed=2)
        calibrated = calibrate_workflow(fig1.workflow, data, fig1_executor)
        report = empirically_equivalent(
            fig1.workflow, calibrated, data, fig1_executor
        )
        assert report.equivalent

    def test_optimizing_calibrated_workflow(self, fig1, fig1_executor):
        data = fig1.make_data(seed=2)
        calibrated = calibrate_workflow(fig1.workflow, data, fig1_executor)
        result = optimize(calibrated)
        assert result.best_cost <= result.initial_cost
        report = empirically_equivalent(
            calibrated, result.best.workflow, data, fig1_executor
        )
        assert report.equivalent


class TestCheckpointing:
    def _executor(self, fig1):
        return Executor(context=fig1.context)

    def test_clean_run_matches_plain_executor(self, fig1):
        data = fig1.make_data(seed=3)
        plain = Executor(context=fig1.context).run(fig1.workflow, data)
        checkpointed = self._executor(fig1).run(
            fig1.workflow, data, checkpoint=CheckpointStore()
        )
        assert as_multiset(plain.targets["DW"]) == as_multiset(
            checkpointed.targets["DW"]
        )

    def test_failure_raises_simulated(self, fig1):
        data = fig1.make_data(seed=3)
        executor = self._executor(fig1)
        with pytest.raises(SimulatedFailure):
            executor.run(
                fig1.workflow, data,
                checkpoint=CheckpointStore(fail_before="7"),
            )

    @pytest.mark.parametrize("fail_at", ["3", "4", "6", "7", "8", "9"])
    def test_resume_completes_identically(self, fig1, fail_at):
        data = fig1.make_data(seed=3)
        executor = self._executor(fig1)
        reference = executor.run(fig1.workflow, data)

        store = CheckpointStore(fail_before=fail_at)
        with pytest.raises(SimulatedFailure):
            executor.run(fig1.workflow, data, checkpoint=store)
        # The injected failure fired once; the same store now resumes.
        resumed = executor.run(fig1.workflow, data, checkpoint=store)
        assert as_multiset(resumed.targets["DW"]) == as_multiset(
            reference.targets["DW"]
        )

    def test_resume_skips_completed_work(self, fig1):
        data = fig1.make_data(seed=3)
        executor = self._executor(fig1)
        store = CheckpointStore(fail_before="7")
        with pytest.raises(SimulatedFailure):
            executor.run(fig1.workflow, data, checkpoint=store)
        # Branch activities completed before the failure...
        assert {"1", "2", "3", "4", "5", "6"} <= store.completed_nodes
        resumed = executor.run(fig1.workflow, data, checkpoint=store)
        # ...so the resumed run only executed the union and the selection.
        assert set(resumed.stats.rows_processed) == {"7", "8"}

    def test_store_clear(self, fig1):
        data = fig1.make_data(seed=3)
        executor = self._executor(fig1)
        store = CheckpointStore()
        executor.run(fig1.workflow, data, checkpoint=store)
        assert store.completed_nodes
        store.clear()
        assert not store.completed_nodes


class TestBatchGranularCheckpointing:
    """Failures injected after the n-th output batch of a node; resume
    recomputes only the unfinished suffix (row-wise) or the node (blocking)."""

    def _budget(self, batch_size=10):
        from repro.engine import ExecutionBudget

        return ExecutionBudget(batch_size=batch_size)

    def test_fail_after_requires_budget(self, fig1):
        from repro.exceptions import ExecutionError

        data = fig1.make_data(seed=3)
        executor = Executor(context=fig1.context)
        with pytest.raises(ExecutionError):
            executor.run(
                fig1.workflow, data,
                checkpoint=CheckpointStore(fail_after=("7", 1)),
            )

    def test_fail_after_every_activity_then_resume(self, fig1):
        from repro.core.activity import Activity

        data = fig1.make_data(seed=3)
        executor = Executor(context=fig1.context)
        reference = executor.run(fig1.workflow, data)
        activities = [
            n for n in fig1.workflow.topological_order()
            if isinstance(n, Activity)
        ]
        tested = 0
        for node in activities:
            for batches in (1, 2):
                store = CheckpointStore(fail_after=(node.id, batches))
                try:
                    executor.run(
                        fig1.workflow, data, checkpoint=store,
                        budget=self._budget(),
                    )
                    continue  # node emitted fewer batches: no injection
                except SimulatedFailure as failure:
                    assert failure.node_id == node.id
                    assert node.id in store.partials
                resumed = executor.run(
                    fig1.workflow, data, checkpoint=store,
                    budget=self._budget(),
                )
                assert resumed.targets == reference.targets
                assert node.id not in store.partials  # promoted to complete
                tested += 1
        assert tested > 0

    def test_rowwise_resume_recomputes_only_the_suffix(self, fig1):
        """Fig 1's '3' is a row-wise filter: after failing 2 batches in, the
        resume must start from the consumed offset, not row 0."""
        data = fig1.make_data(seed=3)
        executor = Executor(context=fig1.context)
        full = executor.run(fig1.workflow, data)
        total = full.stats.rows_processed["3"]

        store = CheckpointStore(fail_after=("3", 2))
        with pytest.raises(SimulatedFailure):
            executor.run(
                fig1.workflow, data, checkpoint=store,
                budget=self._budget(batch_size=10),
            )
        partial = store.partials["3"]
        assert partial.consumed_rows == 20
        resumed = executor.run(
            fig1.workflow, data, checkpoint=store, budget=self._budget(10)
        )
        assert resumed.stats.rows_processed["3"] == total - 20
        assert resumed.targets == full.targets

    def test_partial_checkpoint_rows_concatenate(self):
        from repro.engine import PartialCheckpoint

        partial = PartialCheckpoint()
        partial.batches.append([{"a": 1}])
        partial.batches.append([{"a": 2}, {"a": 3}])
        assert partial.rows == [{"a": 1}, {"a": 2}, {"a": 3}]


class TestCalibrationRegressions:
    def test_ratio_handles_missing_output_count(self, fig1):
        """Partial stats (processed recorded, output missing) used to raise
        TypeError: unsupported operand None / int."""
        from repro.engine import ExecutionStats
        from repro.engine.calibrate import _ratio

        activity = next(iter(fig1.workflow.activities()))
        stats = ExecutionStats()
        stats.rows_processed[activity.id] = 50  # no rows_output entry
        assert _ratio(stats, activity) is None

    def test_zero_row_activity_warns_and_keeps_declared(self, fig1):
        import warnings

        from repro.engine import CalibrationWarning

        # Empty sources: every activity processes zero rows.
        empty = {name: [] for name in fig1.make_data(seed=1)}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            measured = measure_selectivities(
                fig1.workflow, empty, Executor(context=fig1.context)
            )
        assert measured == {}
        calibration_warnings = [
            w for w in caught if issubclass(w.category, CalibrationWarning)
        ]
        assert calibration_warnings
        assert "declared selectivity" in str(calibration_warnings[0].message)

    def test_clean_sample_does_not_warn(self, fig1, fig1_executor):
        import warnings

        from repro.engine import CalibrationWarning

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            measure_selectivities(
                fig1.workflow, fig1.make_data(seed=1), fig1_executor
            )
        assert not [
            w for w in caught if issubclass(w.category, CalibrationWarning)
        ]
