"""The executor ``run()`` facade and the public surface.

One :class:`Executor` takes every execution option by keyword —
``budget=``, ``recorder=``, ``shards=`` and ``checkpoint=`` — and rejects
positional options and the option combinations it cannot honour with a
typed error.
"""

import pytest

from repro.engine import (
    CheckpointStore,
    ExecutionBudget,
    Executor,
)
from repro.exceptions import ExecutionError
from repro.obs.telemetry import Recorder
from repro.workloads import generate_workload


@pytest.fixture
def tiny():
    workload = generate_workload("tiny", seed=7)
    return workload, workload.make_data(7, n=20)


def _executor(workload):
    return Executor(context=workload.context)


class TestKeywordShape:
    def test_all_executors_share_the_keyword_shape(self, tiny):
        workload, data = tiny
        budget = ExecutionBudget(batch_size=4)
        for options in ({}, {"recorder": Recorder()},
                        {"checkpoint": CheckpointStore()}):
            result = _executor(workload).run(
                workload.workflow, data, check_schemas=True, budget=budget,
                **options,
            )
            assert result.targets

    def test_recorder_keyword_routes_telemetry(self, tiny):
        workload, data = tiny
        recorder = Recorder()
        _executor(workload).run(
            workload.workflow,
            data,
            budget=ExecutionBudget(batch_size=8),
            recorder=recorder,
        )
        names = {event.get("name") for event in recorder.events()}
        assert "engine.run" in names

    def test_recorder_keyword_on_checkpointing_run(self, tiny):
        workload, data = tiny
        recorder = Recorder()
        result = _executor(workload).run(
            workload.workflow,
            data,
            checkpoint=CheckpointStore(),
            recorder=recorder,
        )
        assert result.targets
        names = {event.get("name") for event in recorder.events()}
        assert {"engine.run", "engine.operator"} <= names


class TestLegacyPositionalForms:
    def test_positional_and_keyword_clash_raises(self, tiny):
        workload, data = tiny
        with pytest.raises(TypeError, match="positional"):
            _executor(workload).run(
                workload.workflow, data, True, check_schemas=False
            )

    def test_too_many_positionals_raise(self, tiny):
        workload, data = tiny
        with pytest.raises(TypeError, match="positional"):
            _executor(workload).run(
                workload.workflow, data, True, False, None, "extra"
            )


class TestCheckpointCombinations:
    """Checkpointing runs the materializing loop; the options it cannot
    honour fail loudly instead of being ignored."""

    def test_checkpoint_with_shards_raises(self, tiny):
        workload, data = tiny
        store = CheckpointStore()
        with pytest.raises(ExecutionError, match="shards"):
            _executor(workload).run(
                workload.workflow, data, checkpoint=store, shards=2
            )
        assert not store.completed_nodes

    def test_checkpoint_with_collect_rejects_raises(self, tiny):
        workload, data = tiny
        store = CheckpointStore()
        with pytest.raises(ExecutionError, match="collect_rejects"):
            _executor(workload).run(
                workload.workflow, data, checkpoint=store,
                collect_rejects=True,
            )
        assert not store.completed_nodes

    def test_no_budget_keyword_on_the_constructor(self, tiny):
        workload, _ = tiny
        with pytest.raises(TypeError):
            Executor(context=workload.context, budget=ExecutionBudget())


class TestPublicSurface:
    def test_all_names_resolve(self):
        import repro.engine as engine

        for name in engine.__all__:
            assert getattr(engine, name) is not None

    def test_core_api_names_present(self):
        import repro.engine as engine

        for name in (
            "Batch",
            "ExecutionBudget",
            "Executor",
            "ExecutionResult",
            "ExecutionStats",
            "CheckpointStore",
            "TraceReport",
            "iter_batches",
            "rebatch",
        ):
            assert name in engine.__all__
