"""Partitioned (sharded) streaming execution: byte-identity with serial.

The engine-plane contract of the parallelism PR: for every shard count,
``Executor.run(..., shards=N)`` returns targets, stats (including key
order) and rejects (including row order) identical to the serial
streaming run — and workflows outside the partitionable shape degrade to
serial streaming loudly (warning + counter), never silently.
"""

from __future__ import annotations

import glob
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    CheckpointStore,
    ExecutionBudget,
    Executor,
    SimulatedFailure,
    as_multiset,
    execute_partitioned,
    partition_plan,
    shard_bounds,
)
from repro.engine.partition import _plan_or_reason
from repro.exceptions import ExecutionError
from repro.obs import Recorder, use_recorder
from repro.workloads.scenarios import (
    dual_target_scenario,
    star_join_scenario,
    two_branch_scenario,
)


def assert_identical(serial, sharded):
    """Byte-identity: same targets (order included), stats (key order
    included), and rejects (row order included)."""
    assert list(sharded.targets) == list(serial.targets)
    for name in serial.targets:
        assert sharded.targets[name] == serial.targets[name]
    assert sharded.stats.rows_processed == serial.stats.rows_processed
    assert sharded.stats.rows_output == serial.stats.rows_output
    assert list(sharded.stats.rows_processed) == list(
        serial.stats.rows_processed
    )
    assert sharded.rejects == serial.rejects
    assert list(sharded.rejects) == list(serial.rejects)


def _two_branch(n=157, seed=0):
    scenario = two_branch_scenario()
    return scenario, scenario.make_data(seed, n=n)


class TestShardBounds:
    @pytest.mark.parametrize("num_rows", [0, 1, 7, 100, 101])
    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 128])
    def test_contiguous_cover(self, num_rows, shards):
        bounds = shard_bounds(num_rows, shards)
        assert len(bounds) == shards
        assert bounds[0][0] == 0
        assert bounds[-1][1] == num_rows
        for (_, end), (start, _) in zip(bounds, bounds[1:]):
            assert end == start
        sizes = [end - start for start, end in bounds]
        assert sum(sizes) == num_rows
        assert max(sizes) - min(sizes) <= 1


class TestPartitionPlan:
    def test_two_branch_plans_two_leaves(self):
        scenario, _ = _two_branch()
        plan = partition_plan(scenario.workflow)
        assert plan.targets == ("DW",)
        assert len(plan.leaves) == 2
        # Leaves follow the union's port order: SRC1's branch first.
        assert [leaf.source.name for leaf in plan.leaves] == ["SRC1", "SRC2"]
        # Both leaves share the post-union late filter.
        for leaf in plan.leaves:
            assert leaf.steps[-1][1].id == "8"
            assert any(kind == "union" for kind, _ in leaf.steps)

    def test_join_is_not_partitionable(self):
        scenario = star_join_scenario()
        with pytest.raises(ExecutionError, match="not partitionable"):
            partition_plan(scenario.workflow)

    def test_fan_out_is_not_partitionable(self):
        scenario = dual_target_scenario()
        plan, reason = _plan_or_reason(scenario.workflow)
        assert plan is None
        assert "fan-out" in reason


class TestByteIdentity:
    @pytest.mark.parametrize("shards", [2, 3, 5, 16])
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_matches_serial_streaming(self, shards, batch_size):
        scenario, data = _two_branch()
        executor = Executor(context=scenario.context)
        budget = ExecutionBudget(batch_size=batch_size)
        serial = executor.run(
            scenario.workflow, data, collect_rejects=True, budget=budget
        )
        sharded = execute_partitioned(
            executor,
            scenario.workflow,
            data,
            budget,
            shards,
            collect_rejects=True,
            jobs=1,
        )
        assert_identical(serial, sharded)
        assert sharded.streaming is not None
        assert sharded.streaming.spilled_rows == 0

    def test_matches_materializing_run(self):
        scenario, data = _two_branch(n=80)
        executor = Executor(context=scenario.context)
        base = executor.run(scenario.workflow, data, collect_rejects=True)
        sharded = execute_partitioned(
            executor,
            scenario.workflow,
            data,
            ExecutionBudget(batch_size=16),
            4,
            collect_rejects=True,
            jobs=1,
        )
        assert_identical(base, sharded)

    def test_more_shards_than_rows(self):
        scenario, data = _two_branch(n=3)
        executor = Executor(context=scenario.context)
        budget = ExecutionBudget(batch_size=8)
        serial = executor.run(
            scenario.workflow, data, collect_rejects=True, budget=budget
        )
        sharded = execute_partitioned(
            executor,
            scenario.workflow,
            data,
            budget,
            17,
            collect_rejects=True,
            jobs=1,
        )
        assert_identical(serial, sharded)

    def test_row_fallback_path_matches_serial(self, monkeypatch):
        # REPRO_NO_COLUMNAR forces every chain onto the legacy row
        # operators on both paths; identity must survive.
        monkeypatch.setenv("REPRO_NO_COLUMNAR", "1")
        scenario, data = _two_branch(n=90)
        executor = Executor(context=scenario.context)
        budget = ExecutionBudget(batch_size=11)
        serial = executor.run(
            scenario.workflow, data, collect_rejects=True, budget=budget
        )
        sharded = execute_partitioned(
            executor,
            scenario.workflow,
            data,
            budget,
            3,
            collect_rejects=True,
            jobs=1,
        )
        assert_identical(serial, sharded)

    def test_pooled_run_matches_serial(self):
        # The real worker-process fan-out (fork-server preload + merge).
        scenario, data = _two_branch(n=120)
        executor = Executor(context=scenario.context)
        budget = ExecutionBudget(batch_size=32)
        serial = executor.run(
            scenario.workflow, data, collect_rejects=True, budget=budget
        )
        sharded = executor.run(
            scenario.workflow,
            data,
            collect_rejects=True,
            budget=budget,
            shards=2,
        )
        assert_identical(serial, sharded)

    def test_shards_without_budget_streams_by_default(self):
        scenario, data = _two_branch(n=40)
        executor = Executor(context=scenario.context)
        base = executor.run(scenario.workflow, data)
        sharded = executor.run(scenario.workflow, data, shards=2)
        assert sharded.streaming is not None
        assert sharded.targets == base.targets

    def test_shards_one_is_plain_streaming(self):
        scenario, data = _two_branch(n=40)
        executor = Executor(context=scenario.context)
        budget = ExecutionBudget(batch_size=8)
        serial = executor.run(scenario.workflow, data, budget=budget)
        one = executor.run(
            scenario.workflow, data, budget=budget, shards=1
        )
        assert one.targets == serial.targets
        assert one.streaming.batches_by_activity == (
            serial.streaming.batches_by_activity
        )

    @pytest.mark.parametrize("shards", [0, -3])
    def test_shard_count_below_one_is_rejected(self, shards):
        scenario, data = _two_branch(n=10)
        executor = Executor(context=scenario.context)
        with pytest.raises(ExecutionError, match="shards must be at least 1"):
            executor.run(scenario.workflow, data, shards=shards)


class TestDegradation:
    def test_join_degrades_with_warning_and_counter(self):
        scenario = star_join_scenario()
        data = scenario.make_data(0)
        executor = Executor(context=scenario.context)
        budget = ExecutionBudget(batch_size=64)
        serial = executor.run(scenario.workflow, data, budget=budget)
        recorder = Recorder()
        with use_recorder(recorder):
            with pytest.warns(RuntimeWarning, match="degraded to serial"):
                sharded = executor.run(
                    scenario.workflow, data, budget=budget, shards=2
                )
        assert sharded.targets == serial.targets
        assert sharded.stats.rows_processed == serial.stats.rows_processed
        degraded = [
            event
            for event in recorder.events()
            if event["type"] == "counter"
            and event["name"] == "engine.shards_degraded"
        ]
        assert len(degraded) == 1
        assert degraded[0]["value"] == 1

    def test_degraded_spill_run_still_cleans_up(self, tmp_path):
        # Spill interaction: a join workflow under a tight budget spills;
        # sharding degrades to that serial run and must leave the spill
        # dir empty afterwards.
        scenario = star_join_scenario()
        data = scenario.make_data(0)
        executor = Executor(context=scenario.context)
        budget = ExecutionBudget(
            batch_size=8, max_resident_rows=16, spill_dir=str(tmp_path)
        )
        serial = executor.run(scenario.workflow, data, budget=budget)
        assert serial.streaming.spilled_rows > 0
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            sharded = executor.run(
                scenario.workflow, data, budget=budget, shards=2
            )
        assert sharded.targets == serial.targets
        assert sharded.streaming.spilled_rows == serial.streaming.spilled_rows
        assert glob.glob(os.path.join(str(tmp_path), "*")) == []


class TestCheckpointInteraction:
    def test_sharded_matches_checkpoint_resumed_run(self):
        # Orthogonal recovery paths must agree: a run killed mid-flight
        # and resumed from checkpoints produces the same target multiset
        # a sharded run does.
        scenario, data = _two_branch(n=100)
        executor = Executor(context=scenario.context)
        store = CheckpointStore(fail_before="7")
        with pytest.raises(SimulatedFailure):
            executor.run(scenario.workflow, data, checkpoint=store)
        resumed = executor.run(scenario.workflow, data, checkpoint=store)
        sharded = Executor(context=scenario.context).run(
            scenario.workflow,
            data,
            budget=ExecutionBudget(batch_size=32),
            shards=3,
        )
        assert as_multiset(sharded.targets["DW"]) == as_multiset(
            resumed.targets["DW"]
        )


class TestTelemetryDeterminism:
    def test_sharded_run_telemetry_is_deterministic(self):
        scenario, data = _two_branch(n=70)

        def run():
            recorder = Recorder()
            executor = Executor(context=scenario.context)
            result = executor.run(
                scenario.workflow,
                data,
                collect_rejects=True,
                budget=ExecutionBudget(batch_size=16),
                recorder=recorder,
                shards=3,
            )
            return result, recorder

        first, first_recorder = run()
        second, second_recorder = run()
        assert_identical(first, second)
        assert first.streaming.batches_by_activity == (
            second.streaming.batches_by_activity
        )

        def stable(recorder):
            spans = [
                (e["name"], tuple(sorted(e.get("tags", {}).items())))
                for e in recorder.events()
                if e["type"] == "span"
            ]
            counters = [
                (e["name"], e["value"])
                for e in recorder.events()
                if e["type"] == "counter"
            ]
            return spans, counters

        assert stable(first_recorder) == stable(second_recorder)


class TestHypothesisShardIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=5),
        shards=st.integers(min_value=2, max_value=7),
        batch_size=st.sampled_from([1, 3, 16, 4096]),
    )
    def test_identity_across_shard_counts(self, n, seed, shards, batch_size):
        scenario, data = _two_branch(n=n, seed=seed)
        executor = Executor(context=scenario.context)
        budget = ExecutionBudget(batch_size=batch_size)
        serial = executor.run(
            scenario.workflow, data, collect_rejects=True, budget=budget
        )
        sharded = execute_partitioned(
            executor,
            scenario.workflow,
            data,
            budget,
            shards,
            collect_rejects=True,
            jobs=1,
        )
        assert_identical(serial, sharded)
